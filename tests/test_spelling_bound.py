import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octfield.topology import (
    SECTORS,
    OctantTopology,
    UnsupportedSignPatternError,
    adjacent,
    classify,
    infimum_energy,
    normalize_edge_signs,
    spelling_lower_bound_check,
    wrapping_from_invariants,
)
from octfield.topology import _family_words, _route_bound
from octfield.words import (
    ClassProductSpec,
    Word,
    certified_lower_bound,
    inverse,
    min_spelling_over_product,
    word,
)


def _relabel_for_search(boundary: Word, c0: Word) -> tuple[Word, Word]:
    """Relabel generators (c3, c1, c2) -> (A, B, C), inverting all letters when
    the boundary word has negative exponents, so that the base becomes
    A^i B^j C^k with i, j, k >= 0.  Relabelings are free-group automorphisms,
    so spelling lengths over the relabeled set product are unchanged.  The
    word route through them is the oracle of ``_route_bound``'s closed form."""
    perm = {3: 1, 1: 2, 2: 3}
    flip = 1
    if boundary.letters:
        first_positive = boundary.letters[0] > 0
        if any((l > 0) != first_positive for l in boundary.letters):
            raise UnsupportedSignPatternError("mixed-exponent boundary word")
        if not first_positive:
            flip = -1

    def relabel(u: Word) -> Word:
        return word(3, tuple(flip * (1 if l > 0 else -1) * perm[abs(l)] for l in u.letters))

    return relabel(boundary), relabel(c0)


def _class(k, n):
    s = sum(k)
    return OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)


def test_worked_example_reaches_seven():
    t = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    assert spelling_lower_bound_check(t) == 7


def test_class_bound_of_large_kinks_is_read_without_a_search():
    # the plus family's class product has 1,200 factor slots; the bound is
    # the certified value alone, so no spelling DP runs and nothing recurses
    # once per slot
    t = OctantTopology((1, 1, 1), (400, 400, 400), 4807)
    assert spelling_lower_bound_check(t) == 4807


def test_plus_family_alone_reproduces_abelian_bound():
    # the (+++)-side loops alone only certify the abelian value for the
    # worked example; the (---)-side supplies the nonabelian excess
    t = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    w = wrapping_from_invariants(t)
    plus = _route_bound(w, t.k, "plus")
    minus = _route_bound(w, t.k, "minus")
    assert plus == w.total_absolute() == 5
    assert minus == 7


def test_bound_never_exceeds_energy_and_is_tight_for_positive_kinks():
    for k in [(1, 1, 1), (2, 2, 2), (1, 2, 2), (1, 1, 2)]:
        s = sum(k)
        for n in range(1, s - 1):
            t = _class(k, n)
            w = wrapping_from_invariants(t)
            energy = infimum_energy(w, classify(w, t))
            bound = spelling_lower_bound_check(t)
            assert bound <= energy
            assert bound == energy


def test_double_kink_class_matches_adjacent_sum_identity():
    # for k = (2,2,2) classes the (+++)-family certified total reproduces the
    # identity sum_S D - sum_S |w| >= 2 w_0 - 2 sum Phi(w_adj)
    t = _class((2, 2, 2), 2)
    w = wrapping_from_invariants(t)
    in_family = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    outside = sum(abs(w[s]) for s in map(tuple, w.as_dict()) if False)
    plus_total = _route_bound(w, t.k, "plus")
    w0 = w[(1, 1, 1)]
    adj = [w[s] for s in in_family[1:]]
    phi = sum((v + abs(v)) // 2 for v in adj)
    family_abs = sum(abs(w[s]) for s in in_family)
    lhs = plus_total - (w.total_absolute() - family_abs) - family_abs
    assert lhs >= 2 * w0 - 2 * phi


def test_negative_kinks_supported():
    # mirror of the worked example: all kinks negative
    t = OctantTopology((1, 1, 1), (-1, -1, -1), -4 * 3 - 1 + 8 * 2)
    bound = spelling_lower_bound_check(t)
    w = wrapping_from_invariants(t)
    assert bound <= infimum_energy(w, classify(w, t))


def test_bound_is_read_on_the_reflected_class():
    # reflections keep the energy; the loop words hold for edge signs (+,+,+)
    t = OctantTopology((-1, -1, -1), (-2, -2, -2), 1)
    assert spelling_lower_bound_check(t) == spelling_lower_bound_check(
        normalize_edge_signs(t)[0]) == 13
    with pytest.raises(UnsupportedSignPatternError):
        spelling_lower_bound_check(OctantTopology((1, 1, -1), (1, 1, 1), 13))


def test_reflected_bounds_are_tight_or_refused():
    # e != (+,+,+), one-signed k in [-3,3]^3, |omega_units| <= 40
    tight = refused = 0
    for e in itertools.product((1, -1), repeat=3):
        for k in itertools.product(range(-3, 4), repeat=3):
            if e == (1, 1, 1) or not (all(v > 0 for v in k) or all(v < 0 for v in k)):
                continue
            for omega_units in range(-40, 41):
                try:
                    t = OctantTopology(e, k, omega_units)
                    w = wrapping_from_invariants(t)
                except ValueError:
                    continue
                try:
                    bound = spelling_lower_bound_check(t)
                except UnsupportedSignPatternError:
                    refused += 1
                    continue
                assert bound == infimum_energy(w, classify(w, t)), t
                tight += 1
    assert (tight, refused) == (540, 3240)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(itertools.product((1, -1), repeat=3))),
       st.tuples(*[st.integers(-6, 6)] * 3), st.integers(-10, 10))
def test_bound_never_exceeds_the_energy_formula(e, k, n):
    # omega_units = 4 sum(k) - e_x e_y e_z (mod 8) makes the class valid
    t = OctantTopology(e, k, (4 * sum(k) - math.prod(e)) % 8 + 8 * n)
    w = wrapping_from_invariants(t)
    try:
        bound = spelling_lower_bound_check(t)
    except UnsupportedSignPatternError:
        return
    assert bound <= infimum_energy(w, classify(w, t))


def test_mixed_and_zero_kinks_rejected():
    with pytest.raises(UnsupportedSignPatternError):
        spelling_lower_bound_check(OctantTopology((1, 1, 1), (1, 1, -1), 8 + 7 - 4))
    with pytest.raises(UnsupportedSignPatternError):
        spelling_lower_bound_check(OctantTopology((1, 1, 1), (1, 1, 0), 8 + 7 - 8))


def test_relabeling_produces_recognizable_shapes():
    base, c0 = _relabel_for_search(*_family_words((2, 2, 2), "plus"))
    assert all(l > 0 for l in base.letters)
    base2, c02 = _relabel_for_search(*_family_words((2, 2, 2), "minus"))
    assert all(l > 0 for l in base2.letters)


_COUNTS = st.integers(0, 12)


@settings(max_examples=300, deadline=None)
@given(_COUNTS, _COUNTS, _COUNTS, _COUNTS, _COUNTS, st.sampled_from(("P", "Q")))
def test_certified_value_falls_at_most_two_per_factor_pair(i, j, k, p, n, variant):
    # one more factor of each class may lower the certified value by 2 at
    # most, so D0 + lower(D0) never falls as D0 = |d| + 2j grows
    before = certified_lower_bound(i, j, k, p, n, variant)
    assert certified_lower_bound(i, j, k, p + 1, n + 1, variant) >= before - 2


def _route_bound_over_budget(w, k, family, d0_budget):
    """The route bound as the least D0 + lower(D0) over every admissible
    preimage count D0 = |d|, |d| + 2, ... up to a budget."""
    s0 = (1, 1, 1) if family == "plus" else (-1, -1, -1)
    in_family = [s0] + [s for s in SECTORS if adjacent(s, s0)]
    outside = sum(abs(w[s]) for s in SECTORS if s not in in_family)
    boundary, c0 = _relabel_for_search(*_family_words(k, family))
    d_s0 = -w[s0]
    bounds = []
    for d0 in range(abs(d_s0), max(d0_budget, abs(d_s0)) + 1, 2):
        spec = ClassProductSpec(
            base=boundary,
            factors=((inverse(c0), (d0 + d_s0) // 2), (c0, (d0 - d_s0) // 2)),
            search_budget=0,
        )
        bounds.append(d0 + min_spelling_over_product(spec).lower)
    return outside + min(bounds)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(itertools.product((1, -1), repeat=3))), st.sampled_from((1, -1)),
       st.tuples(*[st.integers(1, 9)] * 3), st.integers(-12, 12),
       st.sampled_from(("plus", "minus")))
def test_closed_form_route_bound_is_the_word_route(e, sign, k, n, family):
    # the class bound read from the kinks and d(s0) equals the certified
    # value of the relabeled word product at D0 = |d(s0)|
    k = tuple(sign * v for v in k)
    w = wrapping_from_invariants(OctantTopology(e, k, (4 * sum(k) - math.prod(e)) % 8 + 8 * n))
    assert _route_bound(w, k, family) == _route_bound_over_budget(w, k, family, 0)


def test_route_bound_is_the_least_over_every_preimage_budget():
    checked = 0
    for sign, e in itertools.product((1, -1), ((1, 1, 1), (-1, 1, 1), (1, -1, -1))):
        for k in itertools.product((1, 2), repeat=3):
            k = tuple(sign * v for v in k)
            for omega_units in range(-20, 21):
                try:
                    w = wrapping_from_invariants(OctantTopology(e, k, omega_units))
                except ValueError:
                    continue
                for family in ("plus", "minus"):
                    bound = _route_bound(w, k, family)
                    for budget in (3, 7, 11):
                        assert bound == _route_bound_over_budget(w, k, family, budget), (
                            e, k, omega_units, family, budget)
                    checked += 1
    assert checked == 480
