import pytest

from octfield.topology import (
    OctantTopology,
    UnsupportedSignPatternError,
    classify,
    infimum_energy,
    spelling_lower_bound_check,
    wrapping_from_invariants,
)
from octfield.topology import _family_words, _relabel_for_search, _route_bound


def _class(k, n):
    s = sum(k)
    return OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)


def test_worked_example_reaches_seven():
    t = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    assert spelling_lower_bound_check(t, d0_budget=1) == 7


def test_plus_family_alone_reproduces_abelian_bound():
    # the (+++)-side loops alone only certify the abelian value for the
    # worked example; the (---)-side supplies the nonabelian excess
    t = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    w = wrapping_from_invariants(t)
    plus = _route_bound(w, t.k, "plus", 1)
    minus = _route_bound(w, t.k, "minus", 1)
    assert plus == w.total_absolute() == 5
    assert minus == 7


def test_bound_never_exceeds_energy_and_is_tight_for_positive_kinks():
    for k in [(1, 1, 1), (2, 2, 2), (1, 2, 2), (1, 1, 2)]:
        s = sum(k)
        for n in range(1, s - 1):
            t = _class(k, n)
            w = wrapping_from_invariants(t)
            energy = infimum_energy(w, classify(w, t))
            bound = spelling_lower_bound_check(t, d0_budget=3)
            assert bound <= energy
            assert bound == energy


def test_double_kink_class_matches_adjacent_sum_identity():
    # for k = (2,2,2) classes the (+++)-family certified total reproduces the
    # identity sum_S D - sum_S |w| >= 2 w_0 - 2 sum Phi(w_adj)
    t = _class((2, 2, 2), 2)
    w = wrapping_from_invariants(t)
    in_family = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    outside = sum(abs(w[s]) for s in map(tuple, w.as_dict()) if False)
    plus_total = _route_bound(w, t.k, "plus", 3)
    w0 = w[(1, 1, 1)]
    adj = [w[s] for s in in_family[1:]]
    phi = sum((v + abs(v)) // 2 for v in adj)
    family_abs = sum(abs(w[s]) for s in in_family)
    lhs = plus_total - (w.total_absolute() - family_abs) - family_abs
    assert lhs >= 2 * w0 - 2 * phi


def test_negative_kinks_supported():
    # mirror of the worked example: all kinks negative
    t = OctantTopology((1, 1, 1), (-1, -1, -1), -4 * 3 - 1 + 8 * 2)
    bound = spelling_lower_bound_check(t, d0_budget=3)
    w = wrapping_from_invariants(t)
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
