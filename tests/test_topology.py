import math
import random

import pytest

from octfield.topology import (
    SECTORS,
    Classification,
    InvalidTopologyError,
    InvalidWrappingError,
    OctantTopology,
    UnsupportedSignPatternError,
    WrappingNumbers,
    adjacent,
    boundary_word,
    classify,
    delta_invariant,
    infimum_energy,
    invariants_from_wrapping,
    normalize_edge_signs,
    parse_sector,
    prism_bounds,
    reflect_wrapping,
    sector_name,
    wrapping_from_invariants,
)

WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def test_worked_example_wrapping_numbers():
    w = wrapping_from_invariants(WORKED)
    assert w.as_dict() == {
        "+++": 1, "-++": 1, "+-+": 1, "++-": 1,
        "+--": 0, "-+-": 0, "--+": 0, "---": -1,
    }


def test_identity_class_wrapping():
    w = wrapping_from_invariants(OctantTopology((1, 1, 1), (0, 0, 0), -1))
    assert w[(1, 1, 1)] == -1
    assert w.total_absolute() == 1


def test_sign_flip_symmetry_small_parameters():
    # flipping all edge signs with k = 0 mirrors the wrapping numbers
    t = OctantTopology((1, 1, 1), (0, 0, 0), -1)
    w = wrapping_from_invariants(t)
    mirrored = reflect_wrapping(w, (-1, -1, -1))
    t2 = invariants_from_wrapping(mirrored)
    assert t2.e == (-1, -1, -1)
    assert t2.k == (0, 0, 0)


def test_invalid_omega_units_rejected():
    with pytest.raises(InvalidTopologyError):
        wrapping_from_invariants(OctantTopology((1, 1, 1), (1, 1, 1), 4))


def test_inversion_worked_example():
    w = wrapping_from_invariants(WORKED)
    assert invariants_from_wrapping(w) == WORKED


def test_inversion_roundtrip_random():
    rng = random.Random(41)
    for _ in range(200):
        e = tuple(rng.choice((1, -1)) for _ in range(3))
        k = tuple(rng.randint(-4, 4) for _ in range(3))
        sign_product = e[0] * e[1] * e[2]
        base = 4 * sum(k) - sign_product
        u = base + 8 * rng.randint(-3, 3)
        t = OctantTopology(e, k, u)
        w = wrapping_from_invariants(t)
        assert invariants_from_wrapping(w) == t


def test_inversion_rejects_inconsistent_wrapping():
    w = wrapping_from_invariants(WORKED)
    bad = list(w.values)
    bad[0] += 1
    with pytest.raises(InvalidWrappingError):
        invariants_from_wrapping(WrappingNumbers(tuple(bad)))


def test_all_zero_wrapping_is_invalid():
    # no (e, k, Omega) reproduces the all-zero set: the delta term obstructs
    with pytest.raises(InvalidWrappingError):
        invariants_from_wrapping(WrappingNumbers((0,) * 8))


@pytest.mark.parametrize("e, k, omega_units", [
    ((1.9, 1, 1), (1.5, 1, 1), 3.7),
    ((1, 1, 1), (1.5, 1, 1), 3),
    ((1, 1, 1), (1, 1, 1), 3.5),
    ((1, 1, 1), (1, 1, 1), float("nan")),
    ((1, 1, 1), (1, 1, 1), float("inf")),
    ((1, -0.5, 1), (1, 1, 1), 3),
], ids=["all-fractional", "fractional-kink", "fractional-omega", "nan-omega", "inf-omega",
        "fractional-sign"])
def test_non_integral_invariants_are_refused(e, k, omega_units):
    # nothing is truncated: (1.9, 1, 1), (1.5, 1, 1), 3.7 is not the class
    # ((1, 1, 1), (1, 1, 1), 3)
    with pytest.raises(InvalidTopologyError, match="must be integral"):
        OctantTopology(e, k, omega_units)


@pytest.mark.parametrize("values", [(0.5,) * 8, (1, 1, 1, 1, 0, 0, 0, -1.25)],
                         ids=["halves", "one-fractional"])
def test_non_integral_wrapping_numbers_are_refused(values):
    with pytest.raises(InvalidWrappingError, match="must be integral"):
        WrappingNumbers(values)


def test_integral_floats_and_numpy_integers_convert():
    import numpy as np
    t = OctantTopology(np.array([1, 1, 1]), (1.0, np.int64(1), 1), np.int32(3))
    assert t == WORKED
    assert all(type(v) is int for v in (*t.e, *t.k, t.omega_units))
    w = WrappingNumbers(np.array(wrapping_from_invariants(WORKED).values, dtype=float))
    assert w == wrapping_from_invariants(WORKED)
    assert all(type(v) is int for v in w.values)


def test_classify_worked_example():
    w = wrapping_from_invariants(WORKED)
    c = classify(w, WORKED)
    assert c.kind == "nonconformal"
    assert c.sigma_plus == (1, 1, 1)
    assert c.sigma_minus == (-1, -1, -1)
    assert c.chi == 0


def test_classify_conformal_on_boundary_values():
    # all w <= 0 with one w = -2: conformal by definition
    t = invariants_from_wrapping(
        WrappingNumbers((-2, 0, -1, 0, -1, 0, -1, 0))
    )
    w = wrapping_from_invariants(t)
    assert classify(w, t).kind == "conformal"


def test_classify_synthetic_zero_wrapping_is_conformal():
    # classification logic alone: both one-signed conditions hold, conformal wins
    w = WrappingNumbers((0,) * 8)
    t = OctantTopology((1, 1, 1), (0, 0, 0), -1)  # synthetic carrier
    assert classify(w, t).kind == "conformal"


def test_chi_flag():
    t = OctantTopology((1, 1, 1), (1, 1, -1), 8 * 1 + 7 - 4 * 1)
    w = wrapping_from_invariants(t)
    assert classify(w, t).chi == 1


def test_delta_worked_example():
    w = wrapping_from_invariants(WORKED)
    c = classify(w, WORKED)
    assert delta_invariant(w, c) == 2


def test_delta_conformal_is_zero():
    t = OctantTopology((1, 1, 1), (0, 0, 0), -1)
    w = wrapping_from_invariants(t)
    assert delta_invariant(w, classify(w, t)) == 0


def test_delta_closed_form_case_1a_range():
    # classes k = (2, 3, 3): on 1 <= n <= k_y - 1 the invariant equals
    # 2 min(n, k_x - 1)
    k = (2, 3, 3)
    s = sum(k)
    for n in range(1, k[1]):
        t = OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        assert delta_invariant(w, c) == 2 * min(n, k[0] - 1)


def test_delta_tie_independence_on_tied_instances():
    # k = (2,2,2), n = 2 has triple-tied adjacent maxima
    for k, n in [((2, 2, 2), 2), ((1, 1, 3), 1), ((3, 3, 3), 4)]:
        s = sum(k)
        t = OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        delta_invariant(w, c)  # raises internally if tied choices disagree


def test_infimum_energy_worked_example():
    w = wrapping_from_invariants(WORKED)
    assert infimum_energy(w, classify(w, WORKED)) == 7


def test_infimum_energy_trivial_synthetic():
    w = WrappingNumbers((0,) * 8)
    c = Classification("conformal", None, None, 0)
    assert infimum_energy(w, c) == 0


def test_infimum_energy_identity_class():
    t = OctantTopology((1, 1, 1), (0, 0, 0), -1)
    w = wrapping_from_invariants(t)
    assert infimum_energy(w, classify(w, t)) == 1


def test_energy_at_least_abelian():
    rng = random.Random(13)
    for _ in range(100):
        e = tuple(rng.choice((1, -1)) for _ in range(3))
        k = tuple(rng.randint(-3, 3) for _ in range(3))
        u = 4 * sum(k) - e[0] * e[1] * e[2] + 8 * rng.randint(-2, 2)
        t = OctantTopology(e, k, u)
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        energy = infimum_energy(w, c)
        assert energy >= w.total_absolute()
        assert (energy == w.total_absolute()) == (delta_invariant(w, c) == 0)


def test_omega_shift_adds_one_everywhere():
    # adding 4 pi of trapped area (8 omega units) raises every wrapping
    # number by exactly one, direct from the formula
    t = WORKED
    t_shift = OctantTopology(t.e, t.k, t.omega_units + 8)
    w = wrapping_from_invariants(t)
    w_shift = wrapping_from_invariants(t_shift)
    assert all(b - a == 1 for a, b in zip(w.values, w_shift.values))


def test_prism_bounds_worked_example():
    w = wrapping_from_invariants(WORKED)
    c = classify(w, WORKED)
    lo, hi = prism_bounds(w, c, 1.0, 1.0, 1.0)
    assert lo == pytest.approx(28 * math.pi)
    assert hi == pytest.approx(28 * math.sqrt(3) * math.pi)
    ratio = lo / hi
    assert ratio == pytest.approx(1.0 / math.sqrt(3))


def test_prism_bounds_rejects_bad_lengths():
    w = wrapping_from_invariants(WORKED)
    c = classify(w, WORKED)
    with pytest.raises(ValueError):
        prism_bounds(w, c, 1.0, 2.0, 3.0)


def test_edge_sign_normalization():
    t = OctantTopology((-1, 1, 1), (1, 0, 0), 5)
    t_norm, flips = normalize_edge_signs(t)
    assert t_norm.e == (1, 1, 1)
    assert flips == (-1, 1, 1)
    w = wrapping_from_invariants(t)
    w_norm = wrapping_from_invariants(t_norm)
    assert w.total_absolute() == w_norm.total_absolute()


# -- boundary words -----------------------------------------------------------

def test_boundary_word_unit_kinks():
    b, c0 = boundary_word((1, 1, 1), "positive")
    assert b.letters == ()
    assert c0.letters == (-3, -1, -2)  # (c2 c1 c3)^-1


def test_boundary_word_double_kinks():
    b, _ = boundary_word((2, 2, 2), "positive")
    assert b.letters == (3, 1, 2)


def test_boundary_word_negative_kinks():
    b, c0 = boundary_word((-1, -1, -1), "negative")
    assert b.letters == (3, 1, 2)
    assert c0.letters == (-2, -1, -3)


def test_boundary_word_rejects_mixed():
    with pytest.raises(UnsupportedSignPatternError):
        boundary_word((1, -1, 1), "positive")
    with pytest.raises(UnsupportedSignPatternError):
        boundary_word((1, 1, 1), "negative")


def test_sector_helpers():
    assert parse_sector("+-+") == (1, -1, 1)
    assert sector_name((1, -1, 1)) == "+-+"
    assert adjacent((1, 1, 1), (1, 1, -1))
    assert not adjacent((1, 1, 1), (1, -1, -1))
    assert len(SECTORS) == 8
