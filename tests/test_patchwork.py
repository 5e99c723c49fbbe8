import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octfield.geometry import chordal_distance, relocate, relocate_inverse
from octfield.numerics import boundary_residual, dirichlet_energy, trapped_area
from octfield.patchwork import (
    InternalConsistencyError,
    NotApplicableError,
    PatchworkSpec,
    SampledMap,
    UnsupportedClassError,
    assemble_patchwork,
    identity_map,
    rational_map,
    select_case,
)
from octfield.rational import RationalMapSpec, evaluate_rational, realize
from octfield.topology import (
    SECTORS,
    OctantTopology,
    classify,
    delta_invariant,
    wrapping_from_invariants,
)
from gridded import gridded
from windings import both_ways


def _standard_stack(covers, epsilon=0.05):
    """A stack as the patchwork builds it, with the layer ratio of its
    depth (``patchwork._layer_ratio``)."""
    from octfield.patchwork import _layer_ratio
    from octfield.stacks import QuarterSphereStack

    return QuarterSphereStack(covers, epsilon, _layer_ratio(len(covers), epsilon))


WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def _class(k, n):
    s = sum(k)
    return OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)


def test_select_case_worked_example():
    spec = select_case(WORKED, epsilon=0.05)
    assert spec.case_id == "1f"
    assert spec.H0 == OctantTopology((-1, 1, 1), (1, 0, 0), 5)
    assert spec.M == (1, 0, 0)


def test_select_case_1a_instance():
    spec = select_case(_class((2, 3, 4), 1), epsilon=0.05)
    assert spec.case_id == "1a"
    assert spec.M == (2, 0, 0)
    assert spec.H0.k == (2, 2, 3)


def test_select_case_2c_instance():
    spec = select_case(_class((1, 1, 3), 1), epsilon=0.05)
    assert spec.case_id == "2c"
    assert spec.H0 == OctantTopology((1, -1, 1), (0, 0, 0), 1)
    assert spec.M == (4, 1, 0)
    # x: the even layers up to 2(k_z - n - 1) = 2 cover the antidiagonal
    # quadrant; y: no odd layer up to 2(n - k_x - k_y + 1) = 0 does
    assert spec.stacks["x"].covers == ((-1, -1), (1, -1), (-1, -1), (1, 1))
    assert spec.stacks["y"].covers == ((-1, -1),)


def test_select_case_flips_general_sign_stacks():
    # all-negative kinks: sigma_- = (+,+,+), which every relocated stack
    # reaches by the flipped alternation, covering (1, 1) with its one layer
    spec = select_case(OctantTopology((1, 1, 1), (-1, -1, -1), -5), epsilon=0.05)
    assert spec.case_id == "general-sign"
    assert spec.M == (1, 1, 1)
    assert all(st.covers == ((1, 1),) for st in spec.stacks.values())


def test_select_case_verifies_identities_for_full_sweep():
    # select_case re-derives and asserts the coverage identity, the wrapping
    # additivity, and the edge-sign parity before returning; run it over the
    # whole tabulated family and re-check the coverage identity externally
    import itertools

    from octfield.topology import SECTORS

    for k in itertools.combinations_with_replacement((1, 2, 3), 3):
        s = sum(k)
        for n in range(1, s - 1):
            t = _class(k, n)
            w = wrapping_from_invariants(t)
            c = classify(w, t)
            spec = select_case(t, epsilon=0.05)
            w0 = wrapping_from_invariants(spec.H0)
            assert spec.H0.e == tuple(-1 if m % 2 else 1 for m in spec.M)
            assert w0.total_absolute() + 2 * sum(spec.M) == (
                w.total_absolute() + delta_invariant(w, c)
            )
            tables = spec.stack_tables()
            assembled = tuple(
                v0 + sum(tab.get(sec, 0) for tab in tables.values())
                for sec, v0 in zip(SECTORS, w0.values)
            )
            assert assembled == w.values


def test_select_case_rejects_conformal():
    with pytest.raises(NotApplicableError):
        select_case(OctantTopology((1, 1, 1), (0, 0, 0), -1))


def test_select_case_rejects_unnormalized_edges():
    with pytest.raises(UnsupportedClassError):
        select_case(OctantTopology((-1, 1, 1), (1, 1, 1), 8 * 1 + 7 - 12 + 2))


def test_unsorted_positive_kinks_route_through_general_recipe():
    # k = (2, 1, 1) is the axis permutation of (1, 1, 2)
    t = OctantTopology((1, 1, 1), (2, 1, 1), 8 * 1 + 7 - 16)
    spec = select_case(t, epsilon=0.05)
    assert spec.case_id == "general-sign"
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    w0 = wrapping_from_invariants(spec.H0)
    assert w0.total_absolute() + 2 * sum(spec.M) == (
        w.total_absolute() + delta_invariant(w, c)
    )
    sm = assemble_patchwork(spec)
    assert both_ways(sm) == (w.values, w.values)


def test_negative_kinks_are_constructed_or_reported():
    # classes outside the tabulated branch either get a verified general-sign
    # spec or raise an explicit unsupported error, never a silent wrong answer
    t = OctantTopology((1, 1, 1), (-1, -1, -1), -4 * 3 - 1 + 8 * 2)
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    assert c.kind == "nonconformal"
    try:
        spec = select_case(t, epsilon=0.05)
    except UnsupportedClassError as e:
        assert "coverage identity" in str(e)
        return
    assert spec.case_id == "general-sign"
    sm = assemble_patchwork(spec)
    assert both_ways(sm) == (w.values, w.values)


def test_mixed_sign_kinks_reported_unsupported_never_silent():
    # sigma_pm from mixed kink signs forces modulus-inverting reflections
    t = OctantTopology((1, 1, 1), (1, 1, -2), 4 * 0 - 1 + 8)
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    if c.kind != "nonconformal":
        pytest.skip("chosen instance not nonconformal")
    try:
        spec = select_case(t, epsilon=0.05)
    except UnsupportedClassError:
        return
    sm = assemble_patchwork(spec)
    assert both_ways(sm) == (w.values, w.values)


def test_stack_pair_needing_a_modulus_inverting_reflection_is_refused():
    t = OctantTopology((1, 1, 1), (-2, -2, 2), -1)
    with pytest.raises(UnsupportedClassError, match="modulus-inverting reflection"):
        select_case(t, epsilon=0.05)


@pytest.mark.parametrize("k, omega_units", [
    ((-20, -20, -20), 239),  # stacks at all three vertices, up to 120 layers
    ((-10**5, -10**5, 10**5), 7),  # the z vertex alone, up to 300001 layers
])
def test_general_sign_class_without_stack_counts_is_refused_at_once(k, omega_units):
    t = OctantTopology((1, 1, 1), k, omega_units)
    start = time.perf_counter()
    with pytest.raises(UnsupportedClassError, match="no stack counts satisfy the coverage identity"):
        select_case(t, epsilon=0.05)
    assert time.perf_counter() - start < 1.0


def test_stack_flip_covers_the_pair_of_sigma_minus():
    # the odd layer of alternating(1, flip) covers sigma_- and sigma_- with
    # its j component flipped, and the even layer of alternating(2, flip)
    # the antipodal pair; there is no flip when sigma_-'s other two
    # components differ
    from octfield.patchwork import _stack_flip
    from octfield.stacks import alternating, stack_degree_table

    for j, axis in enumerate(("x", "y", "z")):
        for sigma in SECTORS:
            flip = _stack_flip(axis, sigma)
            others = [s for i, s in enumerate(sigma) if i != j]
            assert (flip is None) == (others[0] != others[1])
            if flip is None:
                continue
            flipped = tuple(-s if i == j else s for i, s in enumerate(sigma))
            one, two = (stack_degree_table(_standard_stack(alternating(m, flip)), axis)
                        for m in (1, 2))
            assert {sec: v for sec, v in one.items() if v} == {sigma: -1, flipped: -1}
            even = {sec: two[sec] - one[sec] for sec in SECTORS if two[sec] != one[sec]}
            assert even == {tuple(-s for s in sigma): 1, tuple(-s for s in flipped): 1}


_ORACLE_MOST_LAYERS = 48  # sum|w| <= 73 in the drawn classes, plus up to 16


def _first_split(w, flips, expected):
    """The split enumeration the general-sign solve replaced, kept as its
    oracle: with the standard stack of each vertex's flip (none where the
    flip is None), stack counts M are tried by total, then lex, up to
    expected/2 layers in all; the first whose bulk is one-signed, has
    sum|w0| + 2 sum M = expected and the edge signs (-1)^M wins.  None when
    no counts qualify.  Totals above 2 _ORACLE_MOST_LAYERS + 1 are out of the
    oracle's reach."""
    from octfield.stacks import alternating, stack_degree_table
    from octfield.topology import InvalidWrappingError, WrappingNumbers, invariants_from_wrapping

    budget = expected // 2
    assert budget <= _ORACLE_MOST_LAYERS, "out of the oracle's reach"
    tables = [np.array([(0,) * 8] + [
        list(stack_degree_table(_standard_stack(alternating(m, flip)), axis).values())
        for m in range(1, budget + 1 if flip is not None else 1)])
        for axis, flip in zip(("x", "y", "z"), flips)]
    M = np.indices([len(table) for table in tables]).reshape(3, -1).T
    M = M[M.sum(axis=1) <= budget]
    M = M[np.lexsort((M[:, 2], M[:, 1], M[:, 0], M.sum(axis=1)))]
    w0 = np.array(w.values) - sum(table[M[:, j]] for j, table in enumerate(tables))
    qualifies = (((w0 >= 0).all(axis=1) | (w0 <= 0).all(axis=1))
                 & (np.abs(w0).sum(axis=1) + 2 * M.sum(axis=1) == expected))
    for m, bulk in zip(M[qualifies], w0[qualifies]):
        try:
            h0 = invariants_from_wrapping(WrappingNumbers(tuple(bulk)))
        except InvalidWrappingError:
            continue
        if h0.e == tuple(-1 if v % 2 else 1 for v in m):
            return tuple(int(v) for v in m)
    return None


def _split_search(t):
    """The general-sign recipe by enumeration: for each candidate sigma_-
    (the sector of signs opposite to the kinks', then sigma_- when it is
    antipodal to sigma_+), every vertex takes the standard stack of
    ``_stack_flip``, and the first candidate with qualifying counts wins.
    Returns (M, flips), or None when no candidate has counts."""
    from octfield.patchwork import _stack_flip

    w = wrapping_from_invariants(t)
    c = classify(w, t)
    candidates = []
    if all(v != 0 for v in t.k):
        candidates.append(tuple(-1 if v > 0 else 1 for v in t.k))
    if tuple(-s for s in c.sigma_minus) == c.sigma_plus and c.sigma_minus not in candidates:
        candidates.append(c.sigma_minus)
    # the two candidates never meet, so the recipe makes one choice
    assert len(candidates) <= 1
    for sigma_minus in candidates:
        flips = [_stack_flip(axis, sigma_minus) for axis in ("x", "y", "z")]
        M = _first_split(w, flips, w.total_absolute() + delta_invariant(w, c))
        if M is not None:
            return M, flips
    return None


@st.composite
def general_sign_classes(draw):
    """Nonconformal (+,+,+) classes outside the tabulated branch, with
    |k_j| <= 6 and |omega_units| <= 120."""
    k = draw(st.tuples(*[st.integers(-6, 6)] * 3))
    assume(not 0 < k[0] <= k[1] <= k[2])
    residue = (4 * sum(k) - 1) % 8
    t = OctantTopology((1, 1, 1), k, residue + 8 * draw(st.integers(-15, 14)))
    assume(classify(wrapping_from_invariants(t), t).kind == "nonconformal")
    return t


@settings(max_examples=300, deadline=None)
@given(general_sign_classes())
@example(OctantTopology((1, 1, 1), (2, 1, 1), -1))
@example(OctantTopology((1, 1, 1), (-2, -2, 2), -1))
def test_general_sign_solve_matches_the_split_enumeration(t):
    from octfield.stacks import alternating

    found = _split_search(t)
    if found is None:
        with pytest.raises(UnsupportedClassError, match="no stack counts satisfy the coverage identity"):
            select_case(t, epsilon=0.05)
        return
    M, flips = found
    spec = select_case(t, epsilon=0.05)
    assert spec.case_id == "general-sign" and spec.M == M
    for axis, m, flip in zip(("x", "y", "z"), M, flips):
        if m:
            assert spec.stacks[axis].covers == alternating(m, flip)


@settings(max_examples=300, deadline=None)
@given(general_sign_classes(), st.sampled_from(SECTORS), st.integers(0, 16))
def test_least_stack_counts_is_the_first_split_for_any_pair_and_total(t, sigma_minus, excess):
    # any sigma_- and any coverage total from sum|w| up, not only the
    # class's own: the solve returns the enumeration's first split
    from octfield.patchwork import _least_stack_counts, _stack_flip

    w = wrapping_from_invariants(t)
    flips = [_stack_flip(axis, sigma_minus) for axis in ("x", "y", "z")]
    expected = w.total_absolute() + excess
    assert _least_stack_counts(w, sigma_minus, flips, expected) == _first_split(w, flips, expected)


def test_general_sign_solve_reaches_counts_deep_in_the_split_order():
    # 109,736 splits precede its M in (total, lex) order, beyond what an
    # enumeration can try for every class
    t = OctantTopology((1, 1, 1), (55, 42, 5), -57)
    spec = select_case(t, epsilon=0.05)
    assert spec.case_id == "general-sign" and spec.M == (0, 4, 82)
    assert spec.H0 == OctantTopology((1, 1, 1), (12, 1, 3), -57)
    assert spec.stacks["y"].covers[:2] == spec.stacks["z"].covers[:2] == ((-1, -1), (1, 1))


def test_trivial_patchwork_is_bulk_everywhere():
    # all M_j = 0: the map equals its rational bulk on all of Q
    bulk_class = OctantTopology((1, 1, 1), (0, 0, 0), -1)
    spec = PatchworkSpec(target=bulk_class, case_id="trivial", epsilon=0.05, stacks={})
    assert spec.H0 == bulk_class and spec.M == (0, 0, 0)
    sm = assemble_patchwork(spec)
    rng = np.random.default_rng(8)
    w = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(1j * rng.uniform(0, np.pi / 2, 200))
    bulk = realize(bulk_class)
    np.testing.assert_allclose(sm.evaluate(w), evaluate_rational(bulk, w), rtol=1e-12)


def test_seam_continuity_worked_example():
    spec = select_case(WORKED, epsilon=0.05)
    sm = assemble_patchwork(spec)
    for axis, st in spec.stacks.items():
        for radius in [piece[3] for piece in st.pieces()] + [2 * spec.epsilon]:
            phis = np.linspace(0.01, np.pi / 2 - 0.01, 333)
            w_in = relocate(axis, radius * (1 - 1e-9) * np.exp(1j * phis))
            w_out = relocate(axis, radius * (1 + 1e-9) * np.exp(1j * phis))
            jump = chordal_distance(sm.evaluate(w_in), sm.evaluate(w_out))
            assert float(np.max(jump)) < 1e-6


def test_boundary_conditions_worked_example():
    sm = assemble_patchwork(select_case(WORKED, epsilon=0.05))
    assert boundary_residual(sm) < 1e-9


def test_variant_stacks_seams_and_boundary():
    # the special tabulated case: stacks with antidiagonal layers
    spec = select_case(_class((1, 1, 3), 1), epsilon=0.05)
    sm = assemble_patchwork(spec)
    assert boundary_residual(sm) < 1e-9
    for axis, st in spec.stacks.items():
        for radius in [piece[3] for piece in st.pieces()] + [2 * spec.epsilon]:
            phis = np.linspace(0.01, np.pi / 2 - 0.01, 111)
            w_in = relocate(axis, radius * (1 - 1e-9) * np.exp(1j * phis))
            w_out = relocate(axis, radius * (1 + 1e-9) * np.exp(1j * phis))
            jump = chordal_distance(sm.evaluate(w_in), sm.evaluate(w_out))
            assert float(np.max(jump)) < 1e-6, (axis, radius)


def test_single_stack_triangulated_degrees_match_windings():
    # one single-stack class per vertex: the count over the signed regions
    # (bulk, minus the cut disc, plus stack and collar) must give the signed
    # degrees d = -w and the sharp total sum D = sum|w| + Delta
    from octfield.numerics import degree_count
    from octfield.topology import SECTORS

    for k, omega_units, axis in (
        ((2, 2, 2), 15, "x"),
        ((-2, 1, -2), 3, "y"),
        ((-2, -2, 1), -13, "z"),
    ):
        t = OctantTopology((1, 1, 1), k, omega_units)
        w = wrapping_from_invariants(t)
        spec = select_case(t, epsilon=0.05)
        assert list(spec.stacks) == [axis]
        rep = degree_count(assemble_patchwork(spec), level=2)
        for sector in SECTORS:
            assert -rep[sector].d == w[sector], (k, sector)
            assert rep[sector].confident, (k, sector)
        assert rep.unsigned_total() == w.total_absolute() + delta_invariant(w, classify(w, t))


@pytest.mark.parametrize("t", [
    WORKED,
    OctantTopology((1, 1, 1), (2, 2, 2), -1),  # three stacks
    OctantTopology((1, 1, 1), (1, 2, 3), -9),  # the bulk quadrature's largest error
])
def test_closed_form_bulk_totals_match_the_whole_map_quadrature(t):
    # the assembled map with its bulk in closed form against the same map
    # with the bulk on a grid: energies within the bulk's quadrature error,
    # the same snapped trapped area and, wherever both are counted, the same
    # degrees
    from octfield.numerics import MeshUnavailableError, degree_count

    from octfield.rational import ChartRational

    spec = select_case(t, epsilon=0.05)
    sm = assemble_patchwork(spec)
    bulk = realize(spec.H0, stacked=tuple(spec.stacks))
    assert sm.regions[0].evaluate == ChartRational(bulk, "z")
    whole = gridded(sm, "bulk")
    assert dirichlet_energy(sm, level=2) == pytest.approx(
        dirichlet_energy(whole, level=2), rel=5e-3)
    assert trapped_area(sm, level=2)[0] == trapped_area(whole, level=2)[0]
    try:
        counted = degree_count(whole, level=2)
    except MeshUnavailableError:
        with pytest.raises(MeshUnavailableError):
            degree_count(sm, level=2)
        return
    closed = degree_count(sm, level=2)
    for sector, entry in counted.by_sector.items():
        assert (closed[sector].d, closed[sector].D) == (entry.d, entry.D), sector


def test_assembled_bulk_builds_no_grid(monkeypatch):
    import octfield.numerics as numerics

    built = []
    real = numerics.build_grids
    monkeypatch.setattr(numerics, "build_grids",
                        lambda regions, level: built.extend(r.name for r in regions)
                        or real(regions, level))
    sm = assemble_patchwork(select_case(WORKED, epsilon=0.05))
    dirichlet_energy(sm, level=1)
    trapped_area(sm, level=1)
    numerics.degree_count(sm, level=1)
    assert built and "bulk" not in built


SWEEP_K3 = [(k, n) for k in itertools.combinations_with_replacement((1, 2, 3), 3)
            for n in range(1, sum(k) - 1)]


@pytest.mark.parametrize("k, n", SWEEP_K3, ids=[f"k={k}-n={n}" for k, n in SWEEP_K3])
def test_region_counts_are_the_boundary_windings_on_the_sweep_grid(k, n):
    # verify reads the wrapping numbers from the regions' signed counts; the
    # boundary windings, which share no grid, mesh or preimage with them,
    # measure the same numbers on all 40 classes of the kmax-3 sweep
    t = _class(k, n)
    sm = assemble_patchwork(select_case(t, epsilon=0.05))
    w = wrapping_from_invariants(t).values
    assert both_ways(sm, level=2) == (w, w)


def test_worked_example_wrapping_and_energy():
    sm = assemble_patchwork(select_case(WORKED, epsilon=0.05))
    w = wrapping_from_invariants(WORKED)
    assert both_ways(sm, level=3) == (w.values, w.values)
    energy = dirichlet_energy(sm, level=3)
    assert abs(energy - 7 * math.pi) / (7 * math.pi) < 0.05


def test_worked_example_preimage_counts_and_lemma1():
    from octfield.numerics import degree_count, lemma1_lower_bound

    sm = assemble_patchwork(select_case(WORKED, epsilon=0.05))
    rep = degree_count(sm, level=3)
    # seven preimages distributed per the tabulated construction: the doubled
    # sector sits at (+--), the x-vertex stack's conformal pair
    assert rep.unsigned_total() == 7
    assert rep[(1, -1, -1)].D == 2
    assert lemma1_lower_bound(rep) <= dirichlet_energy(sm, level=3) + 0.05


def test_epsilon_refinement_shrinks_gap():
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        sm = assemble_patchwork(select_case(WORKED, epsilon=eps))
        gaps.append(abs(dirichlet_energy(sm, level=2) - 7 * math.pi))
    assert gaps[0] > gaps[1] > gaps[2]


def test_subdomain_tags():
    spec = select_case(WORKED, epsilon=0.05)
    sm = assemble_patchwork(spec)
    probe = [
        0.3 + 0.3j,                    # bulk
        relocate("x", 0.01 + 0.005j),  # inside the x stack
        relocate("x", 0.07 + 0.02j),   # collar
    ]
    tags = sm.subdomain_tags(np.array(probe))
    assert tags[0] == "bulk"
    assert tags[1].startswith("annulus(x,")
    assert tags[2] == "switch(x)"


def test_identity_and_rational_map_wrappers():
    im = identity_map()
    assert im.evaluate(0.5 + 0.1j) == 0.5 + 0.1j
    rm = rational_map(RationalMapSpec(m=1))
    assert complex(rm.evaluate(np.array([0.5 + 0.0j]))[0]) == pytest.approx(0.125)


@pytest.mark.parametrize("M", [(3, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)])
@pytest.mark.parametrize("restack", [False, True])
def test_verifier_rejects_tampered_tabulated_spec(M, restack):
    # a spec is its stacks, so M cannot be changed alone.  Stacks rebuilt to
    # (3,0,0) or (1,1,0) leave a bulk class that fails the verification
    # identities; (2,0,0) and (0,1,0) leave a consistent one, another
    # construction of the worked example
    from octfield.patchwork import _build_stacks, _verify_spec

    spec = select_case(WORKED, epsilon=0.05)
    if not restack:
        with pytest.raises(TypeError):
            dataclasses.replace(spec, M=M)
        return
    w = wrapping_from_invariants(WORKED)
    c = classify(w, WORKED)
    restacked = dataclasses.replace(spec, stacks=_build_stacks(spec.case_id, M, 0.05, WORKED.k, 1))
    assert restacked.M == M
    if M in ((3, 0, 0), (1, 1, 0)):
        with pytest.raises(InternalConsistencyError):
            _verify_spec(restacked, w, c)
        return
    _verify_spec(restacked, w, c)
    sm = assemble_patchwork(restacked)
    assert both_ways(sm) == (w.values, w.values)


def test_verifier_rejects_tampered_general_sign_spec():
    from octfield.patchwork import _verify_spec
    from octfield.stacks import alternating

    t = OctantTopology((1, 1, 1), (2, 1, 1), 8 * 1 + 7 - 16)
    spec = select_case(t, epsilon=0.05)
    assert spec.case_id == "general-sign" and spec.M == (0, 1, 1)
    w = wrapping_from_invariants(t)
    c = classify(w, t)
    _verify_spec(spec, w, c)
    # the z stack flipped (its bulk is not one-signed), or one of three
    # layers (the coverage identity fails)
    for covers in (alternating(1, -1), alternating(3)):
        tampered = dataclasses.replace(spec, stacks={**spec.stacks, "z": _standard_stack(covers)})
        with pytest.raises(InternalConsistencyError):
            _verify_spec(tampered, w, c)


def test_region_evaluators_match_map_off_the_seams():
    # every positive charted region (stack layer, interpolant, collar) takes
    # chart points u of its vertex; off the seams it must give the assembled
    # map's value at relocate(axis, u)
    rng = np.random.default_rng(11)
    three_layers = OctantTopology((1, 1, 1), (2, 2, 2), 7)
    for topology in (WORKED, three_layers):
        spec = select_case(topology, epsilon=0.05)
        sm = assemble_patchwork(spec)
        (axis,) = spec.stacks
        charted = [region for region in sm.regions
                   if region.chart is not None and region.weight > 0]
        assert charted[-1].name == f"switch({axis})"
        seams = np.array(sorted({r.r_hi for r in charted}))
        for region in charted:
            # the rotation to the vertex chart rounds radii below about 1e-7
            # (pieces there are probed on chart points by the tiling test)
            if region.r_hi <= 1e-7:
                continue
            lo = max(region.r_lo, 1e-7)
            r = np.concatenate([np.geomspace(lo, region.r_hi, 300),
                                rng.uniform(lo, region.r_hi, 300)])
            keep = np.all(np.abs(r[:, None] / seams[None, :] - 1) > 1e-6, axis=1)
            u = r[keep] * np.exp(1j * rng.uniform(0.01, np.pi / 2 - 0.01, keep.sum()))
            jump = chordal_distance(region.evaluate(u), sm.evaluate(relocate(axis, u)))
            assert float(np.max(jump)) < 1e-9, region.name


def _collar_formula(bulk_spec, axis, stack, epsilon, u):
    """The collar written out on its own: the top layer g and the bulk f in
    the vertex chart, blended with s = (|u| - eps) / eps, reciprocally for
    an odd top and linearly for an even one."""
    u = np.asarray(u, dtype=complex)
    g = stack.layer_value(stack.layers, u)
    f = relocate_inverse(axis, evaluate_rational(bulk_spec, relocate(axis, u)))
    s = (np.abs(u) - epsilon) / epsilon
    if stack.layers % 2 == 0:
        return (1 - s) * g + s * f
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = (1 - s) / g + s / f
        out = 1.0 / inv
    out = np.where(inv == 0, np.inf + 0j, out)
    out = np.where(s == 0, g, out)
    return np.where(s == 1, f, out)


def test_each_stacked_vertex_has_one_cut_disc_and_the_collar_is_its_switch():
    # on the kmax-3 sweep: one negative region per stacked vertex, the whole
    # chart disc [0, 2 eps] carrying the bulk in that vertex's chart, and a
    # collar equal to the written-out formula to the last bit
    from octfield.rational import ChartRational

    rng = np.random.default_rng(23)
    for k in itertools.combinations_with_replacement(range(1, 4), 3):
        for n in range(1, sum(k) - 1):
            spec = select_case(_class(k, n), epsilon=0.05)
            sm = assemble_patchwork(spec)
            bulk_spec = sm.regions[0].evaluate.spec
            negative = [region for region in sm.regions if region.weight < 0]
            assert [region.name for region in negative] == [f"cut({a})" for a in spec.stacks]
            for axis, stack in spec.stacks.items():
                disc, = [region for region in negative if region.name == f"cut({axis})"]
                assert (disc.r_lo, disc.r_hi) == (0.0, 2 * spec.epsilon)
                assert disc.evaluate == ChartRational(bulk_spec, axis)
                collar, = [region for region in sm.regions if region.name == f"switch({axis})"]
                r = spec.epsilon * rng.uniform(1 + 1e-6, 2 - 1e-6, 200)
                u = r * np.exp(1j * rng.uniform(0.01, np.pi / 2 - 0.01, 200))
                expected = relocate(axis, _collar_formula(bulk_spec, axis, stack,
                                                          spec.epsilon, u))
                assert np.array_equal(collar.evaluate(u), expected), (k, n, axis)


def test_pieces_tile_the_vertex_disc_and_own_their_outer_edges():
    # a three-layer stack: its pieces and the collar tile [0, 2 eps] without
    # gap or overlap.  A point on a piece boundary r takes the inner piece's
    # value and tag, a point at r (1 + 1e-12) the outer piece's
    spec = select_case(OctantTopology((1, 1, 1), (2, 2, 2), 7), epsilon=0.05)
    assert spec.M == (3, 0, 0)
    sm = assemble_patchwork(spec)
    pieces = [region for region in sm.regions if region.chart is not None and region.weight > 0]
    assert [piece.name for piece in pieces] == [
        "annulus(x,1)", "interp(x,1)", "annulus(x,2)", "interp(x,2)", "annulus(x,3)",
        "switch(x)",
    ]
    assert pieces[0].r_lo == 0.0 and pieces[-1].r_hi == 2 * spec.epsilon
    # the rotation to the vertex chart rounds radii near the vertex, so the
    # boundaries are probed on chart points directly: the same regions with
    # the identity chart
    charted = SampledMap([dataclasses.replace(region, chart=None) for region in sm.regions])
    probes = [(0.0, pieces[0])]  # the innermost annulus is closed at r = 0
    for inner, outer in zip(pieces, pieces[1:]):
        assert inner.r_hi == outer.r_lo
        probes += [(inner.r_hi, inner), (inner.r_hi * (1 + 1e-12), outer)]
    for r, owner in probes:
        u = np.array([r + 0j])
        assert list(charted.subdomain_tags(u)) == [owner.name], (owner.name, r)
        assert charted.evaluate(u)[0] == owner.evaluate(u)[0], (owner.name, r)
    # inside each piece the map takes the piece's value at the chart point
    for piece in pieces:
        r = piece.r_hi / 2 if piece.r_lo == 0 else math.sqrt(piece.r_lo * piece.r_hi)
        w = relocate("x", np.array([r * np.exp(0.7j)]))
        assert list(sm.subdomain_tags(w)) == [piece.name]
        assert sm.evaluate(w)[0] == piece.evaluate(relocate_inverse("x", w))[0]


@pytest.mark.parametrize("t, paths", [
    (WORKED, 2),  # M = (1, 0, 0): epsilon and 2 epsilon at x
    (OctantTopology((1, 1, 1), (1, 2, 2), 3), 4),  # M = (1, 1, 0): the same at x and y
], ids=["worked", "two-stacks"])
def test_domain_svg_draws_one_seam_path_per_radius(t, paths):
    # the seams are read from the regions: per stacked vertex, the outer rim
    # of each piece, the last one the collar's, which meets the cut disc
    from octfield.reports import domain_svg

    spec = select_case(t, epsilon=0.05)
    sm = assemble_patchwork(spec)
    seams = [line for line in domain_svg(sm).splitlines() if 'stroke-width="0.4"' in line]
    assert len(seams) == len(set(seams)) == paths
    listing = {axis: ([piece.name for piece in pieces], cut.name)
               for axis, (pieces, cut) in sm.seams().items()}
    assert listing == {axis: ([f"annulus({axis},1)", f"switch({axis})"], f"cut({axis})")
                       for axis in spec.stacks}
    assert 'stroke-width="0.4"' not in domain_svg(identity_map())
    assert rational_map(RationalMapSpec()).seams() == {}


def test_worked_example_energy_at_tiny_epsilon():
    # at epsilon = 1e-4 the single stack's layer ratio is epsilon^3, so its
    # layer reaches unit modulus at 1e-6 of its outer radius; the quadrature
    # must still resolve it (a floor at 1e-4 of the radius lost about 2 pi)
    sm = assemble_patchwork(select_case(WORKED, epsilon=1e-4))
    energy = dirichlet_energy(sm, level=2)
    assert abs(energy - 7 * math.pi) / (7 * math.pi) < 0.005
