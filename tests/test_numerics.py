import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octfield.numerics import (
    Region,
    boundary_residual,
    build_grids,
    degree_count,
    dirichlet_energy,
    lemma1_lower_bound,
    trapped_area,
)
from octfield.patchwork import SampledMap, identity_map, rational_map
from octfield.rational import ChartRational, RationalMapSpec, realize
from octfield.topology import SECTORS, OctantTopology, wrapping_from_invariants


def _gridded(spec):
    """The rational map of spec with its one region on a grid: the
    quadrature that ``rational_map``'s closed form is held to."""
    (bulk,) = rational_map(spec).regions
    return SampledMap([dataclasses.replace(bulk, rational=None)], spec)


def _layer_energy_exact(eps):
    return 2 * math.pi * (1 - 4 * eps**2) / ((1 + eps) * (1 + 4 * eps))


def test_identity_energy_is_pi():
    E = dirichlet_energy(identity_map(), level=3)
    assert abs(E - math.pi) / math.pi < 0.005


def test_quarter_sphere_layer_closed_form():
    from octfield.stacks import QuarterSphereStack, alternating

    for eps in (0.1, 0.05):
        st = QuarterSphereStack(alternating(2), eps)
        region = Region(
            "layer2",
            lambda u, s=st: s.layer_value(2, u),
            2 * st.radius(1),
            st.radius(2),
            "log",
        )
        sm = SampledMap([region])
        E = dirichlet_energy(sm, level=3)
        assert abs(E - _layer_energy_exact(eps)) / _layer_energy_exact(eps) < 0.005


def test_conformal_representative_energy_matches_coverage():
    t = OctantTopology((1, 1, 1), (0, 0, -1), -5)
    w = wrapping_from_invariants(t)
    sm = _gridded(realize(t))
    E = dirichlet_energy(sm, level=3)
    assert abs(E - w.total_absolute() * math.pi) / (w.total_absolute() * math.pi) < 0.02


def test_identity_degree_report():
    rep = degree_count(identity_map(), level=3)
    assert rep[(1, 1, 1)].d == 1
    assert rep[(1, 1, 1)].D == 1
    for s, entry in rep.by_sector.items():
        if s != (1, 1, 1):
            assert entry.d == 0 and entry.D == 0
        assert entry.confident
        assert abs(entry.d) <= entry.D
        assert (entry.d - entry.D) % 2 == 0


def test_lemma1_identity_map():
    rep = degree_count(identity_map(), level=3)
    bound = lemma1_lower_bound(rep)
    E = dirichlet_energy(identity_map(), level=3)
    assert bound == pytest.approx(math.pi)
    assert bound <= E + 0.01


def test_trapped_area_identity():
    omega, residual = trapped_area(identity_map(), level=3)
    assert omega == pytest.approx(-math.pi / 2)
    assert residual < 1e-6


def test_trapped_area_cubic_power():
    sm = _gridded(RationalMapSpec(m=1))
    omega, residual = trapped_area(sm, level=3)
    assert omega == pytest.approx(-3 * math.pi / 2)
    assert residual < 0.01


def test_boundary_residual_identity():
    assert boundary_residual(identity_map()) < 1e-15


def test_boundary_residual_detects_broken_map():
    shifted = lambda w: np.asarray(w, dtype=complex) + 0.1
    broken = SampledMap([Region("bulk", shifted, 0.0, 1.0)])
    residual = boundary_residual(broken)
    assert residual == pytest.approx(0.1, abs=0.02)


def test_grids_respect_seams():
    # the cut disc is one region, [0, 2 eps]: its grid meets the stack's
    # innermost layer at the center and the collar on the 2 eps circle, and
    # the top layer meets the collar on the eps circle, on the same angular
    # lines; the closed-form disc takes its 2 eps rim as the collar's polygon
    from octfield.numerics import _closed_and_grids, _shared_rims
    from octfield.patchwork import assemble_patchwork, select_case

    eps = 0.05
    sm = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (2, 2, 2), 7), eps))
    grids = {grid.region.name: grid for grid in build_grids(sm.regions, 2)}
    cut, top, collar = grids["cut(x)"], grids["annulus(x,3)"], grids["switch(x)"]
    assert cut.r_edges[0] == 0.0 == grids["annulus(x,1)"].r_edges[0]
    assert top.r_edges[-1] == collar.r_edges[0] == eps
    assert cut.r_edges[-1] == collar.r_edges[-1] == 2 * eps
    for grid in (cut, top):
        assert np.array_equal(grid.phi_edges, collar.phi_edges)
    closed, gridded = _closed_and_grids(sm.regions, 2)
    bulk, disc = [region for region in closed if region.rational is not None]
    rims = _shared_rims(disc, gridded)
    assert list(rims) == [2 * eps] and np.array_equal(rims[2 * eps], collar.phi_edges)
    # the bulk's rim, the arc, is shared by no grid
    assert bulk.name == "bulk" and _shared_rims(bulk, gridded) == {}


def test_degree_count_perturbs_near_edge_targets():
    # a target exactly on an image edge must either resolve confidently after
    # perturbation or carry the low-confidence flag
    rep = degree_count(identity_map(), level=2)
    assert all(e.confident for e in rep.by_sector.values())


def test_cut_disc_cancels_the_bulk_coverings_inside_it():
    # the identity with a disc cut out and put back as an inner disc and a
    # collar on the same rim grid: wherever the preimage of the (+++)
    # centroid sits (at the disc center, inside, next to the rim, outside),
    # the weighted counts are the identity's
    from octfield.geometry import sector_centroid, stereographic
    from octfield.numerics import MeshUnavailableError
    from octfield.topology import SECTORS

    identity = identity_map()
    preimage = complex(stereographic(sector_centroid((1, 1, 1))))
    radius, full = 0.05, (0.0, 2 * math.pi)
    for offset in (0.0, 0.01, 0.03, radius * (1 - 1e-6), radius * (1 + 1e-6), 0.07):
        center = preimage - offset * np.exp(0.3j)
        disc = lambda u, c=center: c + np.asarray(u, dtype=complex)
        chart = lambda w, c=center: np.asarray(w, dtype=complex) - c
        cut = Region("cut", disc, 0.0, radius / 2, "log", -1, *full, chart=chart)
        sm = SampledMap([
            *identity.regions, cut,
            Region("cut", disc, radius / 2, radius, "log", -1, *full, chart=chart),
            Region("inner", disc, 0.0, radius / 2, "log", 1, *full, chart=chart),
            Region("collar", disc, radius / 2, radius, "linear", 1, *full, chart=chart),
        ])
        rep = degree_count(sm, level=2)
        for sector, entry in rep.by_sector.items():
            expected = int(sector == (1, 1, 1))
            assert (entry.d, entry.D, entry.confident) == (expected, expected, True), offset
    # a second cut disc is refused
    sm.regions.append(cut)
    with pytest.raises(MeshUnavailableError):
        degree_count(sm, level=1)


@pytest.mark.parametrize("k, n", [((1, 3, 3), 4), ((2, 2, 2), 4)])
def test_patchwork_bulk_energy_at_level_two(k, n):
    # the bulk of a patchwork is conformal or anticonformal, so its energy is
    # exactly sum |w0| pi; at grid level 2 the quadrature must get it within
    # 0.4%, well below the construction's energy gaps, so that those gaps
    # shrink under epsilon refinement instead of crossing zero
    from octfield.patchwork import select_case

    spec = select_case(OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * sum(k)), 0.05)
    bulk = realize(spec.H0, stacked=tuple(spec.stacks))
    exact = wrapping_from_invariants(spec.H0).total_absolute() * math.pi
    E = dirichlet_energy(_gridded(bulk), level=2)
    assert abs(E - exact) / exact < 0.004


def test_a_map_of_closed_form_regions_builds_no_grid(monkeypatch):
    import octfield.numerics as numerics

    identity = identity_map()
    reference = degree_count(identity, level=2)
    built = []
    real = numerics.build_grids
    monkeypatch.setattr(numerics, "build_grids",
                        lambda regions, level: built.extend(regions) or real(regions, level))
    closed = rational_map(RationalMapSpec())  # f(w) = w, in closed form
    rep = degree_count(closed, level=2)
    for sector, entry in reference.by_sector.items():
        assert (rep[sector].d, rep[sector].D, rep[sector].confident) == (
            entry.d, entry.D, entry.confident)
    assert trapped_area(closed, level=2) == (-math.pi / 2, 0.0)
    assert dirichlet_energy(closed, level=2) == math.pi
    assert not built


@pytest.mark.parametrize("t", [
    OctantTopology((1, 1, 1), (0, 0, -1), -5),  # conformal
    OctantTopology((1, 1, 1), (0, 0, 0), -1),  # conformal, the identity's class
    OctantTopology((-1, 1, 1), (1, 0, 0), 5),  # anticonformal
    OctantTopology((1, 1, 1), (1, 1, 1), 11),  # anticonformal
])
def test_closed_form_region_is_the_quadrature_of_its_rational_map(t):
    # pins the closed form's sign conventions: a conformal map (w <= 0)
    # covers each sector -w times positively, an anticonformal one w times
    # negatively, and its raw trapped area is (pi/2) sum w
    w = wrapping_from_invariants(t).values
    spec = realize(t)
    quadrature, closed = _gridded(spec), rational_map(spec)
    assert closed.regions[0].rational == ChartRational(spec, "z")
    counted, exact = degree_count(quadrature, level=2), degree_count(closed, level=2)
    for sector, v in zip(SECTORS, w):
        assert (counted[sector].d, counted[sector].D) == (-v, abs(v)), sector
        assert (exact[sector].d, exact[sector].D) == (-v, abs(v)), sector
    assert trapped_area(closed, level=2) == (math.pi / 2 * sum(w), 0.0)
    assert trapped_area(closed, level=2)[0] == trapped_area(quadrature, level=2)[0]
    assert dirichlet_energy(closed, level=2) == math.pi * sum(map(abs, w))
    assert dirichlet_energy(closed, level=2) == pytest.approx(
        dirichlet_energy(quadrature, level=2), rel=5e-3)


def test_quadratic_rule_integrates_quadratics_on_ladders():
    from octfield.numerics import _quadratic_weights

    edges = np.concatenate([[0.0], np.geomspace(1e-3, 0.4, 9), np.linspace(0.5, 1.0, 4)])
    nodes = 0.5 * (edges[:-1] + edges[1:])
    weights = _quadratic_weights(edges, nodes)
    assert weights @ (3 * nodes**2 - nodes + 2) == pytest.approx(1 - 0.5 + 2, rel=1e-12)
    # a seam splits the rule into two regions, each integrated on its own
    step = np.where(nodes < edges[5], nodes**2, 1 + nodes)
    split = (_quadratic_weights(edges[:6], nodes[:5]) @ step[:5]
             + _quadratic_weights(edges[5:], nodes[5:]) @ step[5:])
    exact = edges[5] ** 3 / 3 + (1 - edges[5]) + (1 - edges[5] ** 2) / 2
    assert split == pytest.approx(exact, rel=1e-12)


_VECTOR = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3)


def _unit(v):
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    assume(norm > 0.1)
    return v / norm


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_VECTOR, _VECTOR, _VECTOR), min_size=1, max_size=12), _VECTOR)
def test_containment_matches_barycentric_reference(triangles, target):
    # p lies in the spherical triangle (a, b, c) exactly when
    # p = alpha a + beta b + gamma c with alpha, beta, gamma > 0; the covering
    # counts +1 for det(a, b, c) > 0 and -1 for det < 0.  Every triangle, in
    # both orientations, is the first and then the second triangle of a
    # one-cell mesh whose other triangle is degenerate and so dropped
    from octfield.geometry import stereographic
    from octfield.numerics import _ImageMesh

    projected = stereographic(np.array([[_unit(v) for v in t] for t in triangles]))
    for x, y, z in projected:
        for a, b, c in ((x, y, z), (x, z, y)):
            # cell values [[P00, P01], [P10, P11]] and the kept triangle's corners
            for cell, corners in (
                ([[a, c], [b, c]], ((0, 0), (1, 0), (1, 1))),  # first: (a, b, c)
                ([[a, c], [a, b]], ((0, 0), (1, 1), (0, 1))),  # second: (a, b, c)
            ):
                mesh = _ImageMesh(np.array(cell))
                va, vb, vc = (mesh.vertices[:, i, j] for i, j in corners)
                count = mesh.covering()
                for p in (_unit(target), _unit(va + vb + vc)):
                    m = np.column_stack([va, vb, vc])
                    det = np.linalg.det(m)
                    if abs(det) < 1e-6:
                        continue
                    coeffs = np.linalg.solve(m, p)
                    if np.min(np.abs(coeffs)) * abs(det) < 1e-6:
                        continue  # within tolerance of an edge plane
                    inside = bool(np.all(coeffs > 0))
                    assert count(p[:, None]).tolist() == [
                        [int(inside and det > 0), int(inside and det < 0), 0]]


def _reference_triangles(values):
    """Per-triangle copies of the image mesh, with the degenerate drop."""
    from octfield.geometry import stereographic_inverse

    pts = stereographic_inverse(values)
    a, b, c, d = pts[:-1, :-1], pts[1:, :-1], pts[1:, 1:], pts[:-1, 1:]
    va = np.vstack((a.reshape(-1, 3), a.reshape(-1, 3)))
    vb = np.vstack((b.reshape(-1, 3), c.reshape(-1, 3)))
    vc = np.vstack((c.reshape(-1, 3), d.reshape(-1, 3)))
    keep = np.linalg.norm(np.cross(vb - va, vc - va), axis=1) > 1e-18
    return va[keep], vb[keep], vc[keep]


def _reference_area(va, vb, vc):
    triple = np.einsum("ij,ij->i", va, np.cross(vb, vc))
    denom = (
        1.0
        + np.einsum("ij,ij->i", va, vb)
        + np.einsum("ij,ij->i", vb, vc)
        + np.einsum("ij,ij->i", vc, va)
    )
    signed = 2.0 * np.arctan2(triple, denom)
    signed[(triple == 0) & (denom <= 0)] = 0.0
    return float(np.sum(signed))


def _reference_counts(va, vb, vc, p, tol=1e-10):
    n1, n2, n3 = np.cross(va, vb), np.cross(vb, vc), np.cross(vc, va)
    ccw = np.einsum("ij,ij->i", n1, vc) > 0
    d1, d2, d3 = (np.einsum("ij,j->i", n, p) for n in (n1, n2, n3))
    pos = (d1 > tol) & (d2 > tol) & (d3 > tol) & ccw
    neg = (d1 < -tol) & (d2 < -tol) & (d3 < -tol) & ~ccw
    near_pos = (d1 > -tol) & (d2 > -tol) & (d3 > -tol) & ccw & ~pos
    near_neg = (d1 < tol) & (d2 < tol) & (d3 < tol) & ~ccw & ~neg
    return int(pos.sum()), int(neg.sum()), int((near_pos | near_neg).sum())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
    st.booleans(), st.booleans(), st.booleans(), st.integers(0, 4),
)
def test_shared_edge_mesh_matches_per_triangle_reference(
    seed, nr, nphi, collapsed, coarse, mirrored, poles
):
    # the shared-edge kernel against the per-triangle formulas it replaced:
    # np.cross normals, einsum dot products and the degenerate drop.  Counts
    # must agree exactly, all targets through the mesh at once, and the
    # signed area bit for bit (up to the sign of an exactly zero sum)
    from octfield.geometry import sector_centroid
    from octfield.numerics import _ImageMesh
    from octfield.topology import SECTORS

    rng = np.random.default_rng(seed)
    shape = (nr + 1, nphi + 1)
    if coarse:  # a few lattice values: coincident vertices and collinear edges
        values = (rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)) / 2
    else:
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        values *= 10.0 ** rng.uniform(-3, 3, shape)
    if collapsed:  # the r = 0 row of a polar grid
        values[0] = values[0, 0]
    values.flat[rng.integers(0, values.size, poles)] = np.inf  # the south pole
    if mirrored:  # the opposite orientation
        values = np.conj(values)

    mesh = _ImageMesh(values)
    va, vb, vc = _reference_triangles(values)
    assert mesh.signed_area() == _reference_area(va, vb, vc)
    count = mesh.covering()
    targets = [sector_centroid(s) for s in SECTORS] + [np.array([0.0, 0.0, -1.0])]
    targets += [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
    targets += list(mesh.vertices[:, rng.integers(0, nr + 1), :].T)  # on image edges
    assert [tuple(row) for row in count(np.column_stack(targets)).tolist()] == [
        _reference_counts(va, vb, vc, p) for p in targets]


def _chart_steps_reference(values, target, reference):
    """Argument steps of one target, as computed one target at a time."""
    z = np.asarray(values, dtype=complex)
    finite = np.isfinite(z)
    zf = np.where(finite, z, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        chart = np.where(finite, (zf - complex(target)) / (zf - complex(reference)), 1.0 + 0j)
    args = np.angle(chart)
    d = np.diff(np.concatenate([args, args[:1]]))
    return np.where(d >= math.pi, d - 2 * math.pi, np.where(d < -math.pi, d + 2 * math.pi, d))


def test_argument_steps_are_half_open_and_equal_the_remainder_form():
    # the steps lie in [-pi, pi), as the float remainder puts them, and
    # differ from it by rounding only
    from octfield.numerics import _steps

    rng = np.random.default_rng(7)
    args = rng.uniform(-math.pi, math.pi, size=(8, 400))
    args[:, ::9], args[:, 4::9] = math.pi, -math.pi
    steps = _steps(args)
    d = np.diff(args, axis=1, append=args[:, :1])
    assert steps.min() >= -math.pi and steps.max() < math.pi
    assert np.allclose(steps, (d + math.pi) % (2 * math.pi) - math.pi, rtol=0, atol=1e-14)


def test_argument_steps_of_all_targets_equal_the_per_target_ones():
    from octfield.geometry import sector_centroid_complex
    from octfield.numerics import _arguments, _steps
    from octfield.topology import SECTORS

    rng = np.random.default_rng(5)
    targets = [sector_centroid_complex(s) for s in SECTORS]
    reference = targets[-1]
    loop = np.exp(1j * np.linspace(0.0, 6 * math.pi, 997))
    for values in (3 * loop, loop / 3 + 0.2, rng.normal(size=500) + 1j * rng.normal(size=500)):
        values[::97] = np.inf
        steps = _steps(_arguments(values, targets, reference))
        # the windings sum each row in one call; they must equal each
        # target's own sum bit for bit
        for row, total, target in zip(steps, np.sum(steps, axis=1), targets):
            expected = _chart_steps_reference(values, target, reference)
            assert np.array_equal(row, expected)
            assert float(total) == float(np.sum(expected))


def test_winding_bisection_stops_at_the_point_cap(monkeypatch):
    # a loop that spirals 10^4 times around one target never resolves: the
    # bisection raises before it would pass MAX_BOUNDARY_POINTS
    import octfield.numerics as numerics
    from octfield.geometry import sector_centroid_complex
    from octfield.numerics import IntegrationError, degree_differences_by_winding
    from octfield.topology import SECTORS

    monkeypatch.setattr(numerics, "MAX_BOUNDARY_POINTS", 100)
    targets = [sector_centroid_complex(s) for s in SECTORS]
    evaluated = []

    def curve(p):
        evaluated.append(len(p))
        return targets[0] + 0.01 * np.exp(2j * math.pi * 10**4 * np.asarray(p) / 3)

    seed = np.linspace(0.0, 3.0, 7, endpoint=False)
    with pytest.raises(IntegrationError, match="unresolved at 56 points"):
        degree_differences_by_winding(curve, seed, targets, targets[-1], 3.0)
    assert sum(evaluated) == 56


def test_winding_bisection_evaluates_each_point_once():
    # each bisection evaluates its new midpoints only
    from octfield.geometry import sector_centroid_complex
    from octfield.numerics import degree_differences_by_winding
    from octfield.rational import boundary_points, evaluate_rational
    from octfield.topology import SECTORS

    spec = realize(OctantTopology((1, 1, 1), (0, 0, -1), -5))
    evaluated = []

    def curve(p):
        evaluated.append(np.array(p))
        return evaluate_rational(spec, boundary_points(p))

    targets = [sector_centroid_complex(s) for s in SECTORS]
    reference = targets[-1]
    seed = np.linspace(0.0, 3.0, 7, endpoint=False)
    diffs = degree_differences_by_winding(curve, seed, targets, reference, 3.0)
    points = np.concatenate(evaluated)
    assert len(evaluated) > 2 and len(np.unique(points)) == len(points)
    # d = -w: d(sigma) - d(---) = w(---) - w(sigma)
    w = wrapping_from_invariants(OctantTopology((1, 1, 1), (0, 0, -1), -5))
    assert diffs == [w[(-1, -1, -1)] - w[s] for s in SECTORS]
