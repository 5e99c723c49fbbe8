"""The verification battery evaluates each piece once.

Energy, trapped area and degree counts of one map read one set of grids per
level and one image mesh per grid; the energy stencils, the boundary
residual's three edges, each seam side and all sector targets go through
the map in one call each.  These tests count the calls, check that no map
is served another map's grids, and hold every batched result equal, with
``==``, to the per-piece computation written out here.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest

from octfield import numerics
from octfield.cli import _max_seam_jump
from octfield.geometry import chordal_distance, sector_centroid, stereographic
from octfield.numerics import boundary_residual, degree_count, dirichlet_energy, trapped_area
from octfield.patchwork import SampledMap, assemble_patchwork, identity_map, select_case
from octfield.topology import SECTORS, OctantTopology

WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)
THREE_LAYERS = OctantTopology((1, 1, 1), (2, 2, 2), 7)


def _assembled(t, epsilon=0.05):
    return assemble_patchwork(select_case(t, epsilon=epsilon))


def _is_gridded(region):
    return region.monomial is None and region.rational is None


def _counted(sm, calls):
    """sm with each gridded region's evaluator counting its calls by name."""

    def counting(name, f):
        def evaluate(u):
            calls[name] += 1
            return f(u)

        return evaluate

    regions = [dataclasses.replace(r, evaluate=counting(r.name, r.evaluate))
               if _is_gridded(r) else r for r in sm.regions]
    return SampledMap(regions, sm.metadata)


@pytest.mark.parametrize("t", [WORKED, THREE_LAYERS], ids=["worked", "three-layers"])
def test_each_grid_is_built_and_meshed_once(t, monkeypatch):
    built, meshed, calls = [], [], collections.Counter()
    real_build = numerics.build_grids
    monkeypatch.setattr(numerics, "build_grids",
                        lambda regions, level: built.append(level) or real_build(regions, level))

    class CountedMesh(numerics._ImageMesh):
        def __init__(self, values):
            meshed.append(values.shape)
            super().__init__(values)

    monkeypatch.setattr(numerics, "_ImageMesh", CountedMesh)
    plain = _assembled(t)
    sm = _counted(plain, calls)
    gridded = [r.name for r in sm.regions if _is_gridded(r)]
    assert gridded

    energy = dirichlet_energy(sm, 2)
    # the center and its four stencil points in one call per grid
    assert calls == dict.fromkeys(gridded, 1)
    area = trapped_area(sm, 2)
    degrees = degree_count(sm, 2)
    assert built == [2]
    assert len(meshed) == len(gridded)
    # the mesh's one call at the grid vertices, shared by area and degrees
    assert calls == dict.fromkeys(gridded, 2)
    assert (energy, area, degrees) == (
        dirichlet_energy(plain, 2), trapped_area(plain, 2), degree_count(plain, 2))


def test_no_map_is_served_another_maps_grids():
    def battery(sm):
        return dirichlet_energy(sm, 2), trapped_area(sm, 2), degree_count(sm, 2).as_dict()

    epsilons = (0.05, 0.025)
    alone = {eps: battery(_assembled(WORKED, eps)) for eps in epsilons}
    assert alone[0.05][0] != alone[0.025][0]
    maps = {eps: _assembled(WORKED, eps) for eps in epsilons}
    interleaved = {eps: [] for eps in epsilons}
    for integral in (lambda sm: dirichlet_energy(sm, 2), lambda sm: trapped_area(sm, 2),
                     lambda sm: degree_count(sm, 2).as_dict()):
        for eps in epsilons:
            interleaved[eps].append(integral(maps[eps]))
    assert {eps: tuple(values) for eps, values in interleaved.items()} == alone
    # the same regions in a list of their own are the same map
    again = SampledMap(list(maps[0.05].regions))
    assert battery(again) == alone[0.05]


@pytest.mark.parametrize("t", [WORKED, THREE_LAYERS], ids=["worked", "three-layers"])
def test_boundary_residual_equals_the_per_edge_maximum(t):
    sm = _assembled(t)
    s = (np.arange(1000) + 0.5) / 1000

    def edge(points, violation):
        values = np.asarray(sm.evaluate(points), dtype=complex)
        flip = ~np.isfinite(values) | (np.abs(values) > 1.0)
        return violation(np.where(flip, numerics._reciprocal(values), values)).max()

    reference = max(edge(s + 0j, lambda z: np.abs(z.imag)),
                    edge(np.exp(1j * (math.pi / 2) * s), lambda z: np.abs(np.abs(z) - 1.0)),
                    edge(1j * s, lambda z: np.abs(z.real)))
    assert boundary_residual(sm) == float(reference)


@pytest.mark.parametrize("t", [WORKED, THREE_LAYERS], ids=["worked", "three-layers"])
def test_seam_jump_equals_the_per_seam_maximum(t):
    sm = _assembled(t)
    charts = {}
    for region in sm.regions[1:]:
        charts.setdefault(region.chart, []).append(region)
    worst, seams = 0.0, 0
    for regions in charts.values():
        pieces = sorted((r for r in regions if r.weight > 0), key=lambda r: r.r_lo)
        bulk = next(r for r in regions if r.weight < 0 and r.r_hi == pieces[-1].r_hi)
        for inner, outer in zip(pieces, pieces[1:] + [bulk]):
            u = inner.r_hi * np.exp(1j * np.linspace(inner.phi_lo + 0.01, inner.phi_hi - 0.01, 333))
            jump = chordal_distance(inner.evaluate(u), outer.evaluate(u))
            worst = max(worst, float(np.max(jump)))
            seams += 1
    assert seams == len(sm.regions) - 2
    assert _max_seam_jump(sm) == worst


@pytest.mark.parametrize("make, generators", [
    (lambda: _assembled(WORKED), []),
    (lambda: _assembled(THREE_LAYERS), []),
    # the +++ centroid lies on an image edge of the identity's grid: one retry
    (identity_map, [[20240811, 0]]),
], ids=["worked", "three-layers", "identity"])
def test_degree_count_equals_the_per_sector_count(make, generators, monkeypatch):
    sm = make()
    closed, grids = numerics._closed_and_grids(sm.regions, 2)
    rims = [numerics._shared_rims(r, grids) if r.rational is not None else {} for r in closed]
    counters = [(g.region.weight, g.mesh.covering()) for g in grids]
    expected = {}
    for i, sector in enumerate(SECTORS):
        rng = np.random.default_rng([20240811, i])
        base = sector_centroid(sector)
        for attempt in range(4):
            p = base if attempt == 0 else numerics._perturb_in_sector(base, sector, rng)
            sample = complex(stereographic(p))
            counts = numerics._closed_counts(closed, rims, i, sample)
            for weight, count in counters:
                counts = counts + weight * count(p[:, None])[0]
            if not counts[2]:
                break
        n_pos, n_neg, near = counts.tolist()
        expected[sector] = (n_pos - n_neg, n_pos + n_neg, sample, not near)

    made = []
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or real_rng(seed))
    report = degree_count(sm, 2)
    assert {s: (e.d, e.D, e.sample, e.confident) for s, e in report.by_sector.items()} == expected
    # a sector's stream is made on its first retry only
    assert made == generators
