"""Closed-form cut discs against the quadrature of the same regions.

Each stacked vertex cuts the bulk's disc of chart radius 2 epsilon out of
the map as one region, the bulk rational map in the vertex chart, so
energy, trapped area and degree counts take it from a boundary contour and
the map's preimages (``numerics._chart_area``).  These tests hold the
closed forms to the gridded integrals of the same disc's two pieces inside
and outside epsilon, with the chart rational map stripped
(``gridded.gridded_regions``), on the benchmark's classes:
the kmax-3 sweep at epsilon 0.05 (grid level 2) and the kmax-2 classes at
four epsilons (grid level 3).  On the whole quarter disc the closed form
must give the exact identities of a rational map's wrapping numbers, from
the preimage counts that the bulk region's closed form takes and from the
boundary contour alike.
"""

import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octfield.numerics as numerics
from octfield.geometry import relocate_inverse
from octfield.numerics import (
    IntegrationError,
    Region,
    degree_count,
    dirichlet_energy,
    trapped_area,
)
from octfield.patchwork import SampledMap, assemble_patchwork, select_case
from octfield.rational import ChartRational, realize
from octfield.topology import SECTORS, OctantTopology, wrapping_from_invariants
from gridded import gridded, gridded_regions


def _sweep(kmax):
    return [OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * sum(k))
            for k in itertools.combinations_with_replacement(range(1, kmax + 1), 3)
            for n in range(1, sum(k) - 1)]


CLASSES = ([(t, 0.05, 2) for t in _sweep(3)]
           + [(t, eps, 3) for t in _sweep(2) for eps in (0.05, 0.025, 0.0125, 0.00625)])
# largest gap of a piece's closed-form energy to its quadrature, at least
# twice the largest measured one (1.5e-4 at level 2, 2.5e-7 at level 3)
ENERGY_MARGIN = {2: 3e-4, 3: 1e-6}


@functools.cache
def _assembled(t, epsilon):
    return assemble_patchwork(select_case(t, epsilon=epsilon))


def _discs(sm, axis=None):
    """The cut discs: the subtractive rational regions (the bulk is the
    positive one)."""
    return [region for region in sm.regions if isinstance(region.evaluate, ChartRational)
            and region.weight < 0 and axis in (None, region.evaluate.axis)]


def _pieces(disc):
    """The disc's pieces inside and outside epsilon, half its radius."""
    epsilon = disc.r_hi / 2
    return [dataclasses.replace(disc, r_hi=epsilon), dataclasses.replace(disc, r_lo=epsilon)]


@pytest.mark.parametrize("t, epsilon, level", CLASSES, ids=[
    f"k={t.k} omega={t.omega_units} eps={eps}" for t, eps, _ in CLASSES])
def test_cut_disc_closed_forms_equal_their_quadrature(t, epsilon, level):
    sm = _assembled(t, epsilon)
    discs = _discs(sm)
    assert [region.name for region in discs] == [
        f"cut({axis})" for axis in select_case(t, epsilon=epsilon).stacks]
    for disc in discs:
        for region, stripped in zip(_pieces(disc), gridded_regions(disc)):
            # counted alone with weight +1: a lone subtractive piece has
            # negative coverings
            closed = SampledMap([dataclasses.replace(region, weight=1)])
            quadrature = SampledMap([dataclasses.replace(stripped, weight=1)])
            assert dirichlet_energy(closed, level) == pytest.approx(
                dirichlet_energy(quadrature, level), abs=ENERGY_MARGIN[level]), region.name
            exact, counted = degree_count(closed, level), degree_count(quadrature, level)
            for sector in SECTORS:
                assert (exact[sector].d, exact[sector].D) == (
                    counted[sector].d, counted[sector].D), (region.name, sector)


@pytest.mark.parametrize("t", [
    OctantTopology((1, 1, 1), (1, 1, 1), 3),
    OctantTopology((1, 1, 1), (3, 3, 3), 11),  # five layers
    OctantTopology((1, 1, 1), (1, 2, 3), -9),
])
def test_closed_form_discs_keep_the_whole_map_counts(t):
    # the rims the collar grids share are polygons for the trapped area and
    # near bands for the counts, so the whole map's snapped area and
    # degrees are those of its gridded discs
    sm = _assembled(t, 0.05)
    # a disc's closed form is its two pieces' closed forms added
    assert dirichlet_energy(SampledMap(_discs(sm))) == pytest.approx(
        sum(dirichlet_energy(SampledMap([piece]))
            for disc in _discs(sm) for piece in _pieces(disc)), abs=1e-10)
    quadrature = gridded(sm, "cut")  # the bulk stays closed-form
    omega, residual = trapped_area(sm, 2)
    assert omega == trapped_area(quadrature, 2)[0] and residual < 1e-4
    closed, counted = degree_count(sm, 2), degree_count(quadrature, 2)
    for sector in SECTORS:
        assert (closed[sector].d, closed[sector].D, closed[sector].confident) == (
            counted[sector].d, counted[sector].D, counted[sector].confident), sector


def test_edge_pole_disc_quadrature_approaches_the_closed_form():
    # at epsilon 0.12 the x disc of k=(1,3,3), omega_units=-13 holds the
    # bulk pole w = 0.65 on its straight edge: grid levels 2-6 read 3.73,
    # 4.41, 4.76, 4.86 and 4.88, while the closed form needs no grid
    sm = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (1, 3, 3), -13), 0.12))
    bulk = sm.regions[0].evaluate.spec
    assert (0.65, -1) in bulk.real_factors
    pole = complex(relocate_inverse("x", 0.65))  # on the chart's imaginary edge
    assert abs(pole.real) < 1e-15 and 0 < pole.imag < 0.24
    discs = _discs(sm, "x")
    closed = dirichlet_energy(SampledMap(discs))
    assert closed == pytest.approx(-4.8793, abs=1e-4)
    quadrature = gridded(SampledMap(discs))
    gaps = [abs(dirichlet_energy(quadrature, level) - closed) for level in (4, 5, 6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def _bulk_classes():
    """(class, stacked vertices) of the bulks of the kmax-2 sweep, and three
    conformal or anticonformal classes of their own."""
    out = {(spec.H0, tuple(spec.stacks)) for spec in (select_case(t) for t in _sweep(2))}
    out |= {(OctantTopology((1, 1, 1), (0, 0, -1), -5), ()),
            (OctantTopology((1, 1, 1), (1, 1, 1), 11), ()),
            (OctantTopology((1, 1, 1), (0, 0, 1), 3), ())}
    return sorted(out, key=repr)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_bulk_classes()), st.sampled_from("xyz"),
       st.integers(0, len(SECTORS) - 1))
def test_whole_quarter_disc_gives_the_wrapping_identities(bulk, axis, sector):
    # the whole quarter disc in a vertex chart is the quarter disc rotated
    # onto itself: image area -(pi/2) sum w from the preimage counts, the
    # same from the contour whichever centroid it avoids, and -w_sigma
    # coverings of each sector
    target, stacked = bulk
    w = wrapping_from_invariants(target).values
    f = ChartRational(realize(target, stacked=stacked), axis)
    region = Region("whole", f, 0.0, 1.0)
    area = numerics._closed_area(region)
    assert area == -math.pi / 2 * sum(w)
    contour = numerics._chart_area(region)
    assert contour == pytest.approx(area, abs=1e-9)
    # the contour from another reference centroid
    numerics._chart_contour.cache_clear()
    try:
        with mock.patch.object(numerics, "_reference_sector", lambda f, rims: sector):
            assert numerics._chart_area(region) == pytest.approx(contour, abs=1e-10)
    finally:
        numerics._chart_contour.cache_clear()
    report = degree_count(SampledMap([region]), 1)
    for i, s in enumerate(SECTORS):
        assert (report[s].d, report[s].D, report[s].confident) == (-w[i], abs(w[i]), True)


def test_unresolved_contour_raises_instead_of_refining_without_end(monkeypatch):
    region = _discs(_assembled(OctantTopology((1, 1, 1), (1, 1, 1), 3), 0.05))[0]
    monkeypatch.setattr(numerics, "MAX_CONTOUR_PANELS", 2)
    numerics._chart_contour.cache_clear()
    try:
        with pytest.raises(IntegrationError):
            dirichlet_energy(SampledMap([region]))
    finally:
        numerics._chart_contour.cache_clear()


_F = ChartRational(realize(OctantTopology((1, 1, 1), (0, 0, -1), -5)), "x")


@pytest.mark.parametrize("where", [
    {"phi_lo": 0.1}, {"r_hi": 1.5}, {"r_lo": 0.3, "r_hi": 0.2},
])
def test_region_refuses_an_invalid_chart_rational_map(where):
    region = {"name": "cut", "evaluate": _F, "r_lo": 0.0, "r_hi": 0.1}
    Region(**region)
    with pytest.raises(ValueError):
        Region(**{**region, **where})


def test_chart_rational_map_values_and_preimages():
    # the chart map is the bulk at the relocated point, its broadcast
    # values and log-derivative agree with it, and its preimages map back
    u = 0.07 * np.exp(0.6j) + np.array([0.0, 1e-7, 1e-7j])
    values, dlog = _F.value_and_log_derivative(u, 1.0)
    assert np.allclose(values, _F(u), rtol=1e-13)
    slope = (np.log(_F(u[1:])) - np.log(_F(u[0]))) / (u[1:] - u[0])
    assert np.allclose(slope, dlog[0], rtol=1e-5)
    for value in (numerics.CENTROID_VALUES[3], 0.3 - 0.2j):
        preimages = _F.preimages(value)
        assert len(preimages) == _F.spec.degree()
        assert np.allclose(_F(preimages), value, rtol=1e-10)
