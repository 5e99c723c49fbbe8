"""Closed-form stack layers against the quadrature of the same regions.

Each layer region of an assembled map is a chart monomial on a quarter
annulus, and energy, trapped area and degree counts take it in closed form.
These tests hold the closed forms to the gridded integrals of the very same
regions, evaluated through a plain function (``gridded.gridded_regions``),
on the benchmark's classes: the kmax-3 sweep at epsilon 0.05 (grid level 2)
and the kmax-2 classes at four epsilons (grid level 3).
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

import octfield.numerics as numerics
from octfield.geometry import ChartMonomial, relocate, relocate_inverse
from octfield.numerics import Region, degree_count, dirichlet_energy, trapped_area
from octfield.patchwork import SampledMap, assemble_patchwork, select_case
from octfield.stacks import QuarterSphereStack, stack_degree_table
from octfield.topology import SECTORS, OctantTopology
from gridded import gridded_regions


def _sweep(kmax):
    return [OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * sum(k))
            for k in itertools.combinations_with_replacement(range(1, kmax + 1), 3)
            for n in range(1, sum(k) - 1)]


CLASSES = ([(t, 0.05, 2) for t in _sweep(3)]
           + [(t, eps, 3) for t in _sweep(2) for eps in (0.05, 0.025, 0.0125, 0.00625)])


@functools.cache
def _assembled(t, epsilon):
    return assemble_patchwork(select_case(t, epsilon=epsilon))


@pytest.mark.parametrize("t, epsilon, level", CLASSES, ids=[
    f"k={t.k} omega={t.omega_units} eps={eps}" for t, eps, _ in CLASSES])
def test_layer_closed_forms_equal_their_quadrature(t, epsilon, level):
    sm = _assembled(t, epsilon)
    layers = [region for region in sm.regions if isinstance(region.evaluate, ChartMonomial)]
    assert len(layers) == sum(select_case(t, epsilon=epsilon).M)
    for region in layers:
        closed, gridded = SampledMap([region]), SampledMap(gridded_regions(region))
        assert dirichlet_energy(closed, level) == pytest.approx(
            dirichlet_energy(gridded, level), rel=1e-4), region.name
        exact, counted = degree_count(closed, level), degree_count(gridded, level)
        for sector in SECTORS:
            assert (exact[sector].d, exact[sector].D) == (
                counted[sector].d, counted[sector].D), (region.name, sector)
    # the slivers between the layers' rim arcs and their gridded neighbours'
    # chords are all the trapped area misses
    omega, residual = trapped_area(sm, level)
    assert round(omega / (math.pi / 2)) == t.omega_units
    assert residual < 1e-4


def test_no_layer_is_gridded(monkeypatch):
    # neither layers nor cut discs: k=(3,3,3), omega_units=11 has one stack
    # of five layers (M = (5,0,0))
    sm = _assembled(OctantTopology((1, 1, 1), (3, 3, 3), 11), 0.05)
    built = []
    real = numerics.build_grids
    monkeypatch.setattr(numerics, "build_grids",
                        lambda regions, level: built.extend(r.name for r in regions)
                        or real(regions, level))
    dirichlet_energy(sm, 1)
    trapped_area(sm, 1)
    degree_count(sm, 1)
    kinds = {name.split("(")[0] for name in built}
    assert kinds == {"interp", "switch"}
    assert sum(name.startswith("annulus(") for name in
               (region.name for region in sm.regions)) == 5


def test_layer_monomials_carry_the_stack_degree_tables():
    # a conformal layer covers its quadrant's sectors positively (wrapping
    # -1), an anticonformal one negatively
    st = QuarterSphereStack(((1, -1), (1, 1), (-1, -1), (1, -1)), 0.05, 1e-3)
    table = dict.fromkeys(SECTORS, 0)
    for m, (a, b) in enumerate(st.covers, start=1):
        for sz in (1, -1):
            table[(a, b, sz)] += -1 if st.layer_monomial(m).conformal else 1
    assert table == stack_degree_table(st, "z")


@pytest.mark.parametrize("power, conjugate", itertools.product((1, -1), (False, True)))
@pytest.mark.parametrize("axis", ["x", "z"])
def test_chart_monomial_inverts_and_measures_itself(power, conjugate, axis):
    # its values are relocated to its vertex, and its preimages are chart
    # points: the relocation is a rotation, so moduli are read in the chart
    g = ChartMonomial(-0.02, 0.1, power, conjugate, axis)
    u = 0.013 * np.exp(0.4j)
    value = complex(g(u))
    assert value == relocate(axis, complex(dataclasses.replace(g, axis="z")(u)))
    (preimage,) = g.preimages(value)
    assert preimage == pytest.approx(u, rel=1e-14)
    assert abs(relocate_inverse(axis, value)) == pytest.approx(g.modulus(0.013), rel=1e-14)
    assert g.modulus(0.02) == pytest.approx(10.0)
    assert g.conformal is not conjugate


@pytest.mark.parametrize("args", [(0.02, 0.1, 2, False), (0.0, 0.1, 1, False),
                                  (0.02, 0.0, 1, False), (math.inf, 0.1, -1, True),
                                  (0.02, 0.1, 1, False, "w")])
def test_chart_monomial_refuses_what_is_no_layer(args):
    with pytest.raises(ValueError):
        ChartMonomial(*args)


_G = ChartMonomial(0.01, 0.1, 1, False)


@pytest.mark.parametrize("where", [
    {"phi_lo": 0.1}, {"phi_hi": math.pi}, {"r_lo": 0.02}, {"r_hi": math.inf},
    {"r_hi": 1.5},
])
def test_region_refuses_an_invalid_layer(where):
    # a closed form is taken on a quarter annulus inside the unit circle; the
    # same formula behind a plain function is gridded wherever it is put
    region = {"name": "annulus", "evaluate": _G, "r_lo": 0.0, "r_hi": 0.01}
    Region(**region)
    with pytest.raises(ValueError):
        Region(**{**region, **where})
    Region(**{**region, **where, "evaluate": lambda u: _G(u)})


def test_a_layer_preimage_on_a_shared_rim_is_near():
    # the +++ centroid's preimage under the layer lies a relative 1e-9
    # inside its outer rim, which a gridded neighbour shares: the
    # neighbour's triangles end on the rim's chords, not on its arc, so the
    # layer's count there is near and the sector is retried at a perturbed
    # sample.  The neighbour covers no target, so nothing else is near.
    i = SECTORS.index((1, 1, 1))
    (u,) = _G.preimages(numerics.CENTROID_VALUES[i])
    rim = abs(u) * (1 + 1e-9)
    layer = Region("annulus", _G, 0.0, rim)
    neighbour = Region("switch", lambda u: 0.01 * u, rim, 2 * rim)
    report = numerics.region_degrees(SampledMap([layer, neighbour]), 1)
    for j, sector in enumerate(SECTORS):
        retried = report[sector].sample != numerics.CENTROID_VALUES[j]
        assert retried is (j == i), sector
    # the retried sample is counted confidently, and alone the layer counts
    # the centroid itself
    assert report[SECTORS[i]].confident
    alone = numerics.region_degrees(SampledMap([layer]), 1)[SECTORS[i]]
    assert (alone.d, alone.sample, alone.confident) == (1, numerics.CENTROID_VALUES[i], True)
