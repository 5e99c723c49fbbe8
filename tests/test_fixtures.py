import math

import pytest

from octfield.numerics import (
    boundary_residual,
    degree_count,
    dirichlet_energy,
    lemma1_lower_bound,
    trapped_area,
)
from octfield.topology import OctantTopology, sector_name, wrapping_from_invariants
from fixtures import insertion_comparison_map, vertex_stack_map
from windings import both_ways

WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def test_insertion_fixture_counts_match_juxtaposition_table():
    rep = degree_count(insertion_comparison_map(), level=3)
    counts = {sector_name(s): e.D for s, e in rep.by_sector.items()}
    assert counts == {
        "+++": 3, "-++": 3, "+-+": 3, "++-": 3,
        "+--": 2, "-+-": 2, "--+": 2, "---": 1,
    }
    assert lemma1_lower_bound(rep) == (19 * math.pi)


def test_insertion_fixture_energy_and_topology():
    sm = insertion_comparison_map()
    E = dirichlet_energy(sm, level=3)
    assert abs(E - 19 * math.pi) / (19 * math.pi) < 0.05
    assert boundary_residual(sm) < 1e-9
    # the insertion keeps the anticonformal bulk's boundary values
    w = wrapping_from_invariants(WORKED).values
    assert both_ways(sm, level=3) == (w, w)


def test_vertex_fixture_counts_double_one_sector():
    rep = degree_count(vertex_stack_map(), level=3)
    counts = {sector_name(s): e.D for s, e in rep.by_sector.items()}
    assert counts == {
        "+++": 1, "-++": 1, "+-+": 1, "++-": 1,
        "+--": 0, "-+-": 0, "--+": 2, "---": 1,
    }


def test_vertex_fixture_trapped_area():
    omega, residual = trapped_area(vertex_stack_map(), level=3)
    assert omega == pytest.approx(3 * math.pi / 2)
    assert residual < 0.02



