"""Pinned verification numerics: ``trapped_area`` and ``degree_count`` on a
fixed set of maps, against ``data/verification_numerics.json``.

The triangulated invariants must not move when their kernel is rewritten;
this pins them to the last bit.  An assembled map's bulk, stack layers and
cut discs enter the integrals in closed form, with no grid, so the
assembled cases, and the rational map (one closed-form region), strip the
bulk's and the cut discs' chart rational maps and the layers' monomials
(``gridded.gridded``, which supplies their grids' hints) to keep the kernel
pinned on the whole map; further cases keep the closed-form bulk, the bulk
and layers, and every closed form.  Re-record the file (only when a change
of the numbers is intended) with

    PYTHONPATH=src python tests/test_verification_numerics.py
"""

import json
from pathlib import Path

import pytest

from octfield.numerics import degree_count, trapped_area
from octfield.patchwork import assemble_patchwork, identity_map, rational_map, select_case
from octfield.rational import realize
from octfield.topology import OctantTopology
import fixtures
from gridded import gridded

DATA = Path(__file__).parent / "data" / "verification_numerics.json"
WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def _rational():
    return rational_map(realize(OctantTopology((1, 1, 1), (0, 0, -1), -5)))


def _patchwork(t, epsilon):
    return gridded(assemble_patchwork(select_case(t, epsilon=epsilon)))


# name -> (map factory, grid level, whether degree_count counts the map)
CASES = {
    "identity": (identity_map, 3, True),
    "rational k=(0,0,-1) omega=-5": (lambda: gridded(_rational()), 3, True),
    "rational k=(0,0,-1) omega=-5 closed form": (_rational, 3, True),
    "vertex_stack_map": (lambda: gridded(fixtures.vertex_stack_map()), 3, True),
    "insertion_comparison_map": (
        lambda: gridded(fixtures.insertion_comparison_map(), "bulk"), 3, True
    ),
    "worked eps=0.05": (lambda: _patchwork(WORKED, 0.05), 3, True),
    "worked eps=0.00625": (lambda: _patchwork(WORKED, 0.00625), 3, True),
    "k=(3,3,3) n=3 eps=0.05": (
        lambda: _patchwork(OctantTopology((1, 1, 1), (3, 3, 3), -5), 0.05), 2, False
    ),
    "worked eps=0.05 closed-form bulk": (
        lambda: gridded(assemble_patchwork(select_case(WORKED, epsilon=0.05)),
                         "monomial", "cut"), 3, True
    ),
    "worked eps=0.05 closed-form bulk and layers": (
        lambda: gridded(assemble_patchwork(select_case(WORKED, epsilon=0.05)), "cut"),
        3, True
    ),
    "worked eps=0.05 every closed form": (
        lambda: assemble_patchwork(select_case(WORKED, epsilon=0.05)), 3, True
    ),
}


def measure(name):
    make, level, counted = CASES[name]
    sm = make()
    entry = {"case": name, "level": level, "trapped_area": repr(trapped_area(sm, level))}
    if counted:
        entry["degree_count"] = degree_count(sm, level=level).as_dict()
    return entry


def record():
    return [measure(name) for name in CASES]


def test_recorded_cases_are_the_cases():
    assert [entry["case"] for entry in json.loads(DATA.read_text())] == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_verification_numerics_match_the_recording(name):
    recorded = {entry["case"]: entry for entry in json.loads(DATA.read_text())}
    # through JSON, as reports write it: numpy scalars cannot pass
    assert json.loads(json.dumps(measure(name))) == recorded[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
