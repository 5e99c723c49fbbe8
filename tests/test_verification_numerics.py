"""Pinned verification numerics: ``trapped_area`` and ``degree_count`` on a
fixed set of maps, against ``data/verification_numerics.json``.

The triangulated invariants must not move when their kernel is rewritten;
this pins them to the last bit.  An assembled map's bulk, stack layers and
cut discs enter the integrals in closed form, with no grid, so the
assembled cases strip the bulk's and the cut discs' chart rational maps and
the layers' monomials to keep the kernel pinned on the whole map; further
cases keep the closed-form bulk, the bulk and layers, and every closed
form.  Re-record the file (only when a change of the
numbers is intended) with

    PYTHONPATH=src python tests/test_verification_numerics.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from octfield import fixtures
from octfield.numerics import degree_count, trapped_area
from octfield.patchwork import assemble_patchwork, identity_map, rational_map, select_case
from octfield.rational import realize
from octfield.topology import OctantTopology

DATA = Path(__file__).parent / "data" / "verification_numerics.json"
WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def _gridded(sm, *forms):
    """The map with the named closed forms of its regions stripped (all of
    them by default), so that those regions are integrated on grids:
    ``"bulk"`` the bulk's rational map, ``"monomial"`` the layers' and
    ``"cut"`` the cut discs' rational maps.  A stripped cut disc is gridded
    in two pieces split at epsilon, half its radius, where the collar
    starts: the grids the recording was made on."""
    forms = forms or ("bulk", "monomial", "cut")
    bulk, *pieces = sm.regions
    regions = [dataclasses.replace(bulk, rational=None) if "bulk" in forms else bulk]
    for region in pieces:
        if region.monomial is not None and "monomial" in forms:
            regions.append(dataclasses.replace(region, monomial=None))
        elif region.rational is not None and "cut" in forms:
            stripped, epsilon = dataclasses.replace(region, rational=None), region.r_hi / 2
            regions += [dataclasses.replace(stripped, r_hi=epsilon),
                        dataclasses.replace(stripped, r_lo=epsilon)]
        else:
            regions.append(region)
    return dataclasses.replace(sm, regions=regions)


def _patchwork(t, epsilon):
    return _gridded(assemble_patchwork(select_case(t, epsilon=epsilon)))


# name -> (map factory, grid level, whether degree_count counts the map)
CASES = {
    "identity": (identity_map, 3, True),
    "rational k=(0,0,-1) omega=-5": (
        lambda: rational_map(realize(OctantTopology((1, 1, 1), (0, 0, -1), -5))), 3, True
    ),
    "vertex_stack_map": (lambda: _gridded(fixtures.vertex_stack_map()), 3, True),
    "insertion_comparison_map": (fixtures.insertion_comparison_map, 3, True),
    "worked eps=0.05": (lambda: _patchwork(WORKED, 0.05), 3, True),
    "worked eps=0.00625": (lambda: _patchwork(WORKED, 0.00625), 3, True),
    "k=(3,3,3) n=3 eps=0.05": (
        lambda: _patchwork(OctantTopology((1, 1, 1), (3, 3, 3), -5), 0.05), 2, False
    ),
    "worked eps=0.05 closed-form bulk": (
        lambda: _gridded(assemble_patchwork(select_case(WORKED, epsilon=0.05)),
                         "monomial", "cut"), 3, True
    ),
    "worked eps=0.05 closed-form bulk and layers": (
        lambda: _gridded(assemble_patchwork(select_case(WORKED, epsilon=0.05)), "cut"),
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
