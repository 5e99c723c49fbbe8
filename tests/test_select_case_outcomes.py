"""Pinned case selection: ``select_case`` at epsilon = 0.05 over two grids of
(+,+,+) classes, against ``data/select_case_outcomes.json``.

The grids are the sorted kink triples with entries 1..6 (every n of the
sweep family) and every nonconformal class with k in [-3, 3]^3 and
|omega_units| <= 40.  Each outcome is the spec's case_id, M, H0 and stack
covers and layer ratios, or the name of the error raised.  Every class that
builds a spec must keep building the same one; every other class must build
a spec or raise ``UnsupportedClassError``.

Re-record the file (only when a change of the selected cases is intended) with

    PYTHONPATH=src python tests/test_select_case_outcomes.py
"""

import itertools
import json
from pathlib import Path

from octfield.patchwork import select_case
from octfield.topology import (
    InvalidTopologyError,
    OctantTopology,
    classify,
    wrapping_from_invariants,
)

DATA = Path(__file__).parent / "data" / "select_case_outcomes.json"
EPSILON = 0.05


def grid_classes():
    """The (+,+,+) classes of both grids, each once, sorted-grid first."""
    classes = []
    for k in itertools.combinations_with_replacement(range(1, 7), 3):
        for n in range(1, sum(k) - 1):
            classes.append((k, 8 * n + 7 - 4 * sum(k)))
    for k in itertools.product(range(-3, 4), repeat=3):
        for omega_units in range(-40, 41):
            t = OctantTopology((1, 1, 1), k, omega_units)
            try:
                w = wrapping_from_invariants(t)
            except InvalidTopologyError:
                continue
            if classify(w, t).kind == "nonconformal" and (k, omega_units) not in classes:
                classes.append((k, omega_units))
    return classes


def outcome(k, omega_units):
    try:
        spec = select_case(OctantTopology((1, 1, 1), k, omega_units), epsilon=EPSILON)
    except ValueError as e:
        return {"error": type(e).__name__}
    return {
        "case_id": spec.case_id,
        "M": list(spec.M),
        "H0": {"e": list(spec.H0.e), "k": list(spec.H0.k),
               "omega_units": spec.H0.omega_units},
        "stacks": {axis: {"covers": [list(c) for c in st.covers], "delta": st.delta}
                   for axis, st in spec.stacks.items()},
    }


def record():
    return [{"k": list(k), "omega_units": omega_units, **outcome(k, omega_units)}
            for k, omega_units in grid_classes()]


def _pinned():
    return json.loads(DATA.read_text())


def test_grid_is_the_recorded_one():
    assert [(tuple(item["k"]), item["omega_units"]) for item in _pinned()] == grid_classes()


def test_built_classes_keep_their_spec_and_the_rest_build_or_are_refused():
    # select_case verifies every spec it returns; a class refused here may
    # come to build, but no other error may appear
    changed = []
    for item in _pinned():
        found = outcome(tuple(item["k"]), item["omega_units"])
        if "error" in item:
            if found.get("error", "UnsupportedClassError") != "UnsupportedClassError":
                changed.append((item["k"], item["omega_units"], found))
            continue
        pinned = {key: value for key, value in item.items() if key not in ("k", "omega_units")}
        if found != pinned:
            changed.append((item["k"], item["omega_units"], found))
    assert not changed, changed


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(item) for item in record()) + "\n]\n")
