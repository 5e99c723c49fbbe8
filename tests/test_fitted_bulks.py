"""Pinned bulk fits: ``realize`` on every bulk key of ``sweep --kmax 3`` at
epsilon = 0.05, stacked and unstacked, against ``data/fitted_bulks.json``.

Re-record the file (only when a change of the fitted bulks is intended) with

    PYTHONPATH=src python tests/test_fitted_bulks.py
"""

import itertools
import json
from functools import partial
from pathlib import Path

from octfield import rational
from octfield.patchwork import select_case
from octfield.rational import (
    RationalMapSpec,
    evaluate_rational,
    measure_wrapping,
    measure_wrapping_rational,
    realize,
)
from octfield.topology import (
    OctantTopology,
    classify,
    normalize_edge_signs,
    wrapping_from_invariants,
)
from windings import rational_seed

DATA = Path(__file__).parent / "data" / "fitted_bulks.json"
EPSILON = 0.05
KMAX = 3


def sweep_bulk_keys():
    """(class, stacked) of every ``realize`` call of the sweep, plus each
    stacked bulk class without stacks, in sweep order."""
    keys = []
    for k in itertools.combinations_with_replacement(range(1, KMAX + 1), 3):
        for n in range(1, sum(k) - 1):
            t = OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * sum(k))
            if classify(wrapping_from_invariants(t), t).kind != "nonconformal":
                found = [(t, ())]
            else:
                spec = select_case(normalize_edge_signs(t)[0], epsilon=EPSILON)
                found = [(spec.H0, tuple(sorted(spec.stacks))), (spec.H0, ())]
            keys += [key for key in found if key not in keys]
    return keys


def spec_to_dict(spec):
    return {
        "sign": spec.sign,
        "m": spec.m,
        "orientation": spec.orientation,
        "real_factors": [list(f) for f in spec.real_factors],
        "imag_factors": [list(f) for f in spec.imag_factors],
        "complex_factors": [[[t.real, t.imag], ex] for t, ex in spec.complex_factors],
    }


def _key_to_dict(t, stacked):
    return {"e": list(t.e), "k": list(t.k), "omega_units": t.omega_units,
            "stacked": list(stacked)}


def record():
    return [
        {"key": _key_to_dict(t, stacked), "spec": spec_to_dict(realize(t, stacked=stacked))}
        for t, stacked in sweep_bulk_keys()
    ]


def _shape(spec):
    return (
        spec["sign"], spec["m"], spec["orientation"],
        [ex for _, ex in spec["real_factors"]],
        [ex for _, ex in spec["imag_factors"]],
        [ex for _, ex in spec["complex_factors"]],
    )


def _parameters(spec):
    return (
        [p for p, _ in spec["real_factors"]]
        + [p for p, _ in spec["imag_factors"]]
        + [part for t, _ in spec["complex_factors"] for part in t]
    )


def test_recorded_keys_are_the_sweep_bulk_keys():
    recorded = [entry["key"] for entry in json.loads(DATA.read_text())]
    assert recorded == [_key_to_dict(t, stacked) for t, stacked in sweep_bulk_keys()]


def test_fitted_bulks_match_the_recording():
    for entry in json.loads(DATA.read_text()):
        key = entry["key"]
        t = OctantTopology(tuple(key["e"]), tuple(key["k"]), key["omega_units"])
        got = spec_to_dict(realize(t, stacked=tuple(key["stacked"])))
        want = entry["spec"]
        assert _shape(got) == _shape(want), key
        got_x, want_x = _parameters(got), _parameters(want)
        assert len(got_x) == len(want_x), key
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got_x, want_x)), key


def _spec(entry):
    return RationalMapSpec(
        sign=entry["sign"], m=entry["m"], orientation=entry["orientation"],
        real_factors=tuple(map(tuple, entry["real_factors"])),
        imag_factors=tuple(map(tuple, entry["imag_factors"])),
        complex_factors=tuple((complex(*t), ex) for t, ex in entry["complex_factors"]),
    )


def test_preimage_counts_are_the_boundary_windings():
    # realize and the bulk's closed form read a bulk's wrapping numbers from
    # its centroid preimages; the boundary windings, anchored by the signed
    # covering count, are the independent reference
    for entry in json.loads(DATA.read_text()):
        spec = _spec(entry["spec"])
        degree = spec.degree() if spec.orientation == "conformal" else -spec.degree()
        windings = measure_wrapping(partial(evaluate_rational, spec), degree,
                                    rational_seed(spec))
        assert measure_wrapping_rational(spec).values == windings.values, entry["key"]


def test_stacked_bulks_fit_in_few_scorer_calls(monkeypatch):
    # every descent round scores all shapes still running in one call: the
    # 32 stacked bulks take under 1,000 calls (5,497 when each shape's
    # descent made calls of its own)
    calls = []
    scores = rational._FitScorer.scores

    def counted(self, X, owner):
        calls.append(len(X))
        return scores(self, X, owner)

    monkeypatch.setattr(rational, "_REALIZE_CACHE", {})
    monkeypatch.setattr(rational._FitScorer, "scores", counted)
    keys = [(t, stacked) for t, stacked in sweep_bulk_keys() if stacked]
    assert len(keys) == 32
    for t, stacked in keys:
        realize(t, stacked=stacked)
    assert len(calls) <= 1000


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
