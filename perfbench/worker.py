"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR

``run.py`` starts it with ``PYTHONPATH=src``.  The worker imports
``octfield``, runs every item of the pass in order while timing each call,
then checks every output and prints one JSON line: per-item times, outputs'
digests, failures, peak RSS and, when TRACE is 1, the per-layer metrics.
Output checks run after the timed loop and after the tracer is removed.

Each call is timed twice: in wall-clock seconds (``wall_times``) and in
seconds of this process's CPU time (``times``).  The metrics use CPU time:
on a shared virtual machine the wall clock also counts the time the
hypervisor runs other tenants on this core (steal) and the time other
processes hold it, which come in bursts of any length and say nothing about
octfield; the operating system's CPU clock counts neither.

A thread of the worker times the calibration kernel every
``CALIBRATE_EVERY_S`` seconds, during items as well as between them, so an
item that runs for seconds is scaled by the machine's speed while it ran;
``calibrate.normalize`` scales each item's time by the samples around it.
The sampler's own CPU time is subtracted from the item's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from octfield import cli, words
from octfield.topology import OctantTopology, wrapping_from_invariants

import calibrate
import tracer as tracing
import workloads
from make_reference import product_spec

HERE = Path(__file__).resolve().parent
CALIBRATE_EVERY_S = 0.25
# How strongly each item kind's time follows the calibration kernel.
ELASTICITY = {"construct": calibrate.CONSTRUCT_ELASTICITY, "product": 1.0, "word": 1.0}


def prepare_item(item, out_dir: Path):
    """A call that runs one item; inputs are built here, outside the timing."""
    kind = item[0]
    if kind == "construct":
        _, c, eps, level = item
        argv = ["construct", "--json", json.dumps(c), "--epsilon", repr(eps),
                "--grid-level", str(level), "--format", "json", "--out", str(out_dir)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return call
    if kind == "product":
        spec = product_spec(*item[1:])
        return lambda: words.min_spelling_over_product(spec)
    u = words.word(item[1], item[2])
    return lambda: (words.spelling_length(u), words.optimal_pairing(u))


def check_item(item, outcome, out_dir: Path, reference: dict):
    """(failure text or None, digest of the output, bound gap or None)."""
    key = workloads.item_key(item)
    kind = item[0]
    if kind == "construct":
        if outcome != 0:
            return f"exit code {outcome}", None, None
        text = (out_dir / "construct.json").read_text()
        report = json.loads(text)
        c = item[1]
        t = OctantTopology(tuple(c["e"]), tuple(c["k"]), c["omega_units"])
        ref = reference["construct"][key]
        patch = report.get("patchwork", {})
        gap = abs(report["energy_gap_relative"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if report["measured_wrapping"] != wrapping_from_invariants(t).as_dict():
            return "measured wrapping differs from the invariants", digest, gap
        if patch.get("case_id") != ref["case_id"] or patch.get("M") != ref["M"]:
            return f"case {patch.get('case_id')} M={patch.get('M')} != {ref}", digest, gap
        return None, digest, gap
    if kind == "product":
        i, j, k, p, n, variant = item[1:]
        res = outcome
        digest = repr((res.upper, res.lower, res.witness.letters, res.exact,
                       res.budget_exhausted, res.conjectured_lower))
        gap = (res.upper - res.lower) / res.upper if res.upper else 0.0
        if res.lower != words.certified_lower_bound(i, j, k, p, n, variant):
            return "lower differs from certified_lower_bound", digest, gap
        if words.spelling_length(res.witness) != res.upper:
            return "witness spelling length differs from upper", digest, gap
        if res.upper != reference["product"][key]["upper"]:
            return f"upper {res.upper} differs from the reference", digest, gap
        return None, digest, gap
    lam, pairing = outcome
    u = words.word(item[1], item[2])
    digest = repr((lam, sorted(tuple(sorted(p)) for p in pairing)))
    if len(u) - 2 * len(pairing) != lam or not words.pairing_is_valid(u, pairing):
        return "pairing does not realize the spelling length", digest, None
    return None, digest, None


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark.

    Read from ``VmHWM``, not ``getrusage``: on Linux ``ru_maxrss`` keeps the
    parent's resident size across fork and exec, so it would report the
    benchmark's parent process whenever that is the larger one.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Sampler:
    """Calibration samples from a thread of their own, every
    ``CALIBRATE_EVERY_S`` seconds until ``stop``."""

    def __init__(self):
        self.samples = []  # (perf_counter at the start, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(CALIBRATE_EVERY_S):
            self.samples.append((time.perf_counter(), calibrate.sample()))

    def start(self):
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def cpu(self) -> float:
        """CPU seconds the sampler thread has used so far."""
        return time.clock_gettime(self._clock)

    def stop(self):
        self._stop.set()
        self._thread.join()


def run_items(items: list, trace: bool, workdir: Path) -> dict:
    """Run, time and check ``items`` in order; with ``trace``, under a tracer."""
    reference = json.loads((HERE / "reference.json").read_text())
    tracer = tracing.Tracer() if trace else None
    calls = [prepare_item(item, workdir / str(idx)) for idx, item in enumerate(items)]
    times, wall_times, outcomes, errors = [], [], [], {}
    starts = []
    clock, cpu = time.perf_counter, time.process_time
    first = (clock(), calibrate.sample())
    sampler = Sampler()
    sampler.start()
    if tracer:
        tracer.install()
    try:
        for idx, call in enumerate(calls):
            if tracer:
                tracer.item = idx
            t0 = clock()
            starts.append(t0)
            c0, s0 = cpu(), sampler.cpu()
            try:
                outcome = call()
            except Exception:
                outcome = None
                errors[idx] = traceback.format_exc()
            times.append(cpu() - c0 - (sampler.cpu() - s0))
            wall_times.append(clock() - t0)
            outcomes.append(outcome)
    finally:
        if tracer:
            tracer.uninstall()
        sampler.stop()
    kernel = [first, *sampler.samples, (clock(), calibrate.sample())]
    norm_times = calibrate.normalize(
        starts, wall_times, times, [ELASTICITY[item[0]] for item in items], kernel)

    failures, digests, gaps = {}, [], []
    for idx, (item, outcome) in enumerate(zip(items, outcomes)):
        if idx in errors:
            failures[idx] = errors[idx].strip().splitlines()[-1]
            digests.append(None)
            continue
        failure, digest, gap = check_item(item, outcome, workdir / str(idx), reference)
        if failure:
            failures[idx] = failure
        digests.append(digest)
        if gap is not None:
            gaps.append(gap)

    result = {
        "items": [workloads.item_key(item) for item in items],
        "times": times,
        "wall_times": wall_times,
        "norm_times": norm_times,
        "kernel_s": [k for _, k in kernel],
        "digests": digests,
        "failures": {workloads.item_key(items[i]): f for i, f in failures.items()},
        "bound_gap_max": max(gaps) if gaps else None,
        "peak_rss_mb": peak_rss_mb(),
        "numpy": np.__version__,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["covered_s"] = tracing.covered_seconds(tracer.spans)
        result["leftover_wrappers"] = tracing.installed_wrappers()
    return result


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir = argv
    items = workloads.generate(workload, int(seed))
    result = run_items(items, trace == "1", Path(workdir))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
