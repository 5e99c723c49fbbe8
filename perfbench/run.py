"""octfield benchmark: run one workload, or compare two result files.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-k3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results.json
    python3 perfbench/run.py --compare before.json after.json

A run times interpreter start through ``import octfield`` (``setup_s``)
before and after its passes.  A pass runs the workload's whole item list in
a fresh interpreter, so the package's caches start cold; whole passes run
until at least ``--seconds`` of item time is measured.  Item times are
scaled to a reference machine speed (``calibrate.py``).  With ``--trace 1``
one more pass runs with spans around the package's public functions and the
run reports the per-layer metrics instead.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` appends the run, with the
machine's description, to a result file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

SETUP_SAMPLES = 14
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RUN_DEADLINE_S = 170.0
WORKDIR = HERE / ".work"

# name -> unit; the order of the printed metrics.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
    "bound_ratio_max": "ratio",
}
_S, _C = "s", "count"
PER_LAYER = {
    "rational.realize.calls": _C, "rational.realize.cold_calls": _C,
    "rational.realize.self_s": _S, "rational.realize.candidates": _C,
    "rational.measure_wrapping_rational.calls": _C,
    "rational.measure_wrapping_rational.self_s": _S,
    "rational.measure_degree_differences.calls": _C,
    "rational.measure_degree_differences.self_s": _S,
    "patchwork.select_case.calls": _C, "patchwork.select_case.self_s": _S,
    "patchwork.assemble_patchwork.calls": _C, "patchwork.assemble_patchwork.self_s": _S,
    "patchwork.measure_map_wrapping.calls": _C, "patchwork.measure_map_wrapping.self_s": _S,
    "numerics.dirichlet_energy.calls": _C, "numerics.dirichlet_energy.self_s": _S,
    "numerics.dirichlet_energy.cells": _C,
    "numerics.trapped_area.calls": _C, "numerics.trapped_area.self_s": _S,
    "numerics.trapped_area.cells": _C,
    "numerics.boundary_residual.calls": _C, "numerics.boundary_residual.self_s": _S,
    "numerics.degree_count.calls": _C, "numerics.degree_count.self_s": _S,
    "numerics.degree_count.errors": _C, "numerics.degree_count.low_confidence": _C,
    "words.min_spelling_over_product.calls": _C,
    "words.min_spelling_over_product.self_s": _S,
    "words.min_spelling_over_product.assignments": _C,
    "words.min_spelling_over_product.dp_calls": _C,
    "words.min_spelling_over_product.evaluated_share": "share",
    "words.spelling_length.calls": _C, "words.spelling_length.self_s": _S,
    "words.optimal_pairing.calls": _C, "words.optimal_pairing.self_s": _S,
    "reports.dump_json.calls": _C, "reports.dump_json.self_s": _S,
    "cli.main.self_s": _S,
    "trace.wall_s": _S,
    "trace.overhead_s": _S,
    "trace.overhead_share": "share",
    "trace.accounted_share": "share",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


# glibc malloc settings for every child.  By default glibc moves its mmap
# threshold as blocks are freed and returns the top of the heap to the
# kernel past a threshold that moves with it, so whether an item's NumPy
# arrays come from reused memory or from fresh, page-faulted memory depends
# on what earlier items left behind: the same refine-k2 item took 15 000
# page faults in one pass and 90 000 in the next, and page faults were a
# fifth of a pass's CPU time, with a cost per fault that grows with the
# load on the host.  Fixed thresholds keep freed memory for reuse, so a
# pass takes the same few page faults every time.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # glibc's largest allowed value
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def child_env() -> dict:
    env = dict(os.environ, **MALLOC_ENV)
    # Children may cache bytecode under the checkout's __pycache__ directories,
    # so that after the first, dropped start, set-up time is that of an
    # installed package, not of compiling octfield from source every time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("run deadline passed")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1:]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[1:]} exited with code {proc.returncode}")
    return proc


def measure_setup(starts: int, deadline: float) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) for ``starts`` interpreter starts: the CPU
    time from starting an interpreter until ``import octfield`` returns, as
    the child reads its own CPU clock, which starts at zero when it is
    created; and the median of three calibration samples taken just before."""
    code = "import time, octfield; print(repr(time.process_time()))"
    out = []
    for _ in range(starts):
        kernel = statistics.median(calibrate.sample() for _ in range(3))
        proc = run_child([sys.executable, "-c", code], deadline)
        out.append((float(proc.stdout.strip().splitlines()[-1]), kernel))
    return out


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    workdir = WORKDIR / f"{os.getpid()}-{time.monotonic_ns()}"
    try:
        proc = run_child([sys.executable, str(HERE / "worker.py"), workload, str(seed),
                          "1" if trace else "0", str(workdir)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    It weights every order statistic by a Beta((n+1)q, (n+1)(1-q)) kernel
    instead of reading one or two of them.  Per-item costs cluster by class
    (for example 20 construct items near 0.2 s and the next near 0.26 s), so
    a single order statistic jumps between clusters under a few percent of
    timing noise; the weighted estimate does not.
    """
    data = np.sort(values)
    n = len(data)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), data))


def tail_percentile(items_per_pass: int) -> float:
    """The highest ladder percentile with at least 10 items of one pass
    beyond it."""
    for q in TAIL_LADDER:
        if items_per_pass * (1 - q / 100) >= 10:
            return q
    raise BenchmarkError("a pass needs at least 20 items for a tail percentile")


def summarize(times: list[float], q: float) -> dict:
    return {"items_per_s": len(times) / sum(times),
            "item_s_p50": quantile(times, 0.5),
            "item_s_tail": quantile(times, q / 100)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the record written to result files."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    # The first start may compile bytecode and is dropped; the rest are split
    # between the start and the end of the run, so they see two machine states.
    setup = measure_setup(1 + SETUP_SAMPLES // 2, deadline)[1:]
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        passes.append(run_pass(workload, seed, False, deadline))
        measured += sum(passes[-1]["times"])
    traced = run_pass(workload, seed, True, deadline) if trace else None
    setup += measure_setup(SETUP_SAMPLES - len(setup), deadline)

    items = passes[0]["items"]
    checked = passes + ([traced] if traced else [])
    attempted = sum(len(p["items"]) for p in checked)
    failures = {}
    for n, p in enumerate(checked):
        if p["items"] != items:
            raise BenchmarkError("passes of one seed ran different item lists")
        for key, why in p["failures"].items():
            failures[f"pass {n}: {key}"] = why
        for key, d0, d in zip(items, passes[0]["digests"], p["digests"]):
            if d != d0 and key not in p["failures"]:
                failures[f"pass {n}: {key}"] = "output differs from the first pass"
    if traced and traced["leftover_wrappers"]:
        failures["tracer"] = f"wrappers left behind: {traced['leftover_wrappers']}"
    q = tail_percentile(len(items))
    gaps = [p["bound_gap_max"] for p in passes if p["bound_gap_max"] is not None]
    kernel = [k for p in passes for k in p["kernel_s"]]
    metrics = {
        "setup_s": statistics.median(
            t * calibrate.factor(k, calibrate.SETUP_ELASTICITY) for t, k in setup),
        **summarize([t for p in passes for t in p["norm_times"]], q),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_share": (attempted - len(failures)) / attempted,
        "bound_ratio_max": 1.0 + max(gaps),
    }
    raw = {"setup_s": statistics.median(t for t, _ in setup),
           **summarize([t for p in passes for t in p["times"]], q),
           "wall_items_per_s": summarize([t for p in passes for t in p["wall_times"]],
                                         q)["items_per_s"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": passes[0]["numpy"],
        },
        "samples": {
            "setup_starts": len(setup),
            "passes": len(passes),
            "items_per_pass": len(items),
            "timed_items": len(items) * len(passes),
            "traced_passes": int(trace),
            "tail_percentile": q,
            "calibrations": len(kernel),
            "kernel_s_median": statistics.median(kernel),
        },
        "run_s": time.monotonic() - started,
        "failures": failures,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": metrics,
        "raw": raw,
    }
    if traced:
        layers = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
        for name, unit in PER_LAYER.items():
            if unit == "count":
                layers[name] = int(layers[name])
        untraced = statistics.median(sum(p["norm_times"]) for p in passes)
        traced_wall = sum(traced["wall_times"])
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = sum(traced["norm_times"]) - untraced
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / untraced
        layers["trace.accounted_share"] = traced["covered_s"] / traced_wall
        record["per_layer"] = layers
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        chosen, units = record["per_layer"], PER_LAYER
    else:
        chosen, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }


def print_record(record: dict) -> None:
    m = record["machine"]
    s = record["samples"]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"# {m['platform']}  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}")
    print(f"# {s['setup_starts']} setup starts, {s['passes']} passes of "
          f"{s['items_per_pass']} items, {s['timed_items']} timed items, "
          f"tail = p{s['tail_percentile']:g}, run {record['run_s']:.1f} s")
    print(f"# {s['calibrations']} calibration samples, kernel median "
          f"{s['kernel_s_median'] * 1e3:.3f} ms (reference "
          f"{calibrate.REFERENCE_S * 1e3:g} ms); unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for key, why in record["failures"].items():
        print(f"# FAILED {key}: {why}")
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name, value in record.get(section, {}).items():
            print(f"{name:48s} {value:>16.6g} {units[name]}")


def append_result(path: Path, record: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 for fewer than two values)."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def compare(path_a: Path, path_b: Path) -> int:
    """Print, per workload and metric, each file's median over its runs and
    quartile spread, the change from A to B, and, for metrics with a bound,
    whether B is worse than A by more than the bound."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    groups: dict[tuple, list[list[float]]] = {}
    for side, path in enumerate((path_a, path_b)):
        for run in json.loads(path.read_text())["runs"]:
            for section in ("end_to_end", "per_layer"):
                for name, value in run.get(section, {}).items():
                    key = (run["workload"], section, name)
                    groups.setdefault(key, [[], []])[side].append(value)
    print(f"{'workload':18s} {'metric':44s} {'A median':>11s} {'spread':>7s} "
          f"{'B median':>11s} {'spread':>7s} {'change':>8s}  verdict")
    for (workload, section, name), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else math.inf)
        rule = rules.get(name, {})
        verdict = ""
        if "bound" in rule:
            worse = change if rule["better"] == "lower" else -change
            verdict = (f"worse beyond bound {rule['bound']}" if worse > rule["bound"]
                       else "within bound")
        print(f"{workload:18s} {name:44s} {ma:11.5g} {spread(a):7.1%} {mb:11.5g} "
              f"{spread(b):7.1%} {change:+8.1%}  {verdict} (runs {len(a)}/{len(b)})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run(s) to this result file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (ROOT / "src" / "octfield" / "__init__.py").is_file():
        print(f"no octfield package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One core for the run and its children, so calibration samples and the
    # work they scale run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_record(record)
            if args.out:
                append_result(args.out, record)
            records.append(record)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if len(records) == 1:
        print(json.dumps(result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
