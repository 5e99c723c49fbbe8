"""Spans and work counters recorded from outside the ``octfield`` package.

``Tracer.install`` replaces each traced public function at every binding
site: the defining module's attribute and every other ``octfield`` module
attribute bound to the same function object (``cli`` and ``patchwork``
import ``realize``, ``select_case``, ``trapped_area`` and
``measure_degree_differences`` by name).  Calls made inside a module go
through its global name, so wrapping the module attribute catches them too.
``Tracer.uninstall`` puts every original back.

A span records its name, start, end, parent span, item index and the type of
any exception, which is re-raised unchanged.  Spans stay in memory until the
pass ends.  Tallies are counters without a span of their own: they add to the
enclosing span, so counts land where the work happens.  No private state of
the package is read.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span each; the metric prefix is
# "<module>.<function>".
SPANS = (
    ("cli", "main"),
    ("rational", "realize"),
    ("rational", "measure_wrapping_rational"),
    ("rational", "measure_degree_differences"),
    ("patchwork", "select_case"),
    ("patchwork", "assemble_patchwork"),
    ("patchwork", "measure_map_wrapping"),
    ("numerics", "dirichlet_energy"),
    ("numerics", "trapped_area"),
    ("numerics", "boundary_residual"),
    ("numerics", "degree_count"),
    ("words", "min_spelling_over_product"),
    ("words", "spelling_length"),
    ("words", "optimal_pairing"),
    ("reports", "dump_json"),
)

# (module, function, counter, owner span): calls counted on the nearest open
# span named ``owner`` (the innermost open span when owner is None).
TALLIES = (
    ("rational", "predict_invariants", "candidates", "rational.realize"),
    ("numerics", "build_grids", "cells", None),
)

_NAME, _START, _END, _PARENT, _ITEM, _ERROR, _COUNTS = range(7)


def _grid_cells(grids) -> int:
    return sum((len(g.r_edges) - 1) * (len(g.phi_edges) - 1) for g in grids)


def _low_confidence(report) -> int:
    return sum(1 for e in report.by_sector.values() if not e.confident)


def _reduced_word_count(alphabet_size: int, max_len: int) -> int:
    return 1 + sum(2 * alphabet_size * (2 * alphabet_size - 1) ** (n - 1)
                   for n in range(1, max_len + 1))


def search_assignments(spec) -> int:
    """Conjugator assignments of a class-product search, computed from the
    spec: the product over conjugacy classes of C(N + m - 1, m), with N the
    number of conjugators (reduced words of at most ``search_budget``
    letters) and m the class multiplicity."""
    from octfield.words import cyclic_canonical

    mult = defaultdict(int)
    for f, m in spec.factors:
        if m:
            mult[cyclic_canonical(f)] += m
    n = _reduced_word_count(spec.base.alphabet_size, spec.search_budget)
    return math.prod(math.comb(n + m - 1, m) for m in mult.values())


# Per-span counters read from a call's arguments or result.
OBSERVERS = {
    "numerics.degree_count": lambda args, kwargs, result: {
        "low_confidence": _low_confidence(result)},
    "words.min_spelling_over_product": lambda args, kwargs, result: {
        "assignments": search_assignments(args[0] if args else kwargs["spec"])},
}
TALLY_AMOUNTS = {"cells": _grid_cells}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.item, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[_ERROR] = type(exc).__name__
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
            if observe is not None:
                rec[_COUNTS] = observe(args, kwargs, result)
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    def _tally_wrapper(self, fn, counter, owner):
        spans, stack = self.spans, self._stack
        amount = TALLY_AMOUNTS.get(counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for idx in reversed(stack):
                rec = spans[idx]
                if owner is None or rec[_NAME] == owner:
                    counts = rec[_COUNTS] = rec[_COUNTS] or {}
                    counts[counter] = counts.get(counter, 0) + (
                        1 if amount is None else amount(result))
                    break
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch_everywhere(self, module_name, attr, make_wrapper):
        original = getattr(sys.modules[f"octfield.{module_name}"], attr)
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "octfield" and not mod_name.startswith("octfield."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        import octfield.cli  # noqa: F401  (loads every traced module)

        for module_name, attr in SPANS:
            name = f"{module_name}.{attr}"
            self._patch_everywhere(
                module_name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module_name, attr, counter, owner in TALLIES:
            self._patch_everywhere(
                module_name, attr,
                lambda fn, c=counter, o=owner: self._tally_wrapper(fn, c, o))

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)


def installed_wrappers() -> list[str]:
    """Binding sites in the loaded ``octfield`` modules that still hold a
    wrapper; empty after ``uninstall``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "octfield" or mod_name.startswith("octfield."):
            found += [f"{mod_name}.{key}" for key, value in vars(module).items()
                      if getattr(value, "_perfbench_wrapper", False)]
    return found


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from a finished pass's spans.

    Self time is a span's duration minus the time its child spans cover.
    A ``realize`` call is cold when it did work below it (a candidate or a
    child span); a cache hit has neither.  ``dp_calls`` counts
    ``spelling_length`` spans below a ``min_spelling_over_product`` span.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for rec in spans:
        parent = rec[_PARENT]
        if parent >= 0:
            child_time[parent] += rec[_END] - rec[_START]
            has_child[parent] = True

    out: dict[str, float] = defaultdict(float)
    for idx, rec in enumerate(spans):
        name = rec[_NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += rec[_END] - rec[_START] - child_time[idx]
        for counter, value in (rec[_COUNTS] or {}).items():
            out[f"{name}.{counter}"] += value
        if rec[_ERROR] is not None:
            out[f"{name}.errors"] += 1
        if name == "rational.realize" and (has_child[idx] or rec[_COUNTS]):
            out[f"{name}.cold_calls"] += 1
        if name == "words.spelling_length":
            parent = rec[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != "words.min_spelling_over_product":
                parent = spans[parent][_PARENT]
            if parent >= 0:
                out["words.min_spelling_over_product.dp_calls"] += 1
    assignments = out.get("words.min_spelling_over_product.assignments", 0)
    out["words.min_spelling_over_product.evaluated_share"] = (
        out.get("words.min_spelling_over_product.dp_calls", 0) / assignments
        if assignments else 0.0)
    return dict(out)


def covered_seconds(spans: list[list]) -> float:
    """Time covered by top-level spans: the sum of every span's self time."""
    return sum(rec[_END] - rec[_START] for rec in spans if rec[_PARENT] < 0)
