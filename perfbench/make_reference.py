"""Record the reference table that the benchmark's output checks compare to.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: the ``case_id`` and stack counts
``M`` that ``select_case`` picks for every construct item, and the searched
``upper`` bound of every criterion-4 class-product instance.  Re-run it only
when a change is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from octfield.patchwork import select_case
from octfield.topology import OctantTopology
from octfield.words import ClassProductSpec, inverse, min_spelling_over_product, word

import workloads

HERE = Path(__file__).resolve().parent


def product_spec(i, j, k, p, n, variant) -> ClassProductSpec:
    f = word(3, (3, 2, 1)) if variant == "P" else word(3, (1, 2, 3))
    return ClassProductSpec(
        base=word(3, (1,) * i + (2,) * j + (3,) * k),
        factors=((f, p), (inverse(f), n)),
        search_budget=workloads.SEARCH_BUDGET,
    )


def main() -> None:
    construct = {}
    for name in ("sweep-k3", "refine-k2"):
        for item in workloads.generate(name, 0):
            _, c, eps, _ = item
            t = OctantTopology(tuple(c["e"]), tuple(c["k"]), c["omega_units"])
            spec = select_case(t, epsilon=eps)
            construct[workloads.item_key(item)] = {
                "case_id": spec.case_id, "M": list(spec.M)}
    products = {}
    for item in workloads.product_grid():
        res = min_spelling_over_product(product_spec(*item[1:]))
        products[workloads.item_key(item)] = {"upper": res.upper}
    table = {"construct": dict(sorted(construct.items())),
             "product": dict(sorted(products.items()))}
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
