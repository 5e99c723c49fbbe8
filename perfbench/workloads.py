"""Workload item lists, generated from a seed.

This module imports nothing from ``octfield``: item lists are plain data, so
the parent process, the workers and the self-tests can all build them.  The
same (workload, seed) always gives the same list; the seed fixes the item
order and, for ``spelling-products``, the random words.

Item kinds:

- ``("construct", class_dict, epsilon, grid_level)``: one
  ``octfield construct --format json`` call through ``cli.main``;
- ``("product", i, j, k, p, n, variant)``: one ``min_spelling_over_product``
  call on the criterion-4 grid, ``search_budget=3``;
- ``("word", alphabet_size, letters)``: ``spelling_length`` and
  ``optimal_pairing`` on one random word.
"""

from __future__ import annotations

import itertools
import random

NAMES = ("sweep-k3", "refine-k2", "spelling-products")

SWEEP_EPSILON = 0.05
SWEEP_GRID_LEVEL = 2
REFINE_EPSILONS = (0.05, 0.025, 0.0125, 0.00625)
REFINE_GRID_LEVEL = 3
SEARCH_BUDGET = 3
PQ_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
RANDOM_WORDS = 200
RANDOM_WORD_LENGTHS = (64, 96)
RANDOM_WORD_ALPHABET = 3


def sweep_classes(kmax: int) -> list[dict]:
    """The nonconformal classes of ``octfield sweep --kmax kmax``, in its
    order: sorted kinks k in {1..kmax}^3, n = 1..sum(k)-2, edge signs +++."""
    classes = []
    for k in itertools.combinations_with_replacement(range(1, kmax + 1), 3):
        s = sum(k)
        for n in range(1, s - 1):
            classes.append(
                {"e": [1, 1, 1], "k": list(k), "omega_units": 8 * n + 7 - 4 * s}
            )
    return classes


def product_grid() -> list[tuple]:
    """The 324 criterion-4 instances <A^i B^j C^k><F>^p<F^-1>^n."""
    return [
        ("product", i, j, k, p, n, variant)
        for i, j, k in itertools.product(range(3), repeat=3)
        for p, n in PQ_PAIRS
        for variant in ("P", "Q")
    ]


def random_words(rng: random.Random, count: int) -> list[tuple]:
    lo, hi = RANDOM_WORD_LENGTHS
    letters = [g for a in range(1, RANDOM_WORD_ALPHABET + 1) for g in (a, -a)]
    return [
        ("word", RANDOM_WORD_ALPHABET,
         tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))
        for _ in range(count)
    ]


def generate(name: str, seed: int) -> list[tuple]:
    """The item list of one pass of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-k3":
        items = [("construct", c, SWEEP_EPSILON, SWEEP_GRID_LEVEL)
                 for c in sweep_classes(3)]
    elif name == "refine-k2":
        items = [("construct", c, eps, REFINE_GRID_LEVEL)
                 for c in sweep_classes(2) for eps in REFINE_EPSILONS]
    elif name == "spelling-products":
        items = product_grid() + random_words(rng, RANDOM_WORDS)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng.shuffle(items)
    return items


def item_key(item: tuple) -> str:
    """A stable name for an item, used to look up reference values."""
    if item[0] == "construct":
        _, c, eps, level = item
        return f"k={c['k']} omega={c['omega_units']} eps={eps!r} level={level}"
    if item[0] == "product":
        return "product " + " ".join(str(x) for x in item[1:])
    return "word " + " ".join(str(x) for x in item[2])
