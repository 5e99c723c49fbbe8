"""Pinned words-layer outputs against ``data/class_products.json``: the whole
``min_spelling_over_product`` result on the 324 criterion-4 class products
<A^i B^j C^k><F>^p<F^-1>^n, and the spelling length and optimal pairing of
200 seeded random words of 64-96 letters over three generators.

The witness and the pairing depend on the search order, the canonical
rotation and the DP's tie-breaking, so any change to them shows here.

Re-record the file (only when a change of these outputs is intended) with

    PYTHONPATH=src python tests/test_class_products.py
"""

import itertools
import json
import random
from pathlib import Path

from octfield.words import (
    ClassProductSpec,
    inverse,
    min_spelling_over_product,
    optimal_pairing,
    spelling_length,
    word,
)

DATA = Path(__file__).parent / "data" / "class_products.json"
PQ_PAIRS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
WORD_SEED = 27
WORD_COUNT = 200
WORD_LENGTHS = (64, 96)


def product_keys():
    """(i, j, k, p, n, variant) of the criterion-4 instances."""
    return [
        (i, j, k, p, n, variant)
        for i, j, k in itertools.product(range(3), repeat=3)
        for p, n in PQ_PAIRS
        for variant in ("P", "Q")
    ]


def product_spec(i, j, k, p, n, variant):
    f = word(3, (3, 2, 1)) if variant == "P" else word(3, (1, 2, 3))
    return ClassProductSpec(
        base=word(3, (1,) * i + (2,) * j + (3,) * k),
        factors=((f, p), (inverse(f), n)),
        search_budget=3,
    )


def random_words():
    rng = random.Random(WORD_SEED)
    letters = (1, -1, 2, -2, 3, -3)
    return [
        tuple(rng.choice(letters) for _ in range(rng.randint(*WORD_LENGTHS)))
        for _ in range(WORD_COUNT)
    ]


def search_to_dict(res):
    return {
        "upper": res.upper,
        "lower": res.lower,
        "witness": list(res.witness.letters),
        "exact": res.exact,
        "budget_exhausted": res.budget_exhausted,
        "conjectured_lower": res.conjectured_lower,
    }


def word_to_dict(letters):
    u = word(3, letters)
    return {
        "letters": list(letters),
        "lambda": spelling_length(u),
        "pairing": sorted(list(pair) for pair in optimal_pairing(u)),
    }


def _key(i, j, k, p, n, variant):
    return f"{i} {j} {k} {p} {n} {variant}"


def record():
    return {
        "products": {
            _key(*key): search_to_dict(min_spelling_over_product(product_spec(*key)))
            for key in product_keys()
        },
        "words": [word_to_dict(letters) for letters in random_words()],
    }


def test_class_product_searches_match_the_recording():
    want = json.loads(DATA.read_text())["products"]
    assert list(want) == [_key(*key) for key in product_keys()]
    for key in product_keys():
        got = search_to_dict(min_spelling_over_product(product_spec(*key)))
        assert got == want[_key(*key)], key


def test_spelling_lengths_and_pairings_match_the_recording():
    want = json.loads(DATA.read_text())["words"]
    generated = random_words()
    assert [entry["letters"] for entry in want] == [list(w) for w in generated]
    for letters, entry in zip(generated, want):
        assert word_to_dict(letters) == entry, letters


def dumps(recorded):
    """The recording as JSON with one product or word per line."""
    products = ",\n".join(f" {json.dumps(key)}: {json.dumps(entry)}"
                           for key, entry in recorded["products"].items())
    words = ",\n".join(f" {json.dumps(entry)}" for entry in recorded["words"])
    return '{"products": {\n' + products + '\n},\n"words": [\n' + words + "\n]}\n"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(dumps(record()))
