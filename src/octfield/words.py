"""Free-group words, spelling length, and conjugacy-product minimization.

A word is an immutable sequence of signed integers: letter ``+g`` is the
g-th generator and ``-g`` its inverse (1-based, ``g <= alphabet_size``).
The spelling length ``lambda`` of a word is the minimal number of factors
in any factorization of the corresponding group element into conjugates
of generators and inverse generators; it is computed here by an interval
dynamic program and descends to the free group.

Text format for words: generators as lowercase letters ``a b c ...`` or
``c1 c2 ...``, inverses with a trailing apostrophe, the empty word as
``e``.  Example: ``"a b a' b'"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

__all__ = [
    "Word",
    "Pairing",
    "ClassProductSpec",
    "SearchResult",
    "SearchTooLargeError",
    "MAX_ASSIGNMENTS",
    "MAX_WORD_LETTERS",
    "word",
    "free_reduce",
    "inverse",
    "concat",
    "conjugate",
    "generator_degree",
    "generator_degrees",
    "abelian_bound",
    "spelling_length",
    "optimal_pairing",
    "pairing_is_valid",
    "apply_homomorphism",
    "cyclic_canonical",
    "certified_lower_bound",
    "product_lower_bound",
    "min_spelling_over_product",
    "reduced_words",
    "parse_word",
    "format_word",
]


@dataclass(frozen=True)
class Word:
    """An immutable word over the alphabet of N generators and inverses."""

    alphabet_size: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.alphabet_size:
                raise ValueError(f"letter {letter} outside alphabet of size {self.alphabet_size}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


# A pairing is a set of unordered pairs of 1-based letter positions.
Pairing = frozenset


def word(alphabet_size: int, letters=()) -> Word:
    return Word(alphabet_size, tuple(letters))


def _reduce_letters(letters) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """Free reduction: the letters left, the 0-based raw position of each, and
    the raw position pairs (earlier, later) that cancel."""
    kept: list[int] = []
    where: list[int] = []
    cancelled: list[tuple[int, int]] = []
    for pos, letter in enumerate(letters):
        if kept and kept[-1] == -letter:
            kept.pop()
            cancelled.append((where.pop(), pos))
        else:
            kept.append(letter)
            where.append(pos)
    return kept, where, cancelled


def free_reduce(u: Word) -> Word:
    """Cancel all adjacent inverse pairs; the result is the unique reduced form."""
    return Word(u.alphabet_size, tuple(_reduce_letters(u.letters)[0]))


def inverse(u: Word) -> Word:
    """Reversed word with every letter's sign flipped."""
    return Word(u.alphabet_size, tuple(-letter for letter in reversed(u.letters)))


def concat(*parts: Word) -> Word:
    if not parts:
        raise ValueError("concat needs at least one word")
    n = parts[0].alphabet_size
    letters: list[int] = []
    for p in parts:
        if p.alphabet_size != n:
            raise ValueError("cannot concatenate words over different alphabets")
        letters.extend(p.letters)
    return Word(n, tuple(letters))


def conjugate(u: Word, h: Word) -> Word:
    """h u h^-1, freely reduced."""
    return free_reduce(concat(h, u, inverse(h)))


def generator_degree(u: Word, g: int) -> int:
    """Signed count of occurrences of generator g (positive minus inverse)."""
    if not 1 <= g <= u.alphabet_size:
        raise ValueError(f"generator {g} outside alphabet")
    return sum(1 if letter == g else -1 if letter == -g else 0 for letter in u.letters)


def generator_degrees(u: Word) -> tuple[int, ...]:
    degs = [0] * u.alphabet_size
    for letter in u.letters:
        degs[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(degs)


def abelian_bound(u: Word) -> int:
    """Sum of |degree| over generators; a lower bound for the spelling length."""
    return sum(abs(d) for d in generator_degrees(u))


def _canonical_form(letters) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, int]]]:
    """Free reduction, cyclic reduction and the least rotation of ``letters``.

    Returns the canonical letters (as ``cyclic_canonical``), the 0-based raw
    position of each of them, and the raw position pairs (earlier, later)
    that the free and cyclic reductions cancel.  The cancelled pairs are
    nested or disjoint, and no surviving letter lies inside one of them.
    """
    kept, where, cancelled = _reduce_letters(letters)
    # a reduced word stays reduced when inverse end pairs are trimmed off
    i, j = 0, len(kept)
    while j - i >= 2 and kept[i] == -kept[j - 1]:
        cancelled.append((where[i], where[j - 1]))
        i += 1
        j -= 1
    kept, where = kept[i:j], where[i:j]
    if not kept:
        return (), (), cancelled
    # letters ordered 1, -1, 2, -2, ...; the first least rotation wins
    keys = [2 * abs(x) - (x > 0) for x in kept]
    r = min(range(len(keys)), key=lambda s: keys[s:] + keys[:s])
    return tuple(kept[r:] + kept[:r]), tuple(where[r:] + where[:r]), cancelled


# The canonical letters of the most recent word only: the class-product
# search canonicalises each candidate for its ``seen`` set, and
# ``spelling_length`` of the same candidate asks again.
_LAST_CANONICAL: dict[tuple[int, ...], tuple[int, ...]] = {}


def cyclic_canonical(u: Word) -> tuple[int, ...]:
    """Canonical representative of the conjugacy class: cyclically reduced,
    lexicographically smallest rotation (letters ordered 1, -1, 2, -2, ...)."""
    canon = _LAST_CANONICAL.get(u.letters)
    if canon is None:
        _LAST_CANONICAL.clear()
        canon = _LAST_CANONICAL[u.letters] = _canonical_form(u.letters)[0]
    return canon


_LAMBDA_CACHE: dict[tuple[int, ...], int] = {}

# The DP table of the most recent canonical form only: ``spelling_length``
# builds it and ``optimal_pairing`` of the same word reads it back.
_LAST_TABLE: dict[tuple[int, ...], list[list[int]]] = {}

# Longest word the command line accepts: the interval DP is cubic in the
# length.  On a 2-core VM with Python 3.11, ``octfield spelling --word``
# spends 0.9 s of CPU on a random 1000-letter word over three generators (650
# letters after reduction), and the DP plus pairing of a freely reduced
# 1000-letter word take 1.3-2.4 s.
MAX_WORD_LETTERS = 1000


def _lambda_dp(w: tuple[int, ...]) -> list[list[int]]:
    """Interval DP table: lam[i][j] = spelling length of w[i:j].

    Rows are filled from the last down, so row i reads only rows below it.
    Along row i, ``active`` gathers each partner t of w[i] (w[t] = w[i]^-1)
    once j has passed it, as (lam[i+1][t], row t+1); only those are scanned.
    """
    k = len(w)
    lam = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        below = lam[i + 1]
        first = -w[i]
        row = lam[i]
        active: list[tuple[int, list[int]]] = []
        for j in range(i + 1, k + 1):
            if j - 1 > i and w[j - 1] == first:
                active.append((below[j - 1], lam[j]))
            best = 1 + below[j]
            for left, right in active:
                cand = left + right[j]
                if cand < best:
                    best = cand
            row[j] = best
    return lam


def _table(canon: tuple[int, ...]) -> list[list[int]]:
    table = _LAST_TABLE.get(canon)
    if table is None:
        _LAST_TABLE.clear()
        table = _LAST_TABLE[canon] = _lambda_dp(canon)
    return table


def spelling_length(u: Word) -> int:
    """Minimal factor count over all spellings of [u] into conjugated letters.

    Computed by the interval recursion
    lambda(U) = min(1 + lambda(U[1:]), min_{U[t] = U[0]^-1} lambda(U[1:t]) + lambda(U[t+1:])),
    which is invariant under free reduction and cyclic rotation; both facts are
    exploited for caching.
    """
    canon = cyclic_canonical(u)
    value = _LAMBDA_CACHE.get(canon)
    if value is None:
        value = _LAMBDA_CACHE[canon] = _table(canon)[0][len(canon)]
    return value


def optimal_pairing(u: Word) -> Pairing:
    """A pairing of mutually inverse letters realizing the spelling length.

    Pairs are unordered 1-based index pairs; intervals are nested or disjoint
    and L(u) - 2|pairs| = spelling_length(u).  The letters that free and
    cyclic reduction cancel are paired as they cancel; the rest are paired
    by the DP on the canonical form, whose ties prefer the smallest partner
    in the canonical rotation.  A non-crossing pairing of a cyclic word
    stays non-crossing in every rotation, so mapping it back to the raw
    positions keeps it valid.
    """
    w, where, cancelled = _canonical_form(u.letters)
    lam = _table(w)
    pairs = {(a + 1, b + 1) for a, b in cancelled}
    stack = [(0, len(w))]
    while stack:
        i, j = stack.pop()
        if j - i <= 0:
            continue
        target = lam[i][j]
        paired = False
        for t in range(i + 1, j):
            if w[t] == -w[i] and lam[i + 1][t] + lam[t + 1][j] == target:
                a, b = sorted((where[i], where[t]))
                pairs.add((a + 1, b + 1))
                stack.append((i + 1, t))
                stack.append((t + 1, j))
                paired = True
                break
        if not paired:
            # w[i] contributes a factor of its own
            stack.append((i + 1, j))
    return frozenset(pairs)


def pairing_is_valid(u: Word, pairing) -> bool:
    """Check conditions: paired letters are mutual inverses, intervals nested
    or disjoint, no index in two pairs."""
    seen: set[int] = set()
    intervals = []
    for pair in pairing:
        a, b = sorted(pair)
        if not (1 <= a < b <= len(u.letters)):
            return False
        if u.letters[a - 1] != -u.letters[b - 1]:
            return False
        if a in seen or b in seen:
            return False
        seen.update((a, b))
        intervals.append((a, b))
    for (a1, b1), (a2, b2) in itertools.combinations(intervals, 2):
        disjoint = b1 < a2 or b2 < a1
        nested = (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)
        if not (disjoint or nested):
            return False
    return True


def apply_homomorphism(u: Word, images: list[Word]) -> Word:
    """Substitute images[g-1] for each generator g (inverses map to inverse
    images) and freely reduce."""
    if len(images) < u.alphabet_size:
        raise ValueError("an image is required for every generator")
    target_n = images[0].alphabet_size if images else u.alphabet_size
    letters: list[int] = []
    for letter in u.letters:
        img = images[abs(letter) - 1]
        if img.alphabet_size != target_n:
            raise ValueError("homomorphism images must share one alphabet")
        letters.extend(img.letters if letter > 0 else inverse(img).letters)
    return free_reduce(Word(target_n, tuple(letters)))


# ---------------------------------------------------------------------------
# Certified lower bounds and conjugacy-product search
# ---------------------------------------------------------------------------

def certified_lower_bound(i: int, j: int, k: int, p: int, n: int, variant: str = "P") -> int:
    """Certified lower bound for min spelling length over the set product
    <A^i B^j C^k> <F>^p <F^-1>^n with F = CBA (variant "P") or F = ABC
    (variant "Q").

    Combines the combinatorial bound (i+j+k-(p+n) for P, i+j+k-(p+n+2) for Q),
    the abelian bound from generator degrees, and nonnegativity; the result is
    then raised by one if its parity disagrees with the sum of degrees.
    """
    if variant not in ("P", "Q"):
        raise ValueError("variant must be 'P' or 'Q'")
    if min(i, j, k, p, n) < 0:
        raise ValueError("arguments must be non-negative")
    shape = i + j + k - (p + n) if variant == "P" else i + j + k - (p + n + 2)
    crude = i + j + k + 3 * (p - n)
    degs = (i + p - n, j + p - n, k + p - n)
    abelian = sum(abs(d) for d in degs)
    lower = max(shape, crude, abelian, 0)
    if lower % 2 != abelian % 2:
        lower += 1
    return lower


@dataclass(frozen=True)
class ClassProductSpec:
    """Set product {base} <f1>^m1 <f2>^m2 ... of a word with conjugacy classes.

    ``factors`` lists (word, multiplicity) pairs; the search conjugates each
    factor occurrence by words of at most ``search_budget`` letters.
    """

    base: Word
    factors: tuple = ()
    search_budget: int = 3

    def __post_init__(self) -> None:
        if self.search_budget < 0:
            raise ValueError("search_budget must be >= 0")
        for f, mult in self.factors:
            if f.alphabet_size != self.base.alphabet_size:
                raise ValueError("all words must share one alphabet")
            if mult < 0:
                raise ValueError("multiplicities must be non-negative")


# Most conjugator assignments one class-product search may enumerate.
MAX_ASSIGNMENTS = 10**6


class SearchTooLargeError(ValueError):
    """A class-product search with more than MAX_ASSIGNMENTS assignments."""


@dataclass(frozen=True)
class SearchResult:
    upper: int
    lower: int
    witness: Word
    exact: bool
    budget_exhausted: bool
    conjectured_lower: int | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("certified lower bound exceeds searched upper bound")


def reduced_words(alphabet_size: int, max_len: int):
    """All freely reduced words of length <= max_len, by (length, lex) order.

    Letters are ordered 1, -1, 2, -2, ... as in the canonical form.
    """
    order = [g for i in range(1, alphabet_size + 1) for g in (i, -i)]
    frontier: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in order:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        for w in nxt:
            yield w
        frontier = nxt


def _reduced_word_count(alphabet_size: int, max_len: int) -> int:
    """len(list(reduced_words(alphabet_size, max_len))), without listing."""
    return 1 + sum(2 * alphabet_size * (2 * alphabet_size - 1) ** (n - 1)
                   for n in range(1, max_len + 1))


def _assignments_by_cost(lengths: list[int], multiplicities: list[int]):
    """Conjugator assignments by (total length, lexicographic) order.

    ``lengths[idx]`` is the length of conjugator ``idx``; it must be
    nondecreasing in ``idx`` and take every value from 0 to its last one, as
    for ``reduced_words``.  An assignment is the concatenation of one
    nondecreasing index tuple of length ``m`` per multiplicity ``m``.  The
    sequence equals sorting the flattened product of
    ``combinations_with_replacement`` by (total length, assignment), but it
    is generated lazily: for each total length, slot by slot, each slot only
    takes indices from which the remaining slots can spend exactly the
    length left (at least this slot's length for each later slot of its
    class, at most the longest length for every later slot).
    """
    longest = lengths[-1]
    first = {}
    for idx, length in enumerate(lengths):
        first.setdefault(length, idx)
    # per slot: does it start its class, how many slots of its class follow
    slots = [(r == 0, m - 1 - r) for m in multiplicities for r in range(m)]
    total = len(slots)
    if not total:
        yield ()
        return
    chosen = [0] * total
    left = [0] * total  # length left for slots s, s+1, ...

    def start(s: int) -> int:
        """The first index slot s may take."""
        lo = 0 if slots[s][0] else chosen[s - 1]
        return max(lo, first[max(0, left[s] - (total - s - 1) * longest)])

    for cost in range(total * longest + 1):
        # depth-first over the slots in one loop, so no call stack grows with them
        s, left[0] = 0, cost
        idx = start(0)
        while s >= 0:
            if idx < len(lengths) and lengths[idx] * (slots[s][1] + 1) <= left[s]:
                chosen[s] = idx
                if s + 1 < total:
                    left[s + 1] = left[s] - lengths[idx]
                    s += 1
                    idx = start(s)
                    continue
                yield tuple(chosen)
                idx += 1
            else:
                s -= 1  # back to the previous slot's next index; -1 ends
                idx = chosen[s] + 1


def _pq_shape(base: Word, merged: dict):
    """Recognize the <A^i B^j C^k><F>^p<F^-1>^n shape of base times the
    merged classes; return (i, j, k, p, n, variant) or None."""
    if base.alphabet_size != 3:
        return None
    letters = free_reduce(base).letters
    counts = [0, 0, 0]
    pos = 0
    for g in (1, 2, 3):
        while pos < len(letters) and letters[pos] == g:
            counts[g - 1] += 1
            pos += 1
    if pos != len(letters):
        return None
    cba = cyclic_canonical(word(3, (3, 2, 1)))
    cba_inv = cyclic_canonical(word(3, (-1, -2, -3)))
    abc = cyclic_canonical(word(3, (1, 2, 3)))
    abc_inv = cyclic_canonical(word(3, (-3, -2, -1)))
    p_cba = n_cba = p_abc = n_abc = 0
    for canon, (_, mult) in merged.items():
        if canon == cba:
            p_cba += mult
        elif canon == cba_inv:
            n_cba += mult
        elif canon == abc:
            p_abc += mult
        elif canon == abc_inv:
            n_abc += mult
        else:
            return None
    i, j, k = counts
    if p_abc == 0 and n_abc == 0:
        return (i, j, k, p_cba, n_cba, "P")
    if p_cba == 0 and n_cba == 0:
        return (i, j, k, p_abc, n_abc, "Q")
    return None


def _merged_classes(spec: ClassProductSpec) -> dict:
    """Factor occurrences merged by conjugacy class: cyclic canonical form ->
    (first word of the class, total multiplicity)."""
    merged: dict[tuple[int, ...], tuple[Word, int]] = {}
    for f, mult in spec.factors:
        if mult:
            canon = cyclic_canonical(f)
            first, seen = merged.get(canon, (f, 0))
            merged[canon] = (first, seen + mult)
    return merged


def _lower_bounds(base: Word, merged: dict) -> tuple[int, int | None]:
    """The certified lower bound on the spelling length over base times the
    merged classes: the certified value when the product matches the
    <A^i B^j C^k><CBA-type>^p<...>^n shape, else the abelian bound; and the
    conjectured (unproven, never certified) strengthening, or None."""
    shape = _pq_shape(base, merged)
    if shape is None:
        total_degrees = list(generator_degrees(base))
        for f, mult in merged.values():
            for g, d in enumerate(generator_degrees(f)):
                total_degrees[g] += mult * d
        return sum(abs(d) for d in total_degrees), None
    i, j, k, p, n, variant = shape
    conjectured = i + j + k - n if variant == "P" and p > 0 else None
    return certified_lower_bound(i, j, k, p, n, variant), conjectured


def product_lower_bound(spec: ClassProductSpec) -> int:
    """The certified lower bound that ``min_spelling_over_product`` reports,
    computed without searching."""
    return _lower_bounds(spec.base, _merged_classes(spec))[0]


def min_spelling_over_product(spec: ClassProductSpec) -> SearchResult:
    """Search the set product for the minimal spelling length.

    The upper bound is the minimum of ``spelling_length`` over products
    base * h1 f1 h1^-1 * ... with conjugators enumerated as reduced words of
    at most ``search_budget`` letters (conjugators within one conjugacy class
    are unordered, since set products of conjugation-invariant sets commute).
    The lower bound is ``product_lower_bound``'s, known before the search.

    Assignments of conjugators are tried by increasing total conjugator
    length, ties in lexicographic order of the conjugator indices (reduced
    words listed by length, then lex); products already seen up to cyclic
    reduction and rotation are skipped.  The search stops at the first
    product whose spelling length equals the lower bound; the witness is the
    smallest (spelling length, word length, letters) seen.

    Raises SearchTooLargeError before any work when the number of
    assignments exceeds MAX_ASSIGNMENTS.
    """
    n_gen = spec.base.alphabet_size
    merged = _merged_classes(spec)
    n_conjugators = _reduced_word_count(n_gen, spec.search_budget)
    count = math.prod(math.comb(n_conjugators + mult - 1, mult) for _, mult in merged.values())
    if count > MAX_ASSIGNMENTS:
        raise SearchTooLargeError(
            f"{count} conjugator assignments exceed the limit of {MAX_ASSIGNMENTS}; "
            "lower the search budget or the multiplicities"
        )
    lower, conjectured = _lower_bounds(spec.base, merged)

    # without classes only the empty assignment exists, whatever the budget
    conjugators = list(reduced_words(n_gen, spec.search_budget if merged else 0))
    slot_factors = [f.letters for f, mult in merged.values() for _ in range(mult)]

    best_lam: int | None = None
    best_witness: Word | None = None
    seen: set[tuple[int, ...]] = set()
    exhausted = True
    for assignment in _assignments_by_cost([len(h) for h in conjugators],
                                           [mult for _, mult in merged.values()]):
        letters: list[int] = list(spec.base.letters)
        for f, idx in zip(slot_factors, assignment):
            h = conjugators[idx]
            letters.extend(h)
            letters.extend(f)
            letters.extend(-x for x in reversed(h))
        candidate = free_reduce(Word(n_gen, tuple(letters)))
        canon_c = cyclic_canonical(candidate)
        if canon_c in seen:
            continue
        seen.add(canon_c)
        lam = spelling_length(candidate)
        if best_lam is None or (lam, len(candidate.letters), candidate.letters) < (
            best_lam,
            len(best_witness.letters),
            best_witness.letters,
        ):
            best_lam = lam
            best_witness = candidate
        if best_lam == lower:
            exhausted = False
            break

    assert best_lam is not None and best_witness is not None
    return SearchResult(
        upper=best_lam,
        lower=lower,
        witness=best_witness,
        exact=best_lam == lower,
        budget_exhausted=exhausted and best_lam != lower,
        conjectured_lower=conjectured,
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_LETTER_NAMES = "abcd"  # small alphabets print as letters, larger as c1..cN


def parse_word(text: str, alphabet_size: int | None = None) -> Word:
    """Parse the CLI text format: 'a b a' b'', 'c1 c2'', or 'e' for empty.

    Without ``alphabet_size`` the alphabet is the largest generator used (1
    for the empty word); a given size, 0 included, is checked by ``Word``."""
    tokens = text.replace(",", " ").split()
    if tokens == ["e"] or not tokens:
        return Word(1 if alphabet_size is None else alphabet_size, ())
    letters = []
    max_gen = 0
    for tok in tokens:
        inv = tok.endswith("'")
        name = tok[:-1] if inv else tok
        if name.startswith("c") and name[1:].isdigit():
            g = int(name[1:])
        elif len(name) == 1 and name in _LETTER_NAMES:
            g = _LETTER_NAMES.index(name) + 1
        else:
            raise ValueError(f"cannot parse letter {tok!r}")
        if g < 1:
            raise ValueError(f"cannot parse letter {tok!r}")
        max_gen = max(max_gen, g)
        letters.append(-g if inv else g)
    return Word(max_gen if alphabet_size is None else alphabet_size, tuple(letters))


def format_word(u: Word) -> str:
    if not u.letters:
        return "e"
    parts = []
    for letter in u.letters:
        g = abs(letter)
        name = _LETTER_NAMES[g - 1] if u.alphabet_size <= len(_LETTER_NAMES) else f"c{g}"
        parts.append(name + ("'" if letter < 0 else ""))
    return " ".join(parts)
