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

import bisect
import functools
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


def _known_word(alphabet_size: int, letters: tuple[int, ...]) -> Word:
    """The Word of letters already known to lie in the alphabet, built
    without checking each letter again: the class-product search assembles
    its candidates from valid words over one alphabet."""
    u = object.__new__(Word)
    object.__setattr__(u, "alphabet_size", alphabet_size)
    object.__setattr__(u, "letters", letters)
    return u


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


def _canonical_form(letters) -> tuple[tuple[int, ...], tuple[int, ...],
                                      tuple[tuple[int, int], ...]]:
    """Free reduction, cyclic reduction and the least rotation of ``letters``.

    Returns the canonical letters (as ``cyclic_canonical``), the 0-based raw
    position of each of them, and the raw position pairs (earlier, later)
    that the free and cyclic reductions cancel.  The cancelled pairs are
    nested or disjoint, and no surviving letter lies inside one of them.
    """
    return _cyclic_form(*_reduce_letters(letters))


def _cyclic_form(kept: list[int], where: list[int], cancelled: list[tuple[int, int]]):
    """``_canonical_form`` from the freely reduced letters, as ``_reduce_letters``
    returns them; ``cancelled`` is extended in place."""
    # a reduced word stays reduced when inverse end pairs are trimmed off
    i, j = 0, len(kept)
    while j - i >= 2 and kept[i] == -kept[j - 1]:
        cancelled.append((where[i], where[j - 1]))
        i += 1
        j -= 1
    kept, where = kept[i:j], where[i:j]
    if not kept:
        return (), (), tuple(cancelled)
    r = _least_rotation(kept)
    return tuple(kept[r:] + kept[:r]), tuple(where[r:] + where[:r]), tuple(cancelled)


def _least_rotation(kept: list[int]) -> int:
    """The first start of the least rotation, letters ordered 1, -1, 2, -2, ...

    Only a position holding the least letter can start it, and the earliest
    of those whose rotation is least is the first least start overall.
    """
    n = len(kept)
    keys = [2 * x - 1 if x > 0 else -2 * x for x in kept]
    least = min(keys)
    starts = [s for s in range(n) if keys[s] == least]
    if len(starts) == 1:  # most search candidates: no rotation to compare
        return starts[0]
    doubled = keys + keys
    return min(starts, key=lambda s: doubled[s:s + n])


# ``_canonical_form``'s whole (canon, where, cancelled) triple for the most
# recent letters only: ``cyclic_canonical``, ``spelling_length`` and
# ``optimal_pairing`` of one word read it from here, and the class-product
# search leaves each new candidate's triple here for ``spelling_length``.
_LAST_CANONICAL: dict[tuple[int, ...], tuple] = {}


def _canonical(letters: tuple[int, ...]) -> tuple:
    """``_canonical_form(letters)``, computed once for consecutive calls."""
    form = _LAST_CANONICAL.get(letters)
    if form is None:
        _LAST_CANONICAL.clear()
        form = _LAST_CANONICAL[letters] = _canonical_form(letters)
    return form


def cyclic_canonical(u: Word) -> tuple[int, ...]:
    """Canonical representative of the conjugacy class: cyclically reduced,
    lexicographically smallest rotation (letters ordered 1, -1, 2, -2, ...)."""
    return _canonical(u.letters)[0]


_LAMBDA_CACHE: dict[tuple[int, ...], int] = {}

# The DP table of the most recent canonical form only: ``spelling_length``
# builds it and ``optimal_pairing`` of the same word reads it back.
_LAST_TABLE: dict[tuple[int, ...], list[list[int]]] = {}

# Longest word the command line accepts: the interval DP is cubic in the
# length in the worst case.  On a 2-core VM with Python 3.11, ``octfield
# spelling --word`` spends 0.3-0.4 s of CPU on a random 1000-letter word over
# three generators (662 letters after reduction).  The DP plus pairing take
# 0.3-0.6 s on a cyclically reduced random 1000-letter word and 0.75-0.93 s
# on (a b a' b')^250, where nearly every position is a partner.
MAX_WORD_LETTERS = 1000


def _lambda_dp(w: tuple[int, ...]) -> list[list[int]]:
    """Interval DP table: lam[i][j] = spelling length of w[i:j].

    Rows are filled from the last down, so row i reads only rows below it.
    Cell (i, j) takes the least of 1 + lam[i+1][j] (w[i] alone) and, for
    each split candidate c of the row, lam[i][c+1] + lam[c+1][j].  A partner
    t of w[i] (w[t] = w[i]^-1) is weighed at cell (i, t+1), where pairing
    the two costs lam[i+1][t]; it joins the candidates only if that is
    strictly below every option the row already has there, and then
    lam[i][t+1] is that pairing value.

    The table equals the dense rule, which scans every partner t < j, cell
    for cell, because lam is subadditive: lam[a][b] <= lam[a][m] + lam[m][b].
    A listed candidate's term is its pairing term, as lam[i][c+1] =
    lam[i+1][c].  A partner left off is dominated at t+1 by w[i] alone or
    by a candidate c, and at every later j its pairing term is at least
    1 + lam[i+1][t+1] + lam[t+1][j] >= 1 + lam[i+1][j], or
    lam[i][c+1] + lam[c+1][t+1] + lam[t+1][j] >= lam[i][c+1] + lam[c+1][j].
    This is the candidate-list sparsification of Nussinov-type folding DPs
    (Wexler, Zilberstein & Ziv-Ukelson, J. Comput. Biol. 2007; Backofen,
    Tsur, Zakov & Ziv-Ukelson, J. Discrete Algorithms 2011).
    """
    k = len(w)
    lam = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        below = lam[i + 1]
        first = -w[i]
        row = lam[i]
        candidates: list[tuple[int, list[int]]] = []
        for j in range(i + 1, k + 1):
            best = 1 + below[j]
            for left, right in candidates:
                cand = left + right[j]
                if cand < best:
                    best = cand
            if w[j - 1] == first and below[j - 1] < best:
                best = below[j - 1]
                candidates.append((best, lam[j]))
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
    w, where, cancelled = _canonical(u.letters)
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


# The conjugators of the last few (alphabet size, budget) pairs, listed once
# per pair: (h, h^-1) letter-tuple pairs in ``reduced_words`` order, and the
# length of each h.
@functools.lru_cache(maxsize=8)
def _conjugators(alphabet_size: int, max_len: int) -> tuple[tuple, tuple[int, ...]]:
    pairs = tuple((h, tuple(-x for x in reversed(h)))
                  for h in reduced_words(alphabet_size, max_len))
    return pairs, tuple(len(h) for h, _ in pairs)


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
    first = [bisect.bisect_left(lengths, length) for length in range(longest + 1)]
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


# The canonical forms of the four reference classes that ``_pq_shape``
# recognizes, each with its variant and whether it is F or F^-1.
_PQ_CLASSES = {
    _canonical_form(letters)[0]: key
    for letters, key in (((3, 2, 1), ("P", 1)), ((-1, -2, -3), ("P", -1)),
                         ((1, 2, 3), ("Q", 1)), ((-3, -2, -1), ("Q", -1)))
}


def _pq_shape(base: Word, merged: dict):
    """Recognize the <A^i B^j C^k><F>^p<F^-1>^n shape of base times the
    merged classes; return (i, j, k, p, n, variant) or None."""
    if base.alphabet_size != 3:
        return None
    letters = _reduce_letters(base.letters)[0]
    counts = [0, 0, 0]
    pos = 0
    for g in (1, 2, 3):
        while pos < len(letters) and letters[pos] == g:
            counts[g - 1] += 1
            pos += 1
    if pos != len(letters):
        return None
    mults = dict.fromkeys(_PQ_CLASSES.values(), 0)
    for canon, (_, mult) in merged.items():
        key = _PQ_CLASSES.get(canon)
        if key is None:
            return None
        mults[key] += mult
    i, j, k = counts
    for variant, other in (("P", "Q"), ("Q", "P")):
        if mults[other, 1] == 0 and mults[other, -1] == 0:
            return (i, j, k, mults[variant, 1], mults[variant, -1], variant)
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


def min_spelling_over_product(spec: ClassProductSpec) -> SearchResult:
    """Search the set product for the minimal spelling length.

    The upper bound is the minimum of ``spelling_length`` over products
    base * h1 f1 h1^-1 * ... with conjugators enumerated as reduced words of
    at most ``search_budget`` letters (conjugators within one conjugacy class
    are unordered, since set products of conjugation-invariant sets commute).
    The certified lower bound (``_lower_bounds``) is known before the search.

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
    conjugators, lengths = _conjugators(n_gen, spec.search_budget if merged else 0)
    slot_factors = [f.letters for f, mult in merged.values() for _ in range(mult)]

    # candidates stay letter tuples; a Word is built only for a new class
    best: tuple | None = None  # (spelling length, word length, letters)
    seen: set[tuple[int, ...]] = set()
    exhausted = True
    for assignment in _assignments_by_cost(lengths, [mult for _, mult in merged.values()]):
        letters: list[int] = list(spec.base.letters)
        for f, idx in zip(slot_factors, assignment):
            h, h_inv = conjugators[idx]
            letters += h
            letters += f
            letters += h_inv
        kept = _reduce_letters(letters)[0]
        reduced = tuple(kept)
        # the candidate is reduced, so only the cyclic step is left; the
        # cache hands its form to ``spelling_length`` of a new class
        _LAST_CANONICAL.clear()
        form = _LAST_CANONICAL[reduced] = _cyclic_form(kept, list(range(len(kept))), [])
        canon_c = form[0]
        if canon_c in seen:
            continue
        seen.add(canon_c)
        lam = spelling_length(_known_word(n_gen, reduced))
        if best is None or (lam, len(reduced), reduced) < best:
            best = (lam, len(reduced), reduced)
        if best[0] == lower:
            exhausted = False
            break

    assert best is not None
    best_lam = best[0]
    return SearchResult(
        upper=best_lam,
        lower=lower,
        witness=_known_word(n_gen, best[2]),
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
