import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from octfield import words
from octfield.words import (
    MAX_ASSIGNMENTS,
    ClassProductSpec,
    SearchTooLargeError,
    Word,
    abelian_bound,
    apply_homomorphism,
    certified_lower_bound,
    concat,
    cyclic_canonical,
    format_word,
    free_reduce,
    generator_degree,
    generator_degrees,
    inverse,
    min_spelling_over_product,
    optimal_pairing,
    pairing_is_valid,
    parse_word,
    reduced_words,
    spelling_length,
    word,
)


def test_free_reduce_identity_pair():
    assert free_reduce(word(1, (1, -1))).letters == ()


def test_free_reduce_single_cancellation():
    # (A, B, B^-1, C) -> (A, C)
    assert free_reduce(word(3, (1, 2, -2, 3))).letters == (1, 3)


def test_free_reduce_idempotent():
    u = word(3, (1, 2, -2, -1, 3, 1, -1))
    once = free_reduce(u)
    assert free_reduce(once) == once


def test_inverse_two_letters():
    assert inverse(word(2, (1, -2))).letters == (2, -1)


def test_inverse_of_empty_is_empty():
    assert inverse(word(2, ())).letters == ()


def test_inverse_is_involution():
    import random

    rng = random.Random(11)
    for _ in range(200):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 15))
        )
        u = word(3, letters)
        assert inverse(inverse(u)) == u


def test_reduce_word_times_inverse_is_empty():
    import random

    rng = random.Random(5)
    for _ in range(1000):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 20))
        )
        u = word(3, letters)
        assert free_reduce(concat(u, inverse(u))).letters == ()


def test_generator_degree_commutator():
    u = word(2, (1, 2, -1, -2))
    assert generator_degree(u, 1) == 0
    assert generator_degree(u, 2) == 0


def test_generator_degree_power():
    assert generator_degree(word(1, (1, 1, 1)), 1) == 3


def test_degree_invariant_under_reduction():
    import random

    rng = random.Random(3)
    for _ in range(200):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 16))
        )
        u = word(3, letters)
        assert generator_degrees(u) == generator_degrees(free_reduce(u))


# -- spelling length ---------------------------------------------------------

def test_lambda_empty():
    assert spelling_length(word(3, ())) == 0


def test_lambda_conjugated_letter():
    h = word(3, (1, -2, 3))
    u = concat(h, word(3, (2,)), inverse(h))
    assert spelling_length(u) == 1


def test_lambda_commutator():
    assert spelling_length(word(2, (1, 2, -1, -2))) == 2


def test_lambda_nested_commutator_form():
    # (A, B, C, B^-1, C^-1, A^-1) has spelling length 2
    assert spelling_length(word(3, (1, 2, 3, -2, -3, -1))) == 2


def _brute_max_pairing(u: Word) -> int:
    """Independent oracle: maximal valid pairing size by exhaustive search."""
    letters = u.letters
    candidates = [
        (a + 1, b + 1)
        for a, b in itertools.combinations(range(len(letters)), 2)
        if letters[a] == -letters[b]
    ]
    best = 0
    for size in range(len(letters) // 2, 0, -1):
        for combo in itertools.combinations(candidates, size):
            if pairing_is_valid(u, frozenset(combo)):
                return size
    return best


def test_lambda_matches_bruteforce_on_small_words():
    import random

    rng = random.Random(17)
    for _ in range(60):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(rng.randint(0, 8))
        )
        u = word(2, letters)
        assert spelling_length(u) == len(letters) - 2 * _brute_max_pairing(u)


def test_optimal_pairing_full_cancellation():
    assert optimal_pairing(word(1, (1, -1))) == frozenset({(1, 2)})


def test_optimal_pairing_conjugate():
    # lambda((A, B, A^-1)) = 1 forces the A pair
    assert optimal_pairing(word(2, (1, 2, -1))) == frozenset({(1, 3)})


def test_pairing_consistency_random():
    import random

    rng = random.Random(23)
    for _ in range(300):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 12))
        )
        u = word(3, letters)
        pairing = optimal_pairing(u)
        assert pairing_is_valid(u, pairing)
        assert len(u.letters) - 2 * len(pairing) == spelling_length(u)


def _scan_every_t_dp(w):
    """Oracle: the interval DP by span, scanning every t in (i, j)."""
    k = len(w)
    lam = [[0] * (k + 1) for _ in range(k + 1)]
    for span in range(1, k + 1):
        for i in range(k - span + 1):
            j = i + span
            lam[i][j] = min([1 + lam[i + 1][j]] + [
                lam[i + 1][t] + lam[t + 1][j] for t in range(i + 1, j) if w[t] == -w[i]
            ])
    return lam


_letter = st.sampled_from((1, -1, 2, -2, 3, -3))


@given(st.lists(_letter, max_size=40))
def test_lambda_dp_table_matches_scan_every_t_oracle(letters):
    w = tuple(letters)
    assert words._lambda_dp(w) == _scan_every_t_dp(w)


def _structured_words(n):
    """(a b a' b')^n, (a b c a' b' c')^(2n/3) and a^n b^n a^-n b^-n, of 4n
    letters each: dense in partners, with many splits of equal value."""
    return [
        (1, 2, -1, -2) * n,
        (1, 2, 3, -1, -2, -3) * (2 * n // 3),
        (1,) * n + (2,) * n + (-1,) * n + (-2,) * n,
    ]


@st.composite
def _words_over_small_alphabets(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    letter = st.integers(min_value=1, max_value=size).flatmap(
        lambda g: st.sampled_from((g, -g)))
    # the length is drawn first: a wrong candidate rule shows mostly above
    # 20 letters, longer than plain list draws tend to be
    length = draw(st.integers(min_value=0, max_value=60))
    return word(size, draw(st.lists(letter, min_size=length, max_size=length)))


@given(_words_over_small_alphabets())
def test_lambda_dp_table_matches_the_oracle_over_alphabets_of_one_to_five(u):
    # over one or two generators nearly every position is a partner
    for w in (u.letters, cyclic_canonical(u)):
        assert words._lambda_dp(w) == _scan_every_t_dp(w)


@pytest.mark.parametrize("w", _structured_words(30))
def test_lambda_dp_table_matches_the_oracle_on_structured_words(w):
    assert words._lambda_dp(w) == _scan_every_t_dp(w)


def test_pairing_consistency_on_long_words():
    import random

    rng = random.Random(29)
    long_words = [
        word(3, [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(300, 500))])
        for _ in range(4)
    ]
    long_words += [word(3, w) for w in _structured_words(30) + _structured_words(90)]
    for u in long_words:
        pairing = optimal_pairing(u)
        assert pairing_is_valid(u, pairing)
        assert len(u) - 2 * len(pairing) == spelling_length(u)


@given(st.lists(_letter, max_size=6), st.lists(_letter, max_size=14),
       st.integers(min_value=0), st.lists(st.tuples(_letter, st.integers(min_value=0)),
                                          max_size=3))
def test_optimal_pairing_on_unreduced_conjugated_rotated_words(conjugator, core, shift,
                                                               insertions):
    letters = conjugator + core + [-y for y in reversed(conjugator)]
    if letters:
        shift %= len(letters)
        letters = letters[shift:] + letters[:shift]
    for x, at in insertions:
        at %= len(letters) + 1
        letters[at:at] = [x, -x]
    u = word(3, letters)
    pairing = optimal_pairing(u)
    assert pairing_is_valid(u, pairing)
    assert all(a < b for a, b in pairing)
    assert len(u) - 2 * len(pairing) == spelling_length(u)
    canon, where, cancelled = words._canonical_form(u.letters)
    assert canon == cyclic_canonical(u)
    assert tuple(u.letters[p] for p in where) == canon
    assert all(u.letters[a] == -u.letters[b] for a, b in cancelled)
    assert sorted(list(where) + [p for pair in cancelled for p in pair]) == list(range(len(u)))
    # cyclically reduced, and the least of its rotations
    assert free_reduce(word(3, canon + canon)).letters == canon + canon

    def key(seq):
        return [2 * abs(x) - (x > 0) for x in seq]

    assert all(key(canon) <= key(canon[s:] + canon[:s]) for s in range(len(canon)))


def _scan_every_rotation(letters):
    keys = [2 * abs(x) - (x > 0) for x in letters]
    return min(range(len(keys)), key=lambda s: keys[s:] + keys[:s])


# ties between equal rotations decide optimal_pairing's raw positions, so
# periodic words, (ab)^k among them, and a^n b are drawn on purpose
_rotation_words = st.one_of(
    st.lists(_letter, min_size=1, max_size=30),
    st.builds(lambda unit, k: unit * k, st.lists(_letter, min_size=1, max_size=4),
              st.integers(min_value=1, max_value=8)),
    st.builds(lambda a, n, b: [a] * n + [b], _letter, st.integers(min_value=1, max_value=10),
              _letter),
)


@given(_rotation_words, st.integers(min_value=0))
def test_least_rotation_starts_where_the_scan_of_every_rotation_does(letters, shift):
    shift %= len(letters)
    letters = letters[shift:] + letters[:shift]
    assert words._least_rotation(letters) == _scan_every_rotation(letters)


def test_least_rotation_of_periodic_words_is_the_first_least_start():
    a, b = 1, 2
    assert words._least_rotation([a, b] * 5) == 0
    assert words._least_rotation([b, a] * 5) == 1
    assert words._least_rotation([a] * 4 + [b]) == 0
    assert words._least_rotation([b] + [a] * 4) == 1


_WORD_CALLS = (cyclic_canonical, spelling_length, optimal_pairing)


def _fresh_call(call, u):
    words._LAST_CANONICAL.clear()
    words._LAST_TABLE.clear()
    words._LAMBDA_CACHE.clear()
    return call(u)


@given(st.lists(_letter, max_size=24), st.lists(_letter, max_size=24),
       st.lists(st.tuples(st.sampled_from(_WORD_CALLS), st.sampled_from((0, 1))),
                max_size=12))
def test_interleaved_calls_on_two_words_equal_fresh_calls(first, second, calls):
    pair = (word(3, first), word(3, second))
    fresh = {(call, which): _fresh_call(call, pair[which])
             for call in _WORD_CALLS for which in (0, 1)}
    for call, which in calls:
        assert call(pair[which]) == fresh[call, which]


# -- homomorphisms -----------------------------------------------------------

def test_homomorphism_cba_killed():
    # C -> A^-1 B^-1 sends CBA (and its inverse) to the identity
    images = [word(2, (1,)), word(2, (2,)), word(2, (-1, -2))]
    assert apply_homomorphism(word(3, (3, 2, 1)), images).letters == ()
    assert apply_homomorphism(word(3, (-1, -2, -3)), images).letters == ()


def test_homomorphism_abc_killed():
    images = [word(2, (1,)), word(2, (2,)), word(2, (-2, -1))]
    assert apply_homomorphism(word(3, (1, 2, 3)), images).letters == ()


def test_homomorphism_identity_reduces():
    images = [word(3, (1,)), word(3, (2,)), word(3, (3,))]
    u = word(3, (1, 2, -2, 3))
    assert apply_homomorphism(u, images) == free_reduce(u)


# -- certified bounds and search ---------------------------------------------

def test_certified_bound_known_instance():
    assert certified_lower_bound(1, 1, 1, 0, 1, "P") == 2


def test_certified_bound_q_instance_is_zero():
    # ABC times a conjugate of (ABC)^-1 can reach the identity
    assert certified_lower_bound(1, 1, 1, 0, 1, "Q") == 0


def test_certified_bound_abelian_case():
    assert certified_lower_bound(2, 2, 2, 0, 0, "P") == 6
    assert certified_lower_bound(2, 2, 2, 0, 0, "Q") == 6


def test_certified_bound_parity_adjust():
    assert certified_lower_bound(2, 2, 2, 0, 1, "P") == 5


def test_search_known_spelling_of_length_two():
    spec = ClassProductSpec(
        base=word(3, (1, 2, 3)),
        factors=((word(3, (-1, -2, -3)), 1),),
        search_budget=3,
    )
    res = min_spelling_over_product(spec)
    assert res.upper == 2 and res.lower == 2 and res.exact
    assert spelling_length(res.witness) == res.upper


def test_search_no_factors_positive_word():
    spec = ClassProductSpec(base=word(3, (1, 2, 3)), factors=(), search_budget=2)
    res = min_spelling_over_product(spec)
    assert res.upper == res.lower == 3
    # no conjugator is listed without factors, so a large budget costs nothing
    spec = ClassProductSpec(base=word(3, (1, 2, 3)), factors=(), search_budget=40)
    assert min_spelling_over_product(spec) == res


def test_search_budget_four_reaches_parity_bound():
    spec = ClassProductSpec(
        base=word(3, (1, 1, 2, 2, 3, 3)),
        factors=((word(3, (-1, -2, -3)), 1),),
        search_budget=4,
    )
    res = min_spelling_over_product(spec)
    assert res.lower == 5
    assert res.upper >= res.lower
    assert res.upper % 2 == 1
    # achieved upper, recorded: the certified bound is attained at budget 4
    assert res.upper == 5 and res.exact


def test_search_result_sanity():
    spec = ClassProductSpec(
        base=word(3, (3, 3, 1, 2)),
        factors=((word(3, (3, 2, 1)), 1), (word(3, (-1, -2, -3)), 1)),
        search_budget=2,
    )
    res = min_spelling_over_product(spec)
    assert res.lower <= res.upper
    assert spelling_length(res.witness) == res.upper


def test_search_checks_no_letter_of_its_own_candidates(monkeypatch):
    # the candidates are built from words valid over the alphabet, so the
    # search builds their Words without validating them again; the witness
    # is still a valid Word, and words built elsewhere are still checked
    spec = ClassProductSpec(
        base=word(3, (3, 3, 1, 2)),
        factors=((word(3, (3, 2, 1)), 1), (word(3, (-1, -2, -3)), 2)),
        search_budget=2,
    )
    checks = []
    post_init = words.Word.__post_init__
    monkeypatch.setattr(words.Word, "__post_init__", lambda u: checks.append(u) or post_init(u))
    res = min_spelling_over_product(spec)
    assert checks == []
    assert res.witness == word(3, res.witness.letters) and len(checks) == 1
    with pytest.raises(ValueError):
        word(3, (1, 4))


def test_reduced_words_count():
    # N=3: lengths 0..2 -> 1 + 6 + 30
    assert len(list(reduced_words(3, 2))) == 37


@pytest.mark.parametrize(
    "budget, multiplicities",
    [(b, m) for b in (0, 1, 2) for m in ((1,), (2,), (1, 1), (2, 1))]
    + [(3, (1,)), (3, (1, 1)), (0, ()), (1, (3,)), (1, (2, 2)), (1, (1, 2, 1)), (2, (3,))],
)
def test_assignments_by_cost_match_sorted_product(budget, multiplicities):
    conjugators = list(reduced_words(3, budget))

    def cost(assignment):
        return sum(len(conjugators[idx]) for combo in assignment for idx in combo)

    product = itertools.product(*[
        itertools.combinations_with_replacement(range(len(conjugators)), m)
        for m in multiplicities
    ])
    expected = [sum(a, ()) for a in sorted(product, key=lambda a: (cost(a), a))]
    lengths = [len(h) for h in conjugators]
    assert list(words._assignments_by_cost(lengths, list(multiplicities))) == expected


def test_assignments_of_a_thousand_slots_need_no_call_per_slot():
    # one assignment of 1,000 slots used to recurse once per slot
    f = word(3, (3, 2, 1))
    spec = ClassProductSpec(base=word(3, (1, 2, 3)), factors=((f, 1000),), search_budget=0)
    assert list(words._assignments_by_cost([0], [1000])) == [(0,) * 1000]
    res = min_spelling_over_product(spec)
    assert res.lower <= res.upper == spelling_length(res.witness)


def test_searches_with_one_alphabet_and_budget_list_the_conjugators_once(monkeypatch):
    calls = []
    listed = words.reduced_words

    def counted(*args):
        calls.append(args)
        return listed(*args)

    monkeypatch.setattr(words, "reduced_words", counted)
    words._conjugators.cache_clear()
    f = word(3, (3, 2, 1))
    for base in ((1, 2), (1, 1, 3, 3)):
        spec = ClassProductSpec(base=word(3, base), factors=((f, 1), (inverse(f), 2)),
                                search_budget=2)
        res = min_spelling_over_product(spec)
        assert spelling_length(res.witness) == res.upper
        # the form the search leaves behind is the fresh one of its letters
        for letters, form in words._LAST_CANONICAL.items():
            assert form == words._canonical_form(letters)
    assert calls == [(3, 2)]


def test_oversized_search_refused_before_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(words, "reduced_words", fail)
    monkeypatch.setattr(words, "_assignments_by_cost", fail)
    f = word(3, (3, 2, 1))
    spec = ClassProductSpec(
        base=word(3, (1, 2, 3)),
        factors=((f, 2), (inverse(f), 2)),
        search_budget=5,
    )
    with pytest.raises(SearchTooLargeError, match=r"^\d+ conjugator assignments") as info:
        min_spelling_over_product(spec)
    assert isinstance(info.value, ValueError)
    assert int(str(info.value).split()[0]) > MAX_ASSIGNMENTS


# -- text format --------------------------------------------------------------

def test_parse_and_format_roundtrip():
    u = parse_word("a b a' b'")
    assert u.letters == (1, 2, -1, -2)
    assert format_word(u) == "a b a' b'"


def test_parse_empty():
    assert parse_word("e").letters == ()
    assert format_word(word(3, ())) == "e"


def test_parse_c_names():
    assert parse_word("c1 c3' c2", alphabet_size=3).letters == (1, -3, 2)


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        parse_word("q")
    with pytest.raises(ValueError):
        Word(2, (3,))


def test_cyclic_canonical_rotation_invariance():
    u = word(3, (1, 2, 3))
    v = word(3, (3, 1, 2))
    assert cyclic_canonical(u) == cyclic_canonical(v)


_letters = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=8)


@given(_letters, _letters, st.integers(min_value=0),
       st.sampled_from((1, -1, 2, -2, 3, -3)), st.integers(min_value=0))
def test_canonical_and_lambda_invariant_under_rotation_and_insertion(
    conjugator, core, shift, x, at
):
    # conjugated cores need cyclic reduction down through every conjugator layer
    letters = conjugator + core + [-y for y in reversed(conjugator)]
    u = word(3, letters)
    canon = cyclic_canonical(u)
    lam = spelling_length(u)
    if letters:
        shift %= len(letters)
        rotated = word(3, letters[shift:] + letters[:shift])
        assert cyclic_canonical(rotated) == canon
        assert spelling_length(rotated) == lam
    at %= len(letters) + 1
    padded = word(3, letters[:at] + [x, -x] + letters[at:])
    assert cyclic_canonical(padded) == canon
    assert spelling_length(padded) == lam
    # the interval DP on the unreduced word agrees with the cached value
    assert words._lambda_dp(padded.letters)[0][len(padded)] == lam


def test_zero_law():
    import random

    rng = random.Random(37)
    for _ in range(300):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 10))
        )
        u = word(3, letters)
        assert (spelling_length(u) == 0) == (free_reduce(u).letters == ())


def test_abelian_bound_is_lower_bound():
    import random

    rng = random.Random(29)
    for _ in range(200):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 12))
        )
        u = word(3, letters)
        assert spelling_length(u) >= abelian_bound(u)
