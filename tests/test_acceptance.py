"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import dataclasses
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from octfield.fixtures import insertion_comparison_map
from octfield.numerics import (
    Region,
    degree_count,
    dirichlet_energy,
    region_degrees,
    trapped_area,
)
from octfield.patchwork import (
    SampledMap,
    assemble_patchwork,
    identity_map,
    measure_map_wrapping,
    rational_map,
    select_case,
)
from octfield.rational import RationalMapSpec, measure_wrapping_rational
from octfield.stacks import QuarterSphereStack, alternating
from octfield.topology import (
    OctantTopology,
    classify,
    delta_invariant,
    infimum_energy,
    invariants_from_wrapping,
    sector_name,
    wrapping_from_invariants,
)
from octfield.words import (
    ClassProductSpec,
    certified_lower_bound,
    concat,
    generator_degrees,
    inverse,
    min_spelling_over_product,
    optimal_pairing,
    pairing_is_valid,
    spelling_length,
    word,
)

WORKED = OctantTopology((1, 1, 1), (1, 1, 1), 3)


def _verdict(num, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_worked_example():
    started = time.monotonic()
    w = wrapping_from_invariants(WORKED)
    assert w.as_dict() == {
        "+++": 1, "-++": 1, "+-+": 1, "++-": 1,
        "+--": 0, "-+-": 0, "--+": 0, "---": -1,
    }
    c = classify(w, WORKED)
    assert delta_invariant(w, c) == 2
    assert infimum_energy(w, c) == 7

    sm = assemble_patchwork(select_case(WORKED, epsilon=0.05))
    energy = dirichlet_energy(sm, level=3)
    gap = abs(energy - 7 * math.pi) / (7 * math.pi)
    assert gap < 0.05

    fixture = insertion_comparison_map()
    rep = degree_count(fixture, level=3)
    counts = {sector_name(s): e.D for s, e in rep.by_sector.items()}
    assert counts == {
        "+++": 3, "-++": 3, "+-+": 3, "++-": 3,
        "+--": 2, "-+-": 2, "--+": 2, "---": 1,
    }
    fixture_energy = dirichlet_energy(fixture, level=3)
    assert abs(fixture_energy - 19 * math.pi) / (19 * math.pi) < 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _verdict(1, True, f"(patchwork gap {100 * gap:.2f}%, fixture "
                      f"{fixture_energy / math.pi:.2f} pi, {elapsed:.0f}s)")


def test_criterion_2_closed_form_quadrature():
    for eps in (0.1, 0.05):
        st = QuarterSphereStack(alternating(2), eps)
        region = Region(
            "layer2",
            lambda u, s=st: s.layer_value(2, u),
            2 * st.radius(1),
            st.radius(2),
            "log",
        )
        sm = SampledMap([region])
        exact = 2 * math.pi * (1 - 4 * eps**2) / ((1 + eps) * (1 + 4 * eps))
        measured = dirichlet_energy(sm, level=3)
        assert abs(measured - exact) / exact < 0.005, eps
    identity_energy = dirichlet_energy(identity_map(), level=3)
    assert abs(identity_energy - math.pi) / math.pi < 0.005
    _verdict(2, True, f"(identity {identity_energy / math.pi:.5f} pi)")


def test_criterion_3_spelling_property_suite():
    started = time.monotonic()
    rng = random.Random(314159)

    def random_word(max_len=12, alphabet=3):
        length = rng.randint(0, max_len)
        return word(alphabet, tuple(
            rng.choice((1, -1)) * rng.randint(1, alphabet) for _ in range(length)
        ))

    # golden cases
    assert spelling_length(word(2, (1, 2, -1, -2))) == 2
    h = word(3, (1, -2, 3))
    assert spelling_length(concat(h, word(3, (2,)), inverse(h))) == 1

    checked = 0
    while checked < 10_000:
        u = random_word()
        lam = spelling_length(u)
        degs = generator_degrees(u)

        # abelian bound and parity
        assert lam >= sum(abs(d) for d in degs)
        assert lam % 2 == sum(abs(d) for d in degs) % 2

        # pairing consistency
        pairing = optimal_pairing(u)
        assert pairing_is_valid(u, pairing)
        assert len(u.letters) - 2 * len(pairing) == lam

        # subadditivity
        v = random_word(6)
        assert spelling_length(concat(u, v)) <= lam + spelling_length(v)

        # cyclicity
        if len(u.letters) > 1:
            rotated = word(3, u.letters[1:] + u.letters[:1])
            assert spelling_length(rotated) == lam

        # descent under insertion of canceling pairs
        if len(u.letters) < 12:
            pos = rng.randint(0, len(u.letters))
            letter = rng.choice((1, -1)) * rng.randint(1, 3)
            padded = word(3, u.letters[:pos] + (letter, -letter) + u.letters[pos:])
            assert spelling_length(padded) == lam

        # conjugation invariance
        conj = random_word(4)
        assert spelling_length(concat(conj, u, inverse(conj))) == lam

        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _verdict(3, True, f"({checked} words, {elapsed:.0f}s)")


def test_criterion_4_conjugacy_product_bounds():
    started = time.monotonic()
    # upper bounds recorded by the benchmark; the search order fixes them
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
    )["product"]
    factor_words = {"P": word(3, (3, 2, 1)), "Q": word(3, (1, 2, 3))}
    instances = 0
    for i, j, k in itertools.product(range(3), repeat=3):
        base = word(3, (1,) * i + (2,) * j + (3,) * k)
        for p, n in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            for variant, f in factor_words.items():
                spec = ClassProductSpec(
                    base=base,
                    factors=((f, p), (inverse(f), n)),
                    search_budget=3,
                )
                res = min_spelling_over_product(spec)
                certified = certified_lower_bound(i, j, k, p, n, variant)
                assert res.lower == certified
                assert res.upper >= res.lower, (i, j, k, p, n, variant)
                assert spelling_length(res.witness) == res.upper
                key = f"product {i} {j} {k} {p} {n} {variant}"
                assert res.upper == reference[key]["upper"], key
                instances += 1

    known_instance = min_spelling_over_product(
        ClassProductSpec(
            base=word(3, (1, 2, 3)),
            factors=((word(3, (-1, -2, -3)), 1),),
            search_budget=3,
        )
    )
    assert known_instance.upper == 2 and known_instance.exact
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _verdict(4, True, f"({instances} instances, {elapsed:.0f}s)")


def _sweep_classes():
    for k in itertools.combinations_with_replacement((1, 2, 3), 3):
        s = sum(k)
        for n in range(1, s - 1):
            yield OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * s)


def test_criterion_5_identities_and_degrees():
    for t in _sweep_classes():
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        spec = select_case(t, epsilon=0.05)
        w0 = wrapping_from_invariants(spec.H0)
        # coverage identity, exact
        assert w0.total_absolute() + 2 * sum(spec.M) == (
            w.total_absolute() + delta_invariant(w, c)
        ), (t.k, t.omega_units)
        sm = assemble_patchwork(spec)
        # measured per-sector signed degrees equal the target
        measured = measure_map_wrapping(region_degrees(sm, level=2))
        assert measured.values == w.values, t.k
    _verdict("5a", True, "(identities exact, measured degrees match targets)")


def test_criterion_5_energy_gap():
    rows = []
    for t in _sweep_classes():
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        target = infimum_energy(w, c) * math.pi
        gaps = []
        for eps in (0.05, 0.025):
            sm = assemble_patchwork(select_case(t, epsilon=eps))
            gaps.append(abs(dirichlet_energy(sm, level=2) - target) / target)
        rows.append((t.k, w[(1, 1, 1)], gaps[0], gaps[1]))

    # epsilon-refinement strictly shrinks every gap (the theorems' content)
    assert all(g2 < g1 for _, _, g1, g2 in rows)

    failing = [(k, n, g1) for k, n, g1, _ in rows if g1 >= 0.08]
    worst = max(g1 for _, _, g1, _ in rows)
    _verdict(
        "5b",
        not failing,
        f"(worst gap at eps=0.05: {100 * worst:.1f}%; "
        f"{len(failing)}/{len(rows)} classes exceed 8%)",
    )
    assert not failing, (
        "classes whose energy gap at epsilon = 0.05 is 8% or more "
        f"(k, n, gap): {failing}"
    )


def test_criterion_6_conformal_classes():
    specs = [
        RationalMapSpec(),
        RationalMapSpec(m=1),
        RationalMapSpec(m=2),
        RationalMapSpec(real_factors=((0.4, 1),)),
        RationalMapSpec(real_factors=((0.35, -1),)),
        RationalMapSpec(imag_factors=((0.4, 1),)),
        RationalMapSpec(m=1, imag_factors=((0.45, -1),)),
        RationalMapSpec(m=1, real_factors=((0.3, 1), (0.5, -1))),
        RationalMapSpec(m=-1, sign=-1),
        RationalMapSpec(m=2, real_factors=((0.42, 1),), imag_factors=((0.36, 1),)),
    ]
    for spec in specs:
        w = measure_wrapping_rational(spec)
        assert all(v <= 0 for v in w.values), spec
        t = invariants_from_wrapping(w)
        target = w.total_absolute() * math.pi
        # the quadrature, on the map's one region gridded: rational_map's
        # closed form reads the same centroid preimages as w, so it holds
        # only to the exact values
        closed = rational_map(spec)
        (bulk,) = closed.regions
        sm = dataclasses.replace(closed, regions=[dataclasses.replace(bulk, rational=None)])
        energy = dirichlet_energy(sm, level=3)
        assert abs(energy - target) / target < 0.02, spec
        omega, residual = trapped_area(sm, level=3)
        assert residual < 0.02, spec
        assert round(omega / (math.pi / 2)) == t.omega_units, spec
        assert dirichlet_energy(closed, level=3) == pytest.approx(target, rel=1e-12), spec
        assert trapped_area(closed, level=3)[0] == pytest.approx(
            t.omega_units * math.pi / 2, rel=1e-12), spec
    _verdict(6, True, f"({len(specs)} conformal representatives)")


def test_criterion_7_invariant_algebra():
    rng = random.Random(271828)
    for _ in range(500):
        e = tuple(rng.choice((1, -1)) for _ in range(3))
        k = tuple(rng.randint(-4, 4) for _ in range(3))
        u = 4 * sum(k) - e[0] * e[1] * e[2] + 8 * rng.randint(-3, 3)
        t = OctantTopology(e, k, u)
        w = wrapping_from_invariants(t)
        assert invariants_from_wrapping(w) == t

    # Delta tie-independence on constructed tied instances
    tied = [
        OctantTopology((1, 1, 1), (2, 2, 2), 8 * 2 + 7 - 24),
        OctantTopology((1, 1, 1), (1, 1, 3), 8 * 1 + 7 - 20),
        OctantTopology((1, 1, 1), (3, 3, 3), 8 * 4 + 7 - 36),
        OctantTopology((1, 1, 1), (1, 2, 3), 8 * 2 + 7 - 24),
    ]
    for t in tied:
        w = wrapping_from_invariants(t)
        c = classify(w, t)
        delta_invariant(w, c)  # asserts equality over all tied choices
    _verdict(7, True, "(500 roundtrips exact, tie-independence asserted)")
