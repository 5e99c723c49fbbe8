import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octfield.rational import (
    ConstructionError,
    InvalidSpecError,
    RationalMapSpec,
    evaluate_rational,
    measure_wrapping_rational,
    predict_invariants,
    realize,
)
from octfield.geometry import relocate, relocate_inverse
from octfield.rational import (
    _CENTROIDS,
    _COARSE_STEP,
    _FULL_STEP,
    _MAX_COMPLEX,
    _MAX_EDGE,
    _RESIDUE_REACH,
    _START_STEP,
    _T_ARG,
    _T_RADIUS,
    _T_SPAN,
    _FitScorer,
    _centroid_roots,
    _descend,
    _factor_shapes,
    _imag_sequences,
    _real_sequences,
    _roots_of_values,
    _singular_points,
    _spread,
    _start_vector,
    _value_and_log_derivative,
    _with_parameters,
)
from octfield.topology import (
    SECTORS,
    OctantTopology,
    invariants_from_wrapping,
    wrapping_from_invariants,
)


def test_identity_spec_is_identity():
    spec = RationalMapSpec()
    w = 0.3 + 0.2j
    assert evaluate_rational(spec, w) == w


def test_unit_modulus_on_arc():
    spec = RationalMapSpec(
        m=2,
        real_factors=((0.4, 1), (0.52, -1)),
        imag_factors=((0.35, -1),),
    )
    phis = np.linspace(0, math.pi / 2, 100)
    vals = evaluate_rational(spec, np.exp(1j * phis))
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-10


def test_real_on_real_axis_and_endpoint_sign():
    spec = RationalMapSpec(real_factors=((0.5, 1),))
    t = np.linspace(0, 1, 101)
    vals = evaluate_rational(spec, t + 0j)
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert complex(evaluate_rational(spec, 1.0 + 0j)) in (1 + 0j, -1 + 0j)


def test_imaginary_axis_maps_to_imaginary():
    spec = RationalMapSpec(m=1, imag_factors=((0.3, 1),))
    t = np.linspace(0.01, 0.99, 50)
    vals = evaluate_rational(spec, 1j * t)
    assert np.max(np.abs(vals.real)) < 1e-12


def test_parameter_collision_rejected():
    with pytest.raises(InvalidSpecError):
        RationalMapSpec(real_factors=((0.4, 1), (0.4, -1)))


def test_pole_evaluates_to_infinity():
    spec = RationalMapSpec(real_factors=((0.4, -1),))
    assert np.isinf(evaluate_rational(spec, 0.4 + 0j))


def test_degree_counts_parameters():
    spec = RationalMapSpec(
        m=-2,
        real_factors=((0.3, 1),),
        imag_factors=((0.4, -1), (0.5, 1)),
        complex_factors=((0.3 * np.exp(0.9j), 1),),
    )
    assert spec.degree() == 3 + 2 + 4 + 4


def test_predictor_matches_measurement_on_random_specs():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(-2, 2)
        a = rng.randint(0, 2)
        b = rng.randint(0, 2)
        spec = RationalMapSpec(
            sign=rng.choice((1, -1)),
            m=m,
            real_factors=tuple(zip(_spread(a), (rng.choice((1, -1)) for _ in range(a)))),
            imag_factors=tuple(zip(_spread(b), (rng.choice((1, -1)) for _ in range(b)))),
            orientation=rng.choice(("conformal", "anticonformal")),
        )
        predicted = predict_invariants(spec)
        measured = invariants_from_wrapping(measure_wrapping_rational(spec))
        assert (predicted.e, predicted.k, predicted.omega_units) == (
            measured.e,
            measured.k,
            measured.omega_units,
        )


# edge parameters on a 0.06 grid over the fitting band, so consecutive ones
# keep the band's minimum separation of 0.05
_EDGE_GRID = [round(0.15 + 0.06 * i, 2) for i in range(11)]
_SIGNS = st.sampled_from((1, -1))


@st.composite
def product_specs(draw, orientation=None):
    """Product maps with up to 3 factors per edge and up to 2 complex factors,
    their free parameters inside the fitting band; of the given orientation,
    or of either."""

    def edge_factors():
        params = draw(st.lists(st.sampled_from(_EDGE_GRID), max_size=3, unique=True))
        return tuple((p, draw(_SIGNS)) for p in sorted(params))

    real, imag = edge_factors(), edge_factors()
    # complex parameters keep a margin inside the band's limits, so rounding
    # in the polar round trip cannot carry them out
    ts = [
        draw(st.floats(0.16, 0.74)) * complex(math.cos(angle), math.sin(angle))
        for angle in draw(st.lists(st.floats(0.16, math.pi / 2 - 0.16), max_size=2))
    ]
    assume(all(abs(p - q) >= 0.11 for p, q in itertools.combinations(ts, 2)))
    return RationalMapSpec(
        sign=draw(_SIGNS),
        m=draw(st.integers(-2, 2)),
        real_factors=real,
        imag_factors=imag,
        complex_factors=tuple((t, draw(_SIGNS)) for t in ts),
        orientation=orientation or draw(st.sampled_from(("conformal", "anticonformal"))),
    )


@settings(max_examples=100, deadline=None)
@given(product_specs())
# its pole at 0.15i crosses unit modulus within 3e-12, far inside the fixed
# 1e-9 ladder start: the windings used to reach the boundary point cap
@example(RationalMapSpec(
    sign=1, m=2, real_factors=((0.15, 1),), imag_factors=((0.15, -1), (0.21, 1), (0.27, 1)),
    complex_factors=(((0.1013066823502762 + 0.15777580965148058j), 1),),
    orientation="conformal",
))
def test_predicted_invariants_equal_measured_ones(spec):
    predicted = predict_invariants(spec)
    measured = invariants_from_wrapping(measure_wrapping_rational(spec))
    assert (predicted.e, predicted.k, predicted.omega_units) == (
        measured.e, measured.k, measured.omega_units
    )


@settings(max_examples=100, deadline=None)
@given(product_specs())
def test_shape_parameters_round_trip(spec):
    # edge parameters come back exactly; complex ones pass through polar form
    back = _with_parameters(spec, _start_vector(spec))
    assert dataclasses.replace(back, complex_factors=spec.complex_factors) == spec
    assert [ex for _, ex in back.complex_factors] == [ex for _, ex in spec.complex_factors]
    for (t_back, _), (t, _) in zip(back.complex_factors, spec.complex_factors):
        assert abs(t_back - t) <= 1e-15


_AXES = ("x", "y", "z")
_COLLAR_RING = 0.1 * np.exp(1j * np.linspace(0.0, math.pi / 2, 9))


def _reference_score(spec, e, stacked):
    """The collar-fit score by its documented formula: one unit per zero or
    pole whose |f| crosses 1 within the residue reach of it, plus, per
    stacked vertex, the mean of m^2 / (1 + m^2) over the collar ring, m the
    wrong-side chart modulus (|f| in the chart for edge sign +1, 1/|f| for
    -1)."""
    points, zero, direction = _singular_points(spec)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mags = np.abs(evaluate_rational(spec, points + _RESIDUE_REACH * direction))
        score = float(np.count_nonzero(np.where(zero, mags >= 1.0, mags <= 1.0)))
        for axis in stacked:
            values = evaluate_rational(spec, relocate(axis, _COLLAR_RING))
            chart = np.abs(relocate_inverse(axis, values))
            m2 = chart**2 if e[_AXES.index(axis)] > 0 else 1.0 / chart**2
            score += float(np.mean(np.where(np.isfinite(m2), m2 / (1.0 + m2), 1.0)))
    return score


# offsets of a parameter from its start: fit steps, steps that crowd
# neighbours 0.06 apart, and jumps out of the band
_OFFSETS = st.sampled_from((0.0, 0.01, -0.02, 0.04, -0.04, 0.08, -0.16, 0.3, -0.5, 0.7))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("conformal", "anticonformal")), st.tuples(_SIGNS, _SIGNS, _SIGNS),
       st.tuples(st.booleans(), st.booleans(), st.booleans()), st.data())
def test_scorer_rows_equal_the_score_formula(orientation, e, stacks, data):
    # one batch mixes rows of up to four shapes of one orientation, whose
    # factor counts, powers and signs may all differ
    stacked = tuple(axis for axis, stack in zip(_AXES, stacks) if stack)
    shapes = data.draw(st.lists(product_specs(orientation), min_size=1, max_size=4))
    scorer = _FitScorer(shapes, e, stacked)
    owner, rows = [], []
    for s, shape in enumerate(shapes):
        start = _start_vector(shape)
        for offsets in [[0.0] * len(start)] + data.draw(st.lists(
                st.lists(_OFFSETS, min_size=len(start), max_size=len(start)),
                min_size=1, max_size=6)):
            owner.append(s)
            rows.append(start + np.asarray(offsets))
    order = data.draw(st.permutations(range(len(rows))))
    owner = np.asarray(owner)[order]
    padded = scorer.starts[owner]
    for i, s in enumerate(owner):
        padded[i, scorer.columns[s, :len(rows[order[i]])]] = rows[order[i]]
    scores = scorer.scores(padded, owner)
    assert scores.shape == (len(rows),)
    for i, (s, score) in enumerate(zip(owner, scores)):
        x = rows[order[i]]
        assert np.array_equal(scorer.parameters(s, padded[i]), x)
        spec = _with_parameters(shapes[s], x)
        if spec is None:
            assert score == np.inf
        else:
            assert score == _reference_score(spec, e, stacked)


def _sequential_descent(shape, e, stacked, min_step):
    """Coordinate descent of one shape from its start, trying one trial at
    a time."""
    scorer = _FitScorer([shape], e, stacked)
    x = _start_vector(shape)
    best = scorer.scores(x[None], [0])[0]
    step = _START_STEP
    while step >= min_step and best > 0:
        improved = False
        for i in range(len(x)):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                score = scorer.scores(trial[None], [0])[0]
                if score < best - 1e-4:
                    best, x, improved = score, trial, True
        if not improved:
            step /= 2
    return best, x


def _orientation_and_degree(target):
    """The orientation and covering count of a one-signed class."""
    w = wrapping_from_invariants(target)
    orientation = "conformal" if all(v <= 0 for v in w.values) else "anticonformal"
    return orientation, w.total_absolute()


def _bulk_shapes(target, stacked):
    """Every factor shape ``realize`` fits for a bulk class, with its e and
    stacked vertices."""
    orientation, degree = _orientation_and_degree(target)
    shapes = itertools.islice(_factor_shapes(orientation, target, degree), 400)
    return list(shapes), target.e, stacked


def _scanned_shapes(orientation, target, degree):
    """The reference for ``_factor_shapes``, by scan and filter: every shape
    of the covering count with at most ``_MAX_COMPLEX`` complex factors
    whose edge signs and edge kinks are the target's, kept when
    ``predict_invariants`` gives the target's invariants."""
    e, k = target.e, target.k
    wanted = (tuple(target.e), tuple(target.k), target.omega_units)
    for t_edge in range(min(_MAX_EDGE, (degree - 1) // 2) + 1):
        rest_e = degree - 2 * t_edge
        for c in range(min(_MAX_COMPLEX, (rest_e - 1) // 4) + 1):
            q = rest_e - 4 * c
            m = (q - 1) // 2 if e[2] > 0 else -(q + 1) // 2
            ts = [
                (0.3 + 0.45 * i / max(c - 1, 1)) * complex(math.cos(0.9), math.sin(0.9))
                for i in range(c)
            ]
            for a in range(t_edge + 1):
                b = t_edge - a
                for sign in (1, -1):
                    ey = sign * (-1) ** ((m % 2) + b)
                    if orientation == "anticonformal":
                        ey = -ey
                    if sign * (-1) ** a != e[0] or ey != e[1]:
                        continue
                    for rho in _real_sequences(a, m, sign, k[1]):
                        for sig in _imag_sequences(b, m, sign, orientation, k[0]):
                            for tau in itertools.product((1, -1), repeat=c):
                                spec = RationalMapSpec(
                                    sign=sign,
                                    m=m,
                                    real_factors=tuple(zip(_spread(a), rho)),
                                    imag_factors=tuple(zip(_spread(b), sig)),
                                    complex_factors=tuple(zip(ts, tau)),
                                    orientation=orientation,
                                )
                                predicted = predict_invariants(spec)
                                if (predicted.e, predicted.k, predicted.omega_units) == wanted:
                                    yield spec


@st.composite
def one_signed_classes(draw):
    """Classes with one-signed wrapping numbers, |k| <= 4 and
    |omega_units| <= 40, of either orientation."""
    e = draw(st.tuples(_SIGNS, _SIGNS, _SIGNS))
    k = draw(st.tuples(*[st.integers(-4, 4)] * 3))
    # omega_units = 4 (k_x + k_y + k_z) - e_x e_y e_z (mod 8)
    omega_units = 8 * draw(st.integers(-5, 5)) + (4 * sum(k) - e[0] * e[1] * e[2]) % 8
    assume(abs(omega_units) <= 40)
    target = OctantTopology(e, k, omega_units)
    w = wrapping_from_invariants(target).values
    assume(all(v <= 0 for v in w) or all(v >= 0 for v in w))
    return target


@settings(max_examples=60, deadline=None)
@given(one_signed_classes())
# the degree-29 bulk of the sweep, anticonformal
@example(OctantTopology((-1, 1, 1), (3, 2, 2), 29))
# conformal, 1,584 shapes with up to 5 complex factors of mixed exponents
@example(OctantTopology((1, 1, 1), (0, 0, 3), -29))
def test_factor_shapes_are_the_scanned_matches(target):
    orientation, degree = _orientation_and_degree(target)
    built = list(_factor_shapes(orientation, target, degree))
    assert built == list(_scanned_shapes(orientation, target, degree))
    for shape in built:
        predicted = predict_invariants(shape)
        assert (predicted.e, predicted.k, predicted.omega_units) == (
            target.e, target.k, target.omega_units
        )


def test_complex_factor_bound_is_where_fits_start():
    # complex start parameters spread over one ray, as ``_factor_shapes``
    # places them: the bound's are admissible, one more and the start row
    # scores inf, so no descent could ever move it
    ray = complex(math.cos(_T_ARG), math.sin(_T_ARG))
    for c, admissible in ((_MAX_COMPLEX, True), (_MAX_COMPLEX + 1, False)):
        shape = RationalMapSpec(complex_factors=tuple(
            ((_T_RADIUS + _T_SPAN * i / (c - 1)) * ray, 1) for i in range(c)
        ))
        assert (_with_parameters(shape, _start_vector(shape)) is not None) == admissible
        score = _FitScorer([shape], (1, 1, 1), ()).scores(_start_vector(shape)[None], [0])[0]
        assert (score < math.inf) == admissible


def test_full_fit_continues_the_coarse_fit():
    # the shapes of each group descend in lockstep, coarse and then full;
    # each must end both where its own one-trial-at-a-time descent ends
    t = 0.5 * complex(math.cos(0.9), math.sin(0.9))
    groups = [
        # the bulk of k=(3,3,3), n=3 with stacks at all three vertices
        _bulk_shapes(OctantTopology((1, 1, 1), (1, 1, 1), -5), ("x", "y", "z")),
        # the sweep's degree-29 bulk, stacked at x
        _bulk_shapes(OctantTopology((-1, 1, 1), (3, 2, 2), 29), ("x",)),
        # the worked example's bulk, stacked at x: shapes of different widths
        _bulk_shapes(OctantTopology((-1, 1, 1), (1, 0, 0), 5), ("x",)),
        ([RationalMapSpec(m=1, real_factors=((0.3, 1), (0.6, -1)),
                          imag_factors=((0.45, 1),), complex_factors=((t, 1),)),
          RationalMapSpec(sign=-1, m=-2, real_factors=((0.3, -1),))],
         (1, -1, 1), ("y", "z")),
        ([RationalMapSpec(sign=-1, m=-2, real_factors=((0.3, -1), (0.5, 1), (0.7, -1)),
                          orientation="anticonformal")], (1, 1, -1), ("x", "z")),
    ]
    assert [len(shapes) for shapes, _, _ in groups[:3]] == [1, 3, 3]
    for shapes, e, stacked in groups:
        scorer = _FitScorer(shapes, e, stacked)
        x = scorer.starts.copy()
        best = np.full(len(shapes), np.nan)
        step = np.full(len(shapes), _START_STEP)
        # coarse descents of all shapes together, then full ones resuming them
        for min_step in (_COARSE_STEP, _FULL_STEP):
            _descend(scorer, x, best, step, np.arange(len(shapes)), min_step)
            for s, shape in enumerate(shapes):
                alone = _sequential_descent(shape, e, stacked, min_step)
                assert best[s] == alone[0], (shape, min_step)
                assert np.array_equal(scorer.parameters(s, x[s]), alone[1]), (shape, min_step)
                if min_step == _COARSE_STEP:
                    assert step[s] == _COARSE_STEP / 2 or best[s] == 0


def test_cubic_power_invariants():
    t = predict_invariants(RationalMapSpec(m=1))
    assert (t.e, t.k, t.omega_units) == ((1, -1, 1), (0, 0, -1), -3)


def test_realize_identity_class():
    spec = realize(OctantTopology((1, 1, 1), (0, 0, 0), -1))
    assert spec.degree() == 1
    assert spec.orientation == "conformal"


def test_realize_bulk_classes_match_wrapping():
    classes = [
        OctantTopology((-1, 1, 1), (1, 0, 0), 5),    # worked-example bulk
        OctantTopology((1, -1, 1), (0, 0, 0), 1),    # special-case bulk
        OctantTopology((1, 1, 1), (1, 1, 1), 11),    # comparison-fixture bulk
        OctantTopology((-1, -1, 1), (0, 0, 1), 3),   # d-template bulk
    ]
    for t in classes:
        spec = realize(t)
        assert measure_wrapping_rational(spec).values == wrapping_from_invariants(t).values


def test_realize_rejects_nonconformal():
    with pytest.raises(ConstructionError):
        realize(OctantTopology((1, 1, 1), (1, 1, 1), 3))


def test_realize_refuses_a_class_whose_fits_are_all_inadmissible():
    # the case-2a bulk of k = (3,3,12), n = 1 has one factor shape, with 10
    # complex factors, whose start parameters lie 0.05 apart on one ray,
    # closer than a fit admits; no such shape is built, so no map can be
    # accepted
    with pytest.raises(ConstructionError, match="no rational representative"):
        realize(OctantTopology((1, 1, 1), (3, 2, 11), -57), stacked=("x",))


def test_realize_fits_bulk_to_stacked_vertices():
    # the bulk of k=(3,3,3), n=3 carries anticonformal-top stacks at all three
    # vertices, so on the collar ring |u| = 0.1 of each vertex chart its
    # modulus must stay below 1; the unstacked bulk of the same shape keeps
    # its start parameters r = s = 0.45 (the middle of the fitting band) and
    # crosses unit modulus at |u| ~ 0.04 in the z chart
    bulk_class = OctantTopology((1, 1, 1), (1, 1, 1), -5)
    canned = realize(bulk_class)
    fitted = realize(bulk_class, stacked=("x", "y", "z"))
    ring = 0.1 * np.exp(1j * np.linspace(0.0, math.pi / 2, 9))

    def ring_modulus(spec, axis):
        return np.abs(relocate_inverse(axis, evaluate_rational(spec, relocate(axis, ring))))

    assert np.max(ring_modulus(canned, "z")) > 1
    for axis in "xyz":
        assert np.max(ring_modulus(fitted, axis)) < 0.6, axis
    # same factor shape and the same invariants, measured
    assert (fitted.sign, fitted.m, len(fitted.real_factors), len(fitted.imag_factors)) == (
        canned.sign, canned.m, len(canned.real_factors), len(canned.imag_factors)
    )
    assert measure_wrapping_rational(fitted).values == wrapping_from_invariants(bulk_class).values
    with pytest.raises(ValueError):
        realize(bulk_class, stacked=("w",))


@settings(max_examples=100, deadline=None)
@given(product_specs(), st.sampled_from(SECTORS))
def test_preimages_of_a_centroid_are_all_its_roots(spec, sector):
    # the Aberth solve finds every preimage in the plane, each once, to a
    # Newton correction of 1e-9 (a preimage next to a pole of tiny residue
    # leaves a large value residual); the cached centroid rows are the same
    # solve
    value = _CENTROIDS[sector]
    roots = _roots_of_values(spec, [value])[0]
    assert len(roots) == spec.degree()
    f, dlog = _value_and_log_derivative(spec, np.conj(roots) if spec.orientation ==
                                        "anticonformal" else roots)
    assert np.all(np.abs((f - value) / (f * dlog)) <= 1e-9 * np.maximum(np.abs(roots), 1))
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
    assert gaps.min() > 1e-9
    assert np.allclose(_centroid_roots(spec)[SECTORS.index(sector)], roots, rtol=1e-10)


def test_preimages_above_the_degree_limit_are_refused():
    # a pairwise root solve of a degree-1001 map would hold 8 x 1001^2
    # complex gaps; it is refused before any work
    from octfield.numerics import IntegrationError
    from octfield.rational import MAX_PREIMAGE_DEGREE

    spec = RationalMapSpec(m=500)
    assert spec.degree() > MAX_PREIMAGE_DEGREE
    with pytest.raises(IntegrationError):
        _roots_of_values(spec, [0.5])
    largest = RationalMapSpec(m=(MAX_PREIMAGE_DEGREE - 1) // 2)
    assert len(_roots_of_values(largest, [0.5])[0]) == largest.degree()
