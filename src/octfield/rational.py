"""Rational conformal/anticonformal representatives on the quarter disc.

Maps have the product form

    f(w) = +- w^(2m+1) * prod_j ((w^2 - r_j^2)/(r_j^2 w^2 - 1))^rho_j
                       * prod_k ((w^2 + s_k^2)/(s_k^2 w^2 + 1))^sigma_k
                       * prod_l ((w^2 - t_l^2)(w^2 - conj(t_l)^2) /
                                 ((t_l^2 w^2 - 1)(conj(t_l)^2 w^2 - 1)))^tau_l

with r_j, s_k in (0, 1) and |t_l| < 1; anticonformal maps evaluate f at the
conjugated argument.  Such maps satisfy the tangent boundary conditions:
real on [0, 1], imaginary on [0, i], unit modulus on the arc.

``realize`` builds a representative of a prescribed conformal or
anticonformal class from this family.  Only the count of factors, the
exponent signs along each edge and of the complex factors, the power, and
the overall sign affect the homotopy invariants (not the particular r/s/t
values), so the class's invariants determine those discrete shapes.  The
free values are then a design choice, always fitted: away from
near-cancelling zero/pole pairs (whose energy bumps no grid resolves) and,
for the bulk of a patchwork, so that the bulk meets each stack's collar on
the correct side of unit modulus.  Preimage counts of the sector centroids
confirm a fit's wrapping numbers.

A bulk enters the integrals as its closed form (``ChartRational``), so no
map built here carries grid hints (``numerics.Region.r_clusters`` and
``phi_clusters``): only the tests' reference quadrature grids a bulk, with
ladders around its zeros and poles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import AXES, relocate, relocate_inverse, relocation_coefficients
from .numerics import (
    CENTROID_VALUES,
    IntegrationError,
    degree_differences_by_winding,
    quarter_disc_degrees,
)
from .topology import (
    SECTORS,
    OctantTopology,
    WrappingNumbers,
    classify,
    wrapping_from_invariants,
)

__all__ = [
    "ChartRational",
    "MAX_PREIMAGE_DEGREE",
    "RationalMapSpec",
    "InvalidSpecError",
    "ConstructionError",
    "evaluate_rational",
    "boundary_points",
    "measure_wrapping_rational",
    "predict_invariants",
    "realize",
]


class InvalidSpecError(ValueError):
    pass


class ConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class RationalMapSpec:
    sign: int = 1
    m: int = 0
    real_factors: tuple = ()  # (r, +-1)
    imag_factors: tuple = ()  # (s, +-1)
    complex_factors: tuple = ()  # (t, +-1)
    orientation: str = "conformal"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidSpecError("sign must be +-1")
        if self.orientation not in ("conformal", "anticonformal"):
            raise InvalidSpecError("orientation must be conformal or anticonformal")
        for r, rho in self.real_factors:
            if not (0 < r < 1) or rho not in (1, -1):
                raise InvalidSpecError(f"bad real factor ({r}, {rho})")
        for s, sig in self.imag_factors:
            if not (0 < s < 1) or sig not in (1, -1):
                raise InvalidSpecError(f"bad imaginary factor ({s}, {sig})")
        for t, tau in self.complex_factors:
            if not (abs(t) < 1) or not (0 < np.angle(t) < math.pi / 2) or tau not in (1, -1):
                raise InvalidSpecError(f"bad complex factor ({t}, {tau})")
        seen = {}
        for r, rho in self.real_factors:
            if seen.setdefault(("r", r), rho) != rho:
                raise InvalidSpecError(f"real parameter collision at r={r} (0/0)")
        for s, sig in self.imag_factors:
            if seen.setdefault(("s", s), sig) != sig:
                raise InvalidSpecError(f"imaginary parameter collision at s={s} (0/0)")

    def degree(self) -> int:
        """Covering count over the sphere: |2m+1| + 2a + 2b + 4c."""
        return (
            abs(2 * self.m + 1)
            + 2 * len(self.real_factors)
            + 2 * len(self.imag_factors)
            + 4 * len(self.complex_factors)
        )


def evaluate_rational(spec: RationalMapSpec, w):
    """Evaluate the map; the extended value inf is returned at poles.

    The map is sign z^(2m+1) times the terms of ``_factor_squares`` in their
    order, each complex factor's two terms taken as one factor, in the
    product variable z (conjugated for anticonformal specs).  Numerator and
    denominator are accumulated separately so zeros and poles stay exact.
    These operations, in this order, fix each map's rounding:
    ``_FitScorer._values`` repeats them for every row of a fit's batch.
    """
    w = np.asarray(w, dtype=complex)
    scalar = np.ndim(w) == 0
    z = np.atleast_1d(np.conj(w) if spec.orientation == "anticonformal" else w)
    sign, q, ex = _factor_squares(spec)
    edges = len(spec.real_factors) + len(spec.imag_factors)
    p = 2 * spec.m + 1
    num = np.ones_like(z)
    den = np.ones_like(z)
    if p >= 0:
        num = num * z**p
    else:
        den = den * z ** (-p)
    z2 = z * z
    q, ex = q.tolist(), ex.tolist()
    for g in [*range(edges), *range(edges, len(q), 2)]:
        top, bottom = z2 - q[g], q[g] * z2 - 1
        if g >= edges:  # a complex factor: its term in conj(t)^2 joins the one in t^2
            top, bottom = top * (z2 - q[g + 1]), bottom * (q[g + 1] * z2 - 1)
        num, den = (num * top, den * bottom) if ex[g] > 0 else (num * bottom, den * top)
    out = _quotient(num * sign, den)
    return complex(out[0]) if scalar else out


def _complex_squares(t) -> tuple:
    """(t^2, conj(t)^2) of a scalar or an array t, from real products.  They
    round as Python's and NumPy's scalar complex products do; NumPy's
    vectorised complex product fuses multiply-adds and rounds differently."""
    re, im = np.real(t), np.imag(t)
    square_re, square_im = re * re - im * im, re * im + im * re
    return square_re + 1j * square_im, square_re - 1j * square_im


def _quotient(num, den):
    """num / den, inf at the poles; a 0/0 is a parameter collision."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    at_pole = den == 0
    if at_pole.any():
        if np.any(at_pole & (num == 0)):
            raise InvalidSpecError("indeterminate 0/0 during evaluation (parameter collision)")
        out[at_pole] = np.inf + 0j
    return out


@functools.lru_cache(maxsize=256)
def _factor_squares(spec: RationalMapSpec) -> tuple:
    """(sign, q, ex) with f = sign z^(2m+1) prod ((z^2 - q) / (q z^2 - 1))^ex
    in the product variable z (conjugated for anticonformal maps): a real
    factor is one term with q = r^2, an imaginary one is minus one term with
    q = -s^2, a complex one two terms with q = t^2 and conj(t)^2."""
    pairs = [(r * r, rho) for r, rho in spec.real_factors]
    pairs += [(-s * s, sig) for s, sig in spec.imag_factors]
    for t, tau in spec.complex_factors:
        pairs += [(q, tau) for q in _complex_squares(complex(t))]
    q = np.array([complex(q) for q, _ in pairs], dtype=complex)
    ex = np.array([ex for _, ex in pairs], dtype=int)
    return spec.sign * (-1) ** len(spec.imag_factors), q, ex


def _value_and_log_derivative(spec: RationalMapSpec, z):
    """(f, d log f / dz) at points z of the product variable, from one
    broadcast over the factor terms of ``_factor_squares`` (f to rounding,
    not in ``evaluate_rational``'s order of operations)."""
    sign, q, ex = _factor_squares(spec)
    power = 2 * spec.m + 1
    z2 = (z * z)[..., None]
    top, bottom = z2 - q, q * z2 - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = sign * z**power * np.prod(np.where(ex > 0, top / bottom, bottom / top), axis=-1)
        dlog = power / z + 2 * z * np.sum(ex * (1 / top - q / bottom), axis=-1)
    return values, dlog


# largest covering count whose preimages are solved for: a root solve
# compares every pair of roots each round, so beyond it the work and memory
# grow with its square and the closed forms that need preimages refuse
MAX_PREIMAGE_DEGREE = 256


def _check_preimage_degree(n: int) -> None:
    if n > MAX_PREIMAGE_DEGREE:
        raise IntegrationError(
            f"preimages of a degree-{n} map exceed the limit of {MAX_PREIMAGE_DEGREE}"
        )


def _poles(spec: RationalMapSpec) -> tuple:
    """(points, multiplicities) of the finite poles of the product form in
    the product variable: +-1/sqrt(q) for a term of exponent +1, +-sqrt(q)
    for one of exponent -1, and 0 for a negative power."""
    _, q, ex = _factor_squares(spec)
    roots = np.where(ex > 0, 1 / np.sqrt(q), np.sqrt(q))
    points, multiplicities = [roots, -roots], [np.ones(2 * len(q))]
    if 2 * spec.m + 1 < 0:
        points.append([0j])
        multiplicities.append([-(2 * spec.m + 1)])
    return np.concatenate(points), np.concatenate(multiplicities)


def _roots_of_values(spec: RationalMapSpec, values) -> np.ndarray:
    """The points w of the plane with f(w) = value, one row per value (each
    finite and not a critical value), all ``degree`` of them.

    They are the roots z of the polynomial P = N - value D, found by
    Aberth-Ehrlich iteration of all rows at once from the unit circle,
    to about 1e-12 relative, and conjugated back for anticonformal maps.
    P'/P = f'/(f - value) + D'/D is taken from the product form and its
    poles, so no coefficient is ever expanded.  Raises ``IntegrationError``
    above ``MAX_PREIMAGE_DEGREE`` or when 200 rounds do not settle."""
    n = spec.degree()
    _check_preimage_degree(n)
    values = np.asarray(values, dtype=complex)[:, None]
    poles, multiplicities = _poles(spec)
    z = np.tile(np.exp(2j * math.pi * (np.arange(n) + 0.25) / n), (len(values), 1))
    running = np.ones(len(values), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            x, target = z[running], values[running]
            f, dlog = _value_and_log_derivative(spec, x)
            slope = f * dlog / (f - target) + np.sum(
                multiplicities / (x[..., None] - poles), axis=-1)
            gaps = x[:, :, None] - x[:, None, :]
            gaps[:, np.arange(n), np.arange(n)] = np.inf
            # a root hit exactly (f = value) stays where it is
            step = np.where(f == target, 0, 1 / (slope - np.sum(1 / gaps, axis=2)))
            z[running] = x - step
            running[running] = ~np.all(np.abs(step) <= 1e-12 * np.abs(x - step), axis=1)
            if not running.any():
                return np.conj(z) if spec.orientation == "anticonformal" else z
    raise IntegrationError(f"preimages of a degree-{n} map unresolved after 200 rounds")


@functools.lru_cache(maxsize=256)
def _centroid_roots(spec: RationalMapSpec) -> tuple:
    """The preimages in the plane of each sector centroid, in SECTORS
    order: one root solve per spec, which every vertex chart reads."""
    return tuple(_roots_of_values(spec, CENTROID_VALUES))


@functools.lru_cache(maxsize=256)
def _chart_centroid_preimages(spec: RationalMapSpec, axis: str) -> tuple:
    return tuple(relocate_inverse(axis, roots) for roots in _centroid_roots(spec))


@dataclass(frozen=True)
class ChartRational:
    """The rational map of ``spec`` in the chart of the vertex ``axis``:
    F(u) = f(relocate(axis, u)), evaluated as the patchwork's cut discs are.

    The relocation is a rotation of the sphere, so F is conformal or
    anticonformal as f is.  Besides its values, F gives the closed-form
    integrals of ``numerics`` its log-derivative along chart steps, its
    zeros and poles, and the preimages of any value, all as chart points.
    """

    spec: RationalMapSpec
    axis: str

    def __post_init__(self):
        if not isinstance(self.spec, RationalMapSpec):
            raise InvalidSpecError("a chart rational map needs a RationalMapSpec")
        if self.axis not in AXES:
            raise InvalidSpecError(f"axis must be one of x, y, z, got {self.axis!r}")

    @property
    def conformal(self) -> bool:
        return self.spec.orientation == "conformal"

    def __call__(self, u):
        return evaluate_rational(self.spec, relocate(self.axis, u))

    def value_and_log_derivative(self, u, du):
        """(F(u), d log F along chart steps du) at chart points u (F to
        rounding, not in ``__call__``'s order of operations)."""
        a, b, c, d = relocation_coefficients(self.axis)
        den = c * u + d
        w, dw = (a * u + b) / den, (a * d - b * c) / (den * den) * du
        if not self.conformal:
            w, dw = np.conj(w), np.conj(dw)
        values, dlog = _value_and_log_derivative(self.spec, w)
        return values, dlog * dw

    def singular_points(self) -> np.ndarray:
        """Chart points of all zeros and poles of F on the sphere (the ones
        at infinity of the plane w included)."""
        spec = self.spec
        points = [r for r, _ in spec.real_factors] + [1 / r for r, _ in spec.real_factors]
        points += [1j * s for s, _ in spec.imag_factors] + [1j / s for s, _ in spec.imag_factors]
        for t, _ in spec.complex_factors:
            points += [t, np.conj(t), 1 / t, 1 / np.conj(t)]
        w = np.asarray(points, dtype=complex)
        # f(-w) = -f(w): each zero or pole has its negative as a partner
        return relocate_inverse(self.axis, np.concatenate([[0j, complex(np.inf)], w, -w]))

    def preimages(self, value: complex) -> np.ndarray:
        """Chart points u with F(u) = value; the sector centroids' are
        computed once per spec."""
        index = _CENTROID_INDEX.get(value)
        if index is not None:
            return _chart_centroid_preimages(self.spec, self.axis)[index]
        return relocate_inverse(self.axis, _roots_of_values(self.spec, [value])[0])


def boundary_points(t):
    """Counterclockwise boundary of Q parametrized on [0, 3):
    real edge, arc, then imaginary edge back to the origin."""
    t = np.asarray(t, dtype=float) % 3.0
    w = np.empty(t.shape, dtype=complex)
    m0 = t < 1
    m1 = (t >= 1) & (t < 2)
    m2 = t >= 2
    w[m0] = t[m0]
    w[m1] = np.exp(1j * (math.pi / 2) * (t[m1] - 1.0))
    w[m2] = 1j * (3.0 - t[m2])
    return w


# reference point for winding pairs: interior of the (---) sector
_REFERENCE = CENTROID_VALUES[SECTORS.index((-1, -1, -1))]
_CENTROID_INDEX = {value: i for i, value in enumerate(CENTROID_VALUES)}


def measure_degree_differences(evaluator, params=None):
    """d(centroid_sigma) - d(centroid_---) for all sectors, from boundary
    windings: the tests' independent measure of a map's wrapping numbers
    (``tests/windings.py``); no construction or verification path reads it.

    Works for any continuous map satisfying the tangent boundary conditions:
    its boundary values stay on the three sector-bounding great circles and
    never meet the sector centroids.  ``params`` seeds the boundary
    parametrization on [0, 3) (see ``boundary_points``); pass a log-refined
    seed for maps with fine structure near the vertices.
    """
    if params is None:
        params = np.linspace(0.0, 3.0, 600, endpoint=False)
    return degree_differences_by_winding(
        lambda p: evaluator(boundary_points(p)),
        params,
        CENTROID_VALUES,
        _REFERENCE,
        period=3.0,
    )


def _probe_directions(a: int, b: int, c: int) -> np.ndarray:
    """Unit directions in which the origin and a real, b imaginary and c
    complex zeros or poles are probed: into the quarter disc, off the edge
    each lies on."""
    return np.repeat(np.exp([0.9j, 0.4j, 2.2j]), [1 + a, b, c])


def measure_wrapping_rational(spec: RationalMapSpec) -> WrappingNumbers:
    """Measured wrapping numbers w_sigma = -d_sigma of a rational map, with
    d_sigma its signed count of centroid-sigma preimages in the quarter disc
    (``numerics.quarter_disc_degrees`` of the z-chart map, whose root solve
    is cached per spec).  These are exactly the numbers from which the
    integrals take the closed form of a patchwork's bulk region.  Raises
    ``IntegrationError`` above ``MAX_PREIMAGE_DEGREE``."""
    return WrappingNumbers(tuple(-d for d in quarter_disc_degrees(ChartRational(spec, "z"))))


# ---------------------------------------------------------------------------
# Analytic invariants of a product spec
# ---------------------------------------------------------------------------

def _full_turns(quarter_turns: int) -> int:
    """Full turns in a whole number of quarter turns; the lifts below always
    close up to whole turns, so the count is exact for any class."""
    turns, rest = divmod(quarter_turns, 4)
    if rest:
        raise AssertionError(f"lift of {quarter_turns} quarter turns is no whole turn")
    return turns


def _band(n: int, sign: int) -> int:
    """The band of lift positions [band, band + 1] (in half turns) that a
    lift at n with the given sign of f moves in: even bands carry f > 0."""
    return n if (n % 2 == 0) == (sign > 0) else n - 1


def _crossing(n: int, sign: int, exponent: int) -> int:
    """The lift position after a crossing: through angle 0 (mod 2pi) at a
    zero (exponent +1), through pi (mod 2pi) at a pole (exponent -1)."""
    band = _band(n, sign)
    return band if (band % 2 == 0) == (exponent > 0) else band + 1


def _end_kink(start_zero: bool, n: int, end_sign: int) -> int:
    """The kink of an edge whose lift ends at n with f of sign end_sign."""
    band = _band(n, end_sign)
    start = 0 if start_zero else 2
    total = 2 * band + 1 - start
    end = 1 if end_sign > 0 else -1
    shortest = (end - start + 2) % 4 - 2
    return _full_turns(shortest - total)


def _edge_kink(start_zero: bool, seg_sign: int, exponents, end_sign: int) -> int:
    """Kink number of one straight edge from its crossing structure.

    The edge image runs along a target great circle; its lifted angle
    2*atan(f) moves inside bands of constant sign and exits through angle 0
    (mod 2pi) at zeros of f and through pi (mod 2pi) at poles, the factors'
    exponents +1 and -1 in edge order.  The lift is therefore determined by
    the ordered crossing types alone; the kink is the full-turn count of the
    lift relative to the shortest geodesic.  Angles are counted in integer
    quarter turns (pi/2), so the count is exact.
    """
    n = 0 if start_zero else 1  # lift position theta = n*pi
    sign = seg_sign
    for e in exponents:
        n, sign = _crossing(n, sign, e), -sign
    if sign != end_sign:
        raise AssertionError("edge lift inconsistent with endpoint sign")
    return _end_kink(start_zero, n, end_sign)


@functools.cache
def _reachable_kinks(start_zero: bool, n: int, sign: int, left: int) -> frozenset:
    """The kinks an edge lift at n, with f of the given sign, can end with
    after ``left`` more crossings."""
    if not left:
        return frozenset([_end_kink(start_zero, n, sign)])
    return frozenset().union(*(
        _reachable_kinks(start_zero, _crossing(n, sign, e), -sign, left - 1) for e in (1, -1)
    ))


def _edge_sequences(start_zero: bool, seg_sign: int, length: int, kink: int) -> tuple:
    """The exponent sequences of ``length`` crossings whose edge kink
    (``_edge_kink``) is ``kink``, in ``itertools.product((1, -1))`` order.

    They are the paths of the edge lift from its start: a crossing moves
    the lift by at most one half turn, so ``_reachable_kinks`` is a small
    table, and the walk enters only the crossings from which the kink can
    still be reached."""
    found = []

    def walk(n, sign, prefix):
        if len(prefix) == length:
            found.append(tuple(prefix))
            return
        for e in (1, -1):
            after = _crossing(n, sign, e)
            if kink in _reachable_kinks(start_zero, after, -sign, length - len(prefix) - 1):
                walk(after, -sign, prefix + [e])

    n = 0 if start_zero else 1
    if kink in _reachable_kinks(start_zero, n, seg_sign, length):
        walk(n, seg_sign, [])
    return tuple(found)


def _imag_edge_start(m: int, sign: int, orientation: str) -> int:
    """The sign of f (of its conjugate, for anticonformal maps) on the
    imaginary edge next to the origin."""
    y_seg = sign * (-1) ** (m % 2)
    return y_seg if orientation == "conformal" else -y_seg


def _real_edge_kink(m: int, sign: int, a_seq) -> int:
    """k_y from the exponent sequence of the real factors, in edge order."""
    return _edge_kink(m >= 0, sign, a_seq, sign * (-1) ** len(a_seq))


def _imag_edge_kink(m: int, sign: int, b_seq, orientation: str) -> int:
    """k_x from the exponent sequence of the imaginary factors, in edge order."""
    start = _imag_edge_start(m, sign, orientation)
    return _edge_kink(m >= 0, start, b_seq, start * (-1) ** len(b_seq))


def predict_invariants(spec: RationalMapSpec) -> OctantTopology:
    """Exact homotopy invariants of the map, from the factor structure alone.

    Edge kinks come from the lift simulation over the ordered edge crossings
    (zeros/poles of the factors on each edge); the arc winding accumulates
    (2m+1) pi/2 plus pi per first-order factor (signed by exponent) and 2 pi
    per complex factor; the trapped area is -+(pi/2) times the covering count
    because every sector centroid orbit has exactly ``degree`` preimages.
    """
    a_seq = [rho for _, rho in sorted(spec.real_factors)]
    b_seq = [sig for _, sig in sorted(spec.imag_factors)]
    m, sgn = spec.m, spec.sign
    ex = sgn * (-1) ** len(a_seq)
    ey_f = sgn * (-1) ** ((m % 2) + len(b_seq))
    ez = 1 if m >= 0 else -1
    ky = _real_edge_kink(m, sgn, a_seq)
    kx = _imag_edge_kink(m, sgn, b_seq, spec.orientation)

    # the arc's lift in quarter turns
    theta_f = 2 * m + 1 + 2 * sum(a_seq) + 2 * sum(b_seq) + 4 * sum(
        tau for _, tau in spec.complex_factors)

    def arc_kink(theta, ex_val, ey_val):
        start = 0 if ex_val > 0 else 2
        shortest = (ey_val - start + 2) % 4 - 2
        return _full_turns(start + shortest - theta)

    if spec.orientation == "conformal":
        ey = ey_f
        kz = arc_kink(theta_f + (0 if ex > 0 else 2), ex, ey)
        u = -spec.degree()
    else:
        ey = -ey_f
        kz = arc_kink(-theta_f + (0 if ex > 0 else 2), ex, ey)
        u = spec.degree()
    return OctantTopology((ex, ey, ez), (kx, ky, kz), u)


# ---------------------------------------------------------------------------
# Realization of conformal/anticonformal classes
# ---------------------------------------------------------------------------

_PARAM_BAND = (0.15, 0.75)  # range of the fitted free parameters
_MIN_SEPARATION = 0.05  # between consecutive parameters on one edge
_T_ARG = 0.9  # radians; starting argument of complex factor parameters
_T_RADIUS, _T_SPAN = 0.3, 0.45  # complex starts spread over |t| in [0.3, 0.75]
# c complex starts lie _T_SPAN / (c - 1) apart, and ``_admissible`` asks for
# 2 * _MIN_SEPARATION: a shape with more scores inf, and no fit step frees it
_MAX_COMPLEX = 1 + math.floor(_T_SPAN / (2 * _MIN_SEPARATION))
_MAX_EDGE = 9  # most edge factors a shape may carry

_REALIZE_CACHE: dict = {}


def _spread(n: int) -> list[float]:
    """n parameters spread evenly over the band: the fit's start on an edge."""
    lo, hi = _PARAM_BAND
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


@functools.cache
def _real_sequences(a: int, m: int, sign: int, k_y: int) -> tuple:
    """Exponent sequences of ``a`` real factors whose edge kink is ``k_y``."""
    return _edge_sequences(m >= 0, sign, a, k_y)


@functools.cache
def _imag_sequences(b: int, m: int, sign: int, orientation: str, k_x: int) -> tuple:
    """Exponent sequences of ``b`` imaginary factors whose edge kink is ``k_x``."""
    return _edge_sequences(m >= 0, _imag_edge_start(m, sign, orientation), b, k_x)


def _factor_shapes(orientation: str, target: OctantTopology, degree: int):
    """The factor shapes of the given covering count whose invariants are
    the target's, ordered by the number t of edge factors (fewest first:
    edge zeros/poles are the expensive, ill-conditioned elements; powers and
    complex factors absorb the rest), then by the number c of complex ones.

    Each complex factor takes 4 from the power |2m+1|, which leaves the
    sign and parity of m, and so the edge signs and kinks, as they are: the
    bases (sign and edge exponent sequences) that give e, k_x and k_y are
    built once per t.  Per complex factor of exponent tau the arc turns
    2 pi (tau - 1) more when m >= 0 and 2 pi (tau + 1) more when m < 0, so
    a base's k_z without complex factors (``predict_invariants``) fixes how
    many exponents are +1.  Shapes with over ``_MAX_COMPLEX`` complex
    factors are not built.
    """
    e, k = target.e, target.k
    turn = 1 if orientation == "conformal" else -1
    for t_edge in range(min(_MAX_EDGE, (degree - 1) // 2) + 1):
        # the degree |omega_units| is odd, so the power is odd and at least 1
        power = degree - 2 * t_edge
        m0 = (power - 1) // 2 if e[2] > 0 else -(power + 1) // 2
        bases = []
        for a in range(t_edge + 1):
            b = t_edge - a
            for sign in (1, -1):
                ey = turn * sign * (-1) ** ((m0 % 2) + b)
                if sign * (-1) ** a != e[0] or ey != e[1]:
                    continue
                for rho in _real_sequences(a, m0, sign, k[1]):
                    for sig in _imag_sequences(b, m0, sign, orientation, k[0]):
                        base = RationalMapSpec(
                            sign=sign, m=m0, real_factors=tuple(zip(_spread(a), rho)),
                            imag_factors=tuple(zip(_spread(b), sig)), orientation=orientation,
                        )
                        excess = turn * (predict_invariants(base).k[2] - k[2])
                        bases.append((base, excess))
        for c in range(min(_MAX_COMPLEX, (power - 1) // 4) + 1):
            ts = [
                (_T_RADIUS + _T_SPAN * i / max(c - 1, 1))
                * complex(math.cos(_T_ARG), math.sin(_T_ARG))
                for i in range(c)
            ]
            for base, excess in bases:
                # excess / 2 is minus the number of -1 exponents when m >= 0,
                # and the number of +1 exponents when m < 0; excess is even,
                # as omega_units = 4 (k_x + k_y + k_z) - e_x e_y e_z (mod 8)
                plus = c * (e[2] > 0) + excess // 2
                if not 0 <= plus <= c:
                    continue
                # places of the +1 exponents, in itertools.product((1, -1)) order
                for ones in itertools.combinations(range(c), plus):
                    tau = [1 if i in ones else -1 for i in range(c)]
                    yield replace(base, m=m0 - 2 * c * e[2], complex_factors=tuple(zip(ts, tau)))


_COLLAR_RING = 0.1  # chart radius 2 epsilon of the collar ring at epsilon = 0.05
_RESIDUE_REACH = 1e-3  # narrower zero/pole bumps count as unresolvable
_START_STEP = 0.16  # first step of every fit
_COARSE_STEP = 0.08  # smallest step of the coarse fit every shape gets
_FULL_STEP = 0.01  # smallest step of the full fits
_FULL_FITS = 3  # shapes then fitted to full resolution
_RING = _COLLAR_RING * np.exp(1j * np.linspace(0.0, math.pi / 2, 9))
_RING_IN_W = {axis: relocate(axis, _RING) for axis in AXES}


def _factor_counts(shape: RationalMapSpec) -> tuple:
    """(a, b, c): the shape's real, imaginary and complex factor counts."""
    return len(shape.real_factors), len(shape.imag_factors), len(shape.complex_factors)


def _start_vector(shape: RationalMapSpec) -> np.ndarray:
    """The shape's own free parameters, the inverse of ``_with_parameters``:
    edge parameters in edge order, then (|t|, arg t) per complex factor."""
    x = [r for r, _ in shape.real_factors] + [s for s, _ in shape.imag_factors]
    for t, _ in shape.complex_factors:
        x += [abs(t), float(np.angle(t))]
    return np.asarray(x, dtype=float)


def _complex_parameters(X, edge: int) -> np.ndarray:
    """Complex parameters t = |t| e^(i arg t) of the rows of free parameters
    X, one column per (|t|, arg t) pair after the first ``edge`` columns.
    Cosine and sine come from ``math``, whose roundings NumPy's vectorised
    ones need not match, once per distinct angle."""
    radii, angles = X[:, edge::2], X[:, edge + 1::2]
    t = np.empty(radii.shape, dtype=complex)
    if t.size:
        distinct = np.unique(angles)
        index = np.searchsorted(distinct, angles)
        distinct = distinct.tolist()
        t.real = radii * np.array([math.cos(v) for v in distinct])[index]
        t.imag = radii * np.array([math.sin(v) for v in distinct])[index]
    return t


def _admissibility_masks(counts, edge: int, pairs: int) -> tuple:
    """The slots that ``_admissible`` reads for shapes of factor counts
    ``counts`` (one (a, b, c) row per shape) in rows of ``edge`` edge slots
    and ``pairs`` (|t|, arg t) pairs: the edge slots each shape fills, the
    neighbouring edge slots that lie on one edge (not the last real
    parameter and the first imaginary one), and the pairs it fills."""
    a, b, c = counts[:, :1], counts[:, 1:2], counts[:, 2:]
    slots = np.arange(edge)
    return slots < a + b, (slots[1:] < a + b) & (slots[1:] != a), np.arange(pairs) < c


def _admissible(X, t, filled, neighbours, complex_filled) -> np.ndarray:
    """Which rows of free parameters X, with complex parameters t, the fit
    may use.  Rows hold edge slots (a row's real parameters, then its
    imaginary ones), then one (|t|, arg t) pair per column of t; the masks
    of ``_admissibility_masks``, one row each, say which slots each row
    fills, and the other slots are ignored.  A row is admissible when every
    parameter lies inside the band; edge parameters are sorted and at least
    ``_MIN_SEPARATION`` apart, so the exponent sequence along each edge,
    and with it every invariant, is the shape's own; complex arguments lie
    0.15 inside the quarter disc; complex parameters are at least twice the
    separation apart."""
    lo, hi = _PARAM_BAND
    edge = filled.shape[1]
    values, radii, angles = X[:, :edge], X[:, edge::2], X[:, edge + 1::2]
    ok = ((lo <= values) & (values <= hi) | ~filled).all(axis=1)
    ok &= ((lo <= radii) & (radii <= hi)
           & (0.15 <= angles) & (angles <= math.pi / 2 - 0.15) | ~complex_filled).all(axis=1)
    ok &= ((values[:, 1:] - values[:, :-1] >= _MIN_SEPARATION) | ~neighbours).all(axis=1)
    for p, q in itertools.combinations(range(t.shape[1]), 2):
        ok &= (np.abs(t[:, p] - t[:, q]) >= 2 * _MIN_SEPARATION) | ~complex_filled[:, q]
    return ok


def _with_parameters(shape: RationalMapSpec, x) -> RationalMapSpec | None:
    """The shape with free parameters x, or None when ``_admissible`` refuses
    them."""
    a, b, c = _factor_counts(shape)
    X = np.asarray(x, dtype=float)[None]
    t = _complex_parameters(X, a + b)
    if not _admissible(X, t, *_admissibility_masks(np.array([[a, b, c]]), a + b, c))[0]:
        return None
    return RationalMapSpec(
        sign=shape.sign,
        m=shape.m,
        real_factors=tuple(zip(X[0, :a].tolist(), (ex for _, ex in shape.real_factors))),
        imag_factors=tuple(zip(X[0, a:a + b].tolist(), (ex for _, ex in shape.imag_factors))),
        complex_factors=tuple(zip(t[0], (ex for _, ex in shape.complex_factors))),
        orientation=shape.orientation,
    )


def _oriented(top, bottom, ex, plus: int, minus: int) -> tuple:
    """(numerator, denominator) factors: (top, bottom) in the rows whose
    exponent column ex is +1, (bottom, top) in those where it is -1; ``plus``
    and ``minus`` count those rows."""
    if not minus:
        return top, bottom
    if not plus:
        return bottom, top
    return np.where(ex > 0, top, bottom), np.where(ex > 0, bottom, top)


class _FitScorer:
    """Collar-compatibility scores of free parameters of the factor shapes
    of one bulk (all of one orientation) for the stacked vertices of a class
    with edge signs e; smaller is better.

    The main term sums, over the stacked vertices, the mean normalized cap
    area m^2 / (1 + m^2) of the wrong-side chart modulus m on the collar
    ring.  A conformal top layer (edge sign -1) meets the bulk near its chart
    pole, so there m = 1/|f|; an anticonformal top (+1) meets a bulk zero and
    m = |f|.  The collar and the cut disc it replaces both cost about the
    spherical area the bulk sweeps inside the ring, so this term tracks the
    collar excess the bulk forces.  One unit is added for every zero or pole
    in the quarter disc whose |f| crosses unit modulus within
    ``_RESIDUE_REACH``: such near-cancelling pairs make energy bumps too
    narrow for the quadrature grids to resolve reliably.  Without stacked
    vertices that count is the whole score.

    Parameter rows share one layout, padded to the widest shape: E edge
    slots, which hold each shape's real and then its imaginary parameters,
    then C (|t|, arg t) pairs; ``columns[s]`` places shape s's own
    parameters (``_start_vector``'s order) in a row, and ``starts`` holds
    every shape's start row.  ``scores`` rates rows of many shapes in one
    call, each row in its own shape's order of operations
    (``evaluate_rational``, over the terms of ``_factor_squares``), so each
    row scores exactly what the map ``_with_parameters`` builds from it
    does.  It sorts the rows by their edge count a + b, most first, so the
    rows with edge factor g are a prefix and each factor is multiplied into
    its own rows alone; real and imaginary edge factors share that loop, as
    terms with q = r^2 and q = -s^2.  What depends on the shapes
    alone (exponents, admissibility masks, probe offsets, collar rings,
    wrong sides) is set up once.
    """

    def __init__(self, shapes, e, stacked):
        self.shapes = tuple(shapes)
        counts = np.array([_factor_counts(shape) for shape in self.shapes])
        self.edges, self.complex_counts = counts[:, 0] + counts[:, 1], counts[:, 2]
        E, C = self.widths = int(self.edges.max()), int(self.complex_counts.max())
        self.dims = self.edges + 2 * self.complex_counts
        self.masks = _admissibility_masks(counts, E, C)
        self.columns = np.zeros((len(self.shapes), max(self.dims.max(), 1)), dtype=int)
        self.starts = np.zeros((len(self.shapes), E + 2 * C))
        # per factor slot (E edge slots, then C complex ones): the exponent,
        # 0 where a shape has no factor
        self.exponents = np.zeros((len(self.shapes), E + C), dtype=int)
        # per edge slot: q = kind * x^2, +1 for a real factor, -1 for an
        # imaginary one
        self.kinds = np.zeros((len(self.shapes), E))
        for i, (shape, (a, b, c)) in enumerate(zip(self.shapes, counts.tolist())):
            columns = [*range(a + b), *range(E, E + 2 * c)]
            self.columns[i, :len(columns)] = columns
            self.starts[i, columns] = _start_vector(shape)
            self.exponents[i, :a + b] = [ex for _, ex in shape.real_factors + shape.imag_factors]
            self.exponents[i, E:E + c] = [ex for _, ex in shape.complex_factors]
            self.kinds[i, :a + b] = [1.0] * a + [-1.0] * b
        # probe columns: the origin, then every factor slot, each probed in
        # its kind's direction
        origin, real, imag, complex_ = _RESIDUE_REACH * _probe_directions(1, 1, 1)
        self.offsets = np.hstack([
            np.full((len(self.shapes), 1), origin),
            np.where(self.kinds > 0, real, imag),
            np.full((len(self.shapes), C), complex_),
        ])
        self.signs = np.array([shape.sign * (-1) ** len(shape.imag_factors)
                               for shape in self.shapes])
        self.powers = np.array([2 * shape.m + 1 for shape in self.shapes])
        self.conjugate = self.shapes[0].orientation == "anticonformal"
        self.zero = np.hstack([self.powers[:, None] > 0, self.exponents > 0])
        self.live = np.hstack([np.ones((len(self.shapes), 1), dtype=bool), self.exponents != 0])
        self.stacked = stacked
        self.rings = np.array([_RING_IN_W[axis] for axis in stacked], dtype=complex).ravel()
        # per ring point: does the stack's top layer meet a bulk zero there
        self.zero_top = np.repeat([e[AXES.index(axis)] > 0 for axis in stacked], len(_RING))

    def parameters(self, s: int, row) -> np.ndarray:
        """Shape s's own free parameters in the padded row."""
        return row[self.columns[s, :self.dims[s]]]

    def scores(self, X, owner) -> np.ndarray:
        """Scores of the padded parameter rows X, shape (T, E + 2C), row i
        of shape ``owner[i]``; inf where ``_admissible`` refuses a row."""
        X = np.asarray(X, dtype=float)
        owner = np.asarray(owner, dtype=int)
        t = _complex_parameters(X, self.widths[0])
        ok = _admissible(X, t, *(mask[owner] for mask in self.masks))
        out = np.full(len(X), np.inf)
        # the admissible rows, most edge factors first
        rows = np.flatnonzero(ok)
        rows = rows[np.argsort(-self.edges[owner[rows]], kind="stable")]
        if not len(rows):
            return out
        X, t, owner = X[rows], t[rows], owner[rows]
        rings = len(self.rings)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = self._values(X, t, owner)
            mags = np.abs(values[:, rings:])
            counts = np.count_nonzero(
                np.where(self.zero[owner], mags >= 1.0, mags <= 1.0) & self.live[owner], axis=1
            ).astype(float)
            n = len(_RING)
            charts = np.empty((len(X), rings), dtype=complex)
            for i, axis in enumerate(self.stacked):
                charts[:, i * n:(i + 1) * n] = relocate_inverse(axis, values[:, i * n:(i + 1) * n])
            chart = np.abs(charts)
            m2 = np.where(self.zero_top, chart**2, 1.0 / chart**2)
            caps = np.where(np.isfinite(m2), m2 / (1.0 + m2), 1.0)
            means = caps.reshape(len(X), len(self.stacked), n).sum(axis=2) / n
            for i in range(len(self.stacked)):
                counts = counts + means[:, i]
        out[rows] = counts
        return out

    def _values(self, X, t, owner) -> np.ndarray:
        """f at the collar rings, then at the probe columns, of the rows X
        (with complex parameters t), which are sorted by edge count, most
        first.  A slot a row lacks probes the origin again, which adds no
        0/0 that the row's own probes do not have."""
        E, C = self.widths
        rings = len(self.rings)
        kinds, exponents = self.kinds[owner], self.exponents[owner]
        live = self.live[owner]
        w = np.empty((len(X), rings + 1 + E + C), dtype=complex)
        w[:, :rings] = self.rings
        probes = np.zeros((len(X), 1 + E + C), dtype=complex)
        probes.real[:, 1:1 + E] = np.where(kinds > 0, X[:, :E], 0.0)
        probes.imag[:, 1:1 + E] = np.where(kinds > 0, 0.0, X[:, :E])
        probes[:, 1 + E:] = t
        probes += self.offsets[owner]
        w[:, rings:] = np.where(live, probes, probes[:, :1])
        z = np.conj(w) if self.conjugate else w
        num = np.ones_like(z)
        den = np.ones_like(z)
        powers = self.powers[owner]
        distinct = np.unique(powers).tolist()
        for p in distinct:
            rows = Ellipsis if len(distinct) == 1 else powers == p
            if p >= 0:
                num[rows] = num[rows] * z[rows]**p
            else:
                den[rows] = den[rows] * z[rows] ** (-p)
        z2 = z * z
        squares = X[:, :E] * X[:, :E] * kinds
        # per factor slot: how many rows have exponent +1, and -1
        plus = np.count_nonzero(exponents > 0, axis=0).tolist()
        minus = np.count_nonzero(exponents < 0, axis=0).tolist()
        # the rows with edge factor g are the first with_edge[g]
        with_edge = np.cumsum(np.bincount(self.edges[owner], minlength=E + 1)[::-1])[-2::-1]
        for g, m in enumerate(with_edge.tolist()):
            q = squares[:m, g:g + 1]
            up, down = _oriented(z2[:m] - q, q * z2[:m] - 1, exponents[:m, g:g + 1],
                                 plus[g], minus[g])
            num[:m] *= up
            den[:m] *= down
        squares, conj_squares = _complex_squares(t)
        complex_counts = self.complex_counts[owner]
        fewest = complex_counts.min()
        for i in range(C):
            rows = slice(None) if fewest > i else complex_counts > i
            q, qc, z2_rows = squares[rows, i:i + 1], conj_squares[rows, i:i + 1], z2[rows]
            up, down = _oriented((z2_rows - q) * (z2_rows - qc),
                                 (q * z2_rows - 1) * (qc * z2_rows - 1),
                                 exponents[rows, E + i:E + i + 1], plus[E + i], minus[E + i])
            num[rows] *= up
            den[rows] *= down
        return _quotient(num * self.signs[owner, None], den)


def _descend(scorer: _FitScorer, x, best, step, fits, min_step) -> None:
    """Coordinate descent of the shapes ``fits`` (indices into
    ``scorer.shapes``), all at once, in place on their padded rows x, scores
    best and steps.

    Each shape's sweep tries x_i + step and x_i - step for each of its own
    parameters in turn and moves to each trial that beats its best score by
    more than 1e-4; a sweep without a move halves its step.  A shape stops
    once its step is below ``min_step`` or its score is 0, the least there
    is.  A best of NaN marks a start not yet scored: its row joins the first
    round.

    Each round scores, in one ``scorer`` call, the trials left in the
    current sweep of every running shape, from its current x; after a move
    only the trials after it are scored again, from the new x.  That is each
    shape's trajectory of trying its trials one by one, whichever shapes run
    beside it, and another call with a smaller ``min_step`` continues it as
    one descent would.
    """
    shapes = np.arange(len(best))
    trials = 2 * scorer.dims
    fresh = np.flatnonzero(np.isnan(best))
    running = np.zeros(len(best), dtype=bool)
    running[fits] = True
    running &= (step >= min_step) & ~(best <= 0) & (trials > 0)
    j = np.zeros(len(best), dtype=int)
    improved = np.zeros(len(best), dtype=bool)
    while running.any() or len(fresh):
        n = np.where(running, trials - j, 0)
        owner = np.repeat(shapes, n)
        k = np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n) + j[owner]
        X = x[owner]
        X[np.arange(len(owner)), scorer.columns[owner, k // 2]] += (
            np.where(k % 2, -1.0, 1.0) * step[owner]
        )
        scores = scorer.scores(np.vstack([x[fresh], X]), np.concatenate([fresh, owner]))
        best[fresh], scores = scores[:len(fresh)], scores[len(fresh):]
        running &= ~(best <= 0)
        fresh = fresh[:0]
        hit = np.flatnonzero((scores < best[owner] - 1e-4) & running[owner])
        moved, first = np.unique(owner[hit], return_index=True)
        rows = hit[first]
        best[moved], x[moved], j[moved] = scores[rows], X[rows], k[rows] + 1
        improved[moved] = True
        # a sweep ends without a move, after its last trial, or at score 0
        ended = running.copy()
        ended[moved] = (j[moved] == trials[moved]) | (best[moved] == 0)
        step[ended & ~improved] /= 2
        improved[ended], j[ended] = False, 0
        running &= ~ended | (step >= min_step) & (best > 0)


def realize(target: OctantTopology, stacked=()) -> RationalMapSpec:
    """Build a rational representative of a conformal or anticonformal class.

    Builds the first 400 factor shapes of the class from its invariants
    (``_factor_shapes``; the class fixes the covering count, sum |w_sigma| =
    |omega_units|, and the invariants classify, so each shape is a
    representative), fits their free parameters, and verifies the winner's
    measured wrapping numbers, counted from its centroid preimages
    (``measure_wrapping_rational``): the numbers the closed form of a
    patchwork's bulk region integrates.  A class without a shape, or without
    a fit whose counts match, is refused with ``ConstructionError``; a class
    with shapes above ``MAX_PREIMAGE_DEGREE`` raises ``IntegrationError``
    before any fit.

    ``stacked`` names the vertices (``"x"``, ``"y"``, ``"z"``) that carry
    stacks.  The free parameters of every shape are fitted to one
    ``_FitScorer`` of all of them by ``_descend``, in lockstep: coarse
    descents of all shapes down to step ``_COARSE_STEP``, then full descents
    of the best ``_FULL_FITS``, each resuming its shape's coarse state.
    Every round of a descent scores the trials of all shapes still running
    in one call, the start rows in the first, and each shape follows the
    trajectory it would follow alone.  The call sorts its rows by edge
    count, so each row does only its own shape's work: every factor is
    multiplied into the rows that have it, with the operations, and so the
    roundings, of the row's own map.  The best fit whose preimage counts
    match wins.  With stacks the score keeps the bulk on the correct
    side of unit modulus on the collar ring of each stacked vertex.  Without
    stacks only its residue term acts: parameters leave their start only to
    clear near-cancelling zero/pole pairs, and ties go to the earliest shape
    built.  The ring is fixed at the chart radius 0.1, so one
    bulk serves every epsilon and epsilon refinement changes the stacks and
    collars only.
    """
    stacked = tuple(sorted(set(stacked)))
    if any(axis not in AXES for axis in stacked):
        raise ValueError(f"stacked vertices must be among x, y, z, got {stacked}")
    key = (target.e, target.k, target.omega_units, stacked)
    if key in _REALIZE_CACHE:
        return _REALIZE_CACHE[key]
    w = wrapping_from_invariants(target)
    orientation = classify(w, target).kind
    if orientation == "nonconformal":
        raise ConstructionError(f"class {key[:3]} is nonconformal; no rational representative")
    degree = w.total_absolute()
    shapes = list(itertools.islice(_factor_shapes(orientation, target, degree), 400))
    ranked = []
    if shapes:
        # no fit of such a bulk could be confirmed: its counts need preimages
        _check_preimage_degree(degree)
        # coarse fits of every shape, then full fits of the best few, each
        # continuing its coarse fit
        scorer = _FitScorer(shapes, target.e, stacked)
        x = scorer.starts.copy()
        best = np.full(len(shapes), np.nan)
        step = np.full(len(shapes), _START_STEP)
        _descend(scorer, x, best, step, np.arange(len(shapes)), _COARSE_STEP)
        order = np.argsort(best, kind="stable")
        full = order[:_FULL_FITS]
        _descend(scorer, x, best, step, full, _FULL_STEP)
        ranked = np.r_[full[np.argsort(best[full], kind="stable")], order[_FULL_FITS:]]
        # only admissible fits rank: a refused one (score inf) has no map
        ranked = ranked[best[ranked] < math.inf]
    for s in ranked:
        spec = _with_parameters(shapes[s], scorer.parameters(s, x[s]))
        if measure_wrapping_rational(spec).values == w.values:
            _REALIZE_CACHE[key] = spec
            return spec
    raise ConstructionError(
        f"no rational representative found for e={target.e}, k={target.k}, "
        f"omega_units={target.omega_units} (degree {degree})"
    )
