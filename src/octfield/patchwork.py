"""Explicit representatives: bulk rational map glued to vertex stacks.

Given a nonconformal class (edge signs normalized to (+,+,+)), ``select_case``
picks the vertex stacks from the tabulated construction (positive ordered
kinks) or solves them for every other class (the general-sign recipe).  The
stacks describe the whole construction: their layer counts are
M = (M_x, M_y, M_z), and the bulk conformal/anticonformal class H0 is what
they leave of the target, w_{sigma,0} = w_sigma - sum_j d_j(sigma) with d_j
the j-stack's degree table.  ``select_case`` verifies before returning that

- H0 is one-signed,
- the bulk edge signs satisfy e_{0j} = (-1)^{M_j}: -1 exactly where the
  j-stack's top layer is odd, with large moduli at the collar,
- the coverage identity sum|w_0| + 2 sum M_j = sum|w| + Delta.

The general-sign recipe's standard stacks move w_0 by one on a fixed pair of
sectors per layer, so for a given bulk sign and layer parities the coverage
identity is linear in M and the least M is solved (``_least_stack_counts``).

Stacks have two scales (see ``stacks``): the chart radius epsilon and the
layer ratio delta.  ``select_case`` sets delta = epsilon^3
(``_layer_ratio``), so layers and interpolation annuli cost O(delta) and the
gap is set by the collars.  A floor keeps the innermost layer resolvable in
double precision: delta is raised where needed so that the innermost layer's
unit-modulus radius sqrt(delta) * rho_1, with rho_1 = epsilon * delta^(L-1),
stays at or above 1e-13 (boundary windings, the tests' independent measure
of the wrapping numbers, sample the loop in a parameter whose spacing near a
vertex is about 4e-16; below the floor they cannot resolve the innermost
layer).  delta never exceeds epsilon.

``assemble_patchwork`` realizes the bulk rational map with its free
parameters fitted to the stacked vertices (``rational.realize``), relocates
the stacks to their vertices with the Moebius rotations, and glues across
the collar annuli epsilon <= |u| <= 2 epsilon with the stack's own switch
(``QuarterSphereStack.switch`` of its top layer into the bulk),
reciprocally for odd M_j (pole-side values) and linearly for even M_j.  The
map is a list of signed regions, each one closed formula on one annulus of
a chart: the bulk, minus each stacked vertex's chart disc |u| <= 2 epsilon,
plus that vertex's stack layers, interpolants and collar.  The list is the
only description of the map: ``SampledMap`` evaluates and tags points from
it, and energy, trapped area and degree counts integrate over it.  The
bulk region is the bulk rational map in the z-chart and each cut disc the
same map in its vertex chart (``rational.ChartRational``), and each layer
region carries its chart monomial, so those integrals take the bulk, the
layers and the cut discs in closed form and grid only the interpolants and
the collars.  The map's wrapping numbers are read from the same regions'
signed coverings (``measure_map_wrapping``).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .geometry import AXES, relocate, relocate_inverse
from .numerics import DegreeReport, MeshUnavailableError, Region
from .rational import (
    ChartRational,
    ConstructionError,
    RationalMapSpec,
    quadrature_clusters,
    realize,
)
from .stacks import QuarterSphereStack, alternating, chart_sector, stack_degree_table
from .topology import (
    SECTORS,
    Classification,
    InvalidWrappingError,
    OctantTopology,
    WrappingNumbers,
    classify,
    delta_invariant,
    invariants_from_wrapping,
    sector_name,
    wrapping_from_invariants,
)

__all__ = [
    "PatchworkSpec",
    "SampledMap",
    "NotApplicableError",
    "UnsupportedClassError",
    "InternalConsistencyError",
    "MeshUnavailableError",
    "select_case",
    "assemble_patchwork",
    "identity_map",
    "rational_map",
    "measure_map_wrapping",
]


class NotApplicableError(ValueError):
    """The class is conformal or anticonformal: no patchwork is needed."""


class UnsupportedClassError(ValueError):
    """The class falls outside the implemented construction recipes."""


class InternalConsistencyError(RuntimeError):
    """A selected case failed its own verification identities."""


@dataclass(frozen=True)
class PatchworkSpec:
    """A construction of ``target``: the stacks at its vertices, keyed by
    axis.  The layer counts M and the bulk class H0 follow from them."""

    target: OctantTopology
    case_id: str
    epsilon: float
    stacks: dict = field(hash=False)

    @property
    def M(self) -> tuple:
        return tuple(self.stacks[axis].layers if axis in self.stacks else 0 for axis in AXES)

    @cached_property
    def H0(self) -> OctantTopology:
        """The bulk class: the target's wrapping numbers less the stacks'
        degree tables."""
        w = wrapping_from_invariants(self.target)
        tables = self.stack_tables().values()
        w0 = WrappingNumbers(tuple(w[sec] - sum(t[sec] for t in tables) for sec in SECTORS))
        try:
            return invariants_from_wrapping(w0)
        except InvalidWrappingError as e:
            raise InternalConsistencyError(f"case {self.case_id}: bulk {e}") from None

    def stack_tables(self) -> dict:
        return {axis: stack_degree_table(st, axis) for axis, st in self.stacks.items()}

    def seam_radii(self) -> dict:
        """Chart radii where the map changes formula, per stacked vertex: the
        stack's annulus boundaries, the last of which is the collar's inner
        edge epsilon, and the collar's outer edge 2 epsilon."""
        return {axis: st.seams() + (2 * self.epsilon,) for axis, st in self.stacks.items()}

    def as_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "target": {"e": list(self.target.e), "k": list(self.target.k),
                       "omega_units": self.target.omega_units},
            "H0": {"e": list(self.H0.e), "k": list(self.H0.k),
                   "omega_units": self.H0.omega_units},
            "M": list(self.M),
            "epsilon": self.epsilon,
        }


def _stack_flip(axis: str, sigma_minus):
    """Flip of the standard stack (``stacks.alternating``) whose odd layers
    cover sigma_- and sigma_- with its j component flipped.  In the j-vertex
    chart that pair is the quadrant (a, b) of sigma_-'s other two components,
    and the odd layers cover (-flip, -flip).  None when a != b: only a
    modulus-inverting reflection reaches that quadrant."""
    a, b = chart_sector(axis, sigma_minus)[:2]
    return -a if a == b else None


def _verify_spec(spec: PatchworkSpec, w: WrappingNumbers, c: Classification) -> None:
    """Check a spec against the verification identities: its bulk class is
    one-signed, each e0_j matches the parity of the j-stack's top layer (-1
    for an odd top, +1 for an even one or no stack), and the coverage
    identity holds."""
    w0 = wrapping_from_invariants(spec.H0)
    if not (all(v <= 0 for v in w0.values) or all(v >= 0 for v in w0.values)):
        raise InternalConsistencyError(f"bulk class of case {spec.case_id} is not one-signed")
    if spec.H0.e != tuple(-1 if m % 2 else 1 for m in spec.M):
        raise InternalConsistencyError(
            f"case {spec.case_id}: bulk edge signs {spec.H0.e} do not match M {spec.M}"
        )
    coverage = w0.total_absolute() + 2 * sum(spec.M)
    expected_total = w.total_absolute() + delta_invariant(w, c)
    if coverage != expected_total:
        raise InternalConsistencyError(
            f"case {spec.case_id}: coverage identity {coverage} != {expected_total}"
        )


def _tabulated_case(k, n: int):
    """Case id and stack counts M for sorted positive kinks."""
    kx, ky, kz = k
    s = kx + ky + kz
    two = kz - (kx + ky) >= 0
    d_template = (2 * (ky + kz - n - 2) + 1, 2 * (kx + kz - n - 2) + 1, 2 * (n - kz + 1))
    # At n = (s-2)/2 (even s) the b-template's bulk has k_0z = 0 and acquires
    # wrapping numbers of both signs, so it is not conformal as stated; the
    # d-template satisfies every verification identity there and is used
    # instead.
    b_template = d_template if s - 2 * n - 2 == 0 else (
        2 * (n - kx + 1), 2 * (n - ky + 1), 2 * (kx + ky - n - 2))
    cases = []
    if 1 <= n <= ky - 1:
        cases.append(("2a" if two else "1a", (2 * n, 0, 0)))
    if not two and ky <= n <= (s - 2) // 2:
        cases.append(("1b", b_template))
    if two and ky <= n <= kx + ky - 2:
        cases.append(("2b", b_template))
    if not two and math.ceil((s - 1) / 2) <= n <= kx + ky - 2:
        cases.append(("1c", (2 * (ky + kz - n - 1), 2 * (kx + kz - n - 1), 2 * (n - kz + 1))))
    if two and kx + ky - 1 <= n <= kz - 1:
        cases.append(("2c", (2 * ky + 2 * (kz - n - 1), 2 * (n - ky) + 1, 0)))
    if (kz if two else kx + ky - 1) <= n <= kx + kz - 2:
        cases.append(("2d" if two else "1d", d_template))
    if kx + kz - 1 <= n <= ky + kz - 2:
        cases.append(("2e" if two else "1e", (2 * (ky + kz - n - 2) + 1, 2 * kx - 1, 0)))
    if ky + kz - 1 <= n <= s - 2:
        cases.append(("2f" if two else "1f", (2 * (s - n - 2) + 1, 0, 0)))
    if len(cases) != 1:
        raise InternalConsistencyError(
            f"case tables matched {len(cases)} ranges for k={k}, n={n}"
        )
    return cases[0]


_LAYER_RATIO_POWER = 3
_MIN_INNER_SCALE = 1e-13


def _layer_ratio(epsilon: float, layers: int) -> float:
    """The stack layer ratio delta for a chart radius epsilon.

    delta = epsilon^_LAYER_RATIO_POWER, raised where needed so the innermost
    layer's unit-modulus radius sqrt(delta) * rho_1, with
    rho_1 = epsilon * delta^(L-1), stays at or above _MIN_INNER_SCALE, and
    never above epsilon.
    """
    try:
        floor = (_MIN_INNER_SCALE / epsilon) ** (1.0 / (layers - 0.5))
    except OverflowError:  # a tiny epsilon: the floor lies far above it
        return epsilon
    return min(max(epsilon**_LAYER_RATIO_POWER, floor), epsilon)


def _stack(covers, epsilon: float) -> QuarterSphereStack:
    stack = QuarterSphereStack(covers, epsilon, _layer_ratio(epsilon, len(covers)))
    if stack.inner_scale() < sys.float_info.min:
        raise UnsupportedClassError(
            f"a {len(covers)}-layer stack at epsilon={epsilon} has its innermost "
            "layer below double precision"
        )
    return stack


def _build_stacks(case_id: str, M, epsilon: float, k, n: int) -> dict:
    """The stacks of a tabulated case.  Case 2c's x-stack covers the
    antidiagonal quadrant at its even layers up to 2(k_z - n - 1), its
    y-stack at its odd layers up to 2(n - k_x - k_y + 1); every other layer
    alternates."""
    stacks = {}
    for axis, layers in zip(AXES, M):
        if layers == 0:
            continue
        covers = alternating(layers)
        if case_id == "2c":
            parity, special = ((0, 2 * (k[2] - n - 1)) if axis == "x"
                               else (1, 2 * (n - k[0] - k[1] + 1)))
            covers = tuple((1, -1) if m % 2 == parity and m <= special else c
                           for m, c in enumerate(covers, start=1))
        stacks[axis] = _stack(covers, epsilon)
    return stacks


def _least_stack_counts(w, sigma_minus, flips, expected_total: int):
    """The least stack counts M, by total and then lex, whose standard stacks
    leave a one-signed bulk meeting the coverage identity; None if none do.

    The j-stack's p_j = ceil(M_j/2) odd layers raise w0 by one at sigma_- and
    at sigma_- with j flipped, its q_j = floor(M_j/2) even layers lower it by
    one at the antipodes of these two.  For a bulk sign s (s w0 >= 0) and
    parities o_j = M_j mod 2 (0 where the flip is None), q_j = p_j - o_j and
    the coverage identity fixes P = sum p_j: 4P = E - s sum w + 2(1 - s)
    sum o.  Each sector then bounds P or one p_j, so the least-lex p in the
    box summing to P is greedy, and M = 2p - o.  M is the least over the
    (at most 16) patterns of s and o.  Each layer flips its vertex's edge
    sign, so the bulk's edge signs are (-1)^M; ``_verify_spec`` checks it."""
    def at(axes, sign=1):  # w at sign * (sigma_- with the components on axes flipped)
        return w[tuple(sign * (-v if i in axes else v) for i, v in enumerate(sigma_minus))]

    def box(sign, low, high):  # x with sign (low + x) >= 0 and sign (high - x) >= 0
        return (-low, high) if sign > 0 else (high, -low)

    solutions = []
    for sign, odd in itertools.product((1, -1), itertools.product((0, 1), repeat=3)):
        P, rest = divmod(expected_total - sign * sum(w.values) + 2 * (1 - sign) * sum(odd), 4)
        lo, hi = box(sign, at(()), at((), -1) + sum(odd))
        bounds = [box(sign, at((j,)), at((j,), -1) + o) for j, o in enumerate(odd)]
        bounds = [(max(l, o), h if f is not None else min(h, 0))
                  for (l, h), o, f in zip(bounds, odd, flips)]
        if (rest or not lo <= P <= hi or any(l > h for l, h in bounds)
                or not sum(l for l, _ in bounds) <= P <= sum(h for _, h in bounds)):
            continue
        p = []
        for j, (l, _) in enumerate(bounds):
            p.append(max(l, P - sum(p) - sum(h for _, h in bounds[j + 1:])))
        solutions.append(tuple(2 * pj - o for pj, o in zip(p, odd)))
    return min(solutions, key=lambda M: (sum(M), M), default=None)


def _general_sign_spec(target, w, c, epsilon: float) -> PatchworkSpec:
    """Stack counts M for classes outside the tabulated branch (unsorted,
    negative, or zero kinks).  sigma_- is the sector of signs opposite to
    the kinks' when no kink is zero, else the class's sigma_- when it is
    antipodal to sigma_+; otherwise there is none.  Every vertex gets the
    standard stack whose odd layers cover the relocated pair of sigma_-
    (``_stack_flip``); a vertex whose pair needs a modulus-inverting
    reflection gets none.  The counts are solved from the coverage identity
    (``_least_stack_counts``): the least M, by total and then lex, whose
    bulk class is one-signed and meets the identity."""
    sigma_minus = None
    if all(v != 0 for v in target.k):
        sigma_minus = tuple(-1 if v > 0 else 1 for v in target.k)
    elif c.sigma_minus is not None and tuple(-s for s in c.sigma_minus) == c.sigma_plus:
        sigma_minus = c.sigma_minus
    unreachable = []
    if sigma_minus is not None:
        flips = [_stack_flip(axis, sigma_minus) for axis in AXES]
        unreachable = [a for a, f in zip(AXES, flips) if f is None]
        expected_total = w.total_absolute() + delta_invariant(w, c)
        M = _least_stack_counts(w, sigma_minus, flips, expected_total)
        if M is not None:
            stacks = {axis: _stack(alternating(m, flip), epsilon)
                      for axis, m, flip in zip(AXES, M, flips) if m}
            spec = PatchworkSpec(target, "general-sign", epsilon, stacks)
            _verify_spec(spec, w, c)
            return spec
    reach = (f"; the {', '.join(unreachable)} vertex stacks would need a "
             "modulus-inverting reflection" if unreachable else "")
    raise UnsupportedClassError(
        f"no stack counts satisfy the coverage identity for k={target.k}, "
        f"omega_units={target.omega_units}{reach}"
    )


def select_case(target: OctantTopology, epsilon: float = 0.05) -> PatchworkSpec:
    """Pick the stacks realizing the target class.

    The target must be nonconformal with edge signs (+,+,+) (normalize first
    with ``topology.normalize_edge_signs``).  Sorted positive kinks use the
    tabulated cases 1a..2f; everything else gets standard stacks whose
    counts are solved from the coverage identity (``_general_sign_spec``): at
    most 16 patterns of bulk sign and layer parities, each solved in closed
    form.  Raises ``UnsupportedClassError`` when no stack counts satisfy the
    coverage identity with stacks at the vertices that modulus-preserving
    reflections reach.
    """
    if not 0 < epsilon < 0.125:
        raise ValueError("epsilon must lie in (0, 1/8)")
    if target.e != (1, 1, 1):
        raise UnsupportedClassError("normalize edge signs to (+,+,+) first")
    w = wrapping_from_invariants(target)
    c = classify(w, target)
    if c.kind != "nonconformal":
        raise NotApplicableError(f"class is {c.kind}; use a rational representative")
    kx, ky, kz = target.k
    if 0 < kx <= ky <= kz:
        n = w[(1, 1, 1)]
        case_id, M = _tabulated_case(target.k, n)
        spec = PatchworkSpec(target, case_id, epsilon,
                             _build_stacks(case_id, M, epsilon, target.k, n))
        _verify_spec(spec, w, c)
        return spec
    return _general_sign_spec(target, w, c, epsilon)


# ---------------------------------------------------------------------------
# Assembled maps
# ---------------------------------------------------------------------------

@dataclass
class SampledMap:
    """A map on the quarter disc, described by its signed regions.

    ``regions`` form the signed decomposition that energy, trapped area and
    degree counts integrate over, and they also give the map's values and
    subdomain tags: the first region, the bulk, holds every point, and a
    point takes the value and the name of the last positive region whose
    half-open chart annulus r_lo < |u| <= r_hi (closed at r_lo = 0) holds
    its chart point u.
    """

    regions: list
    metadata: object = None

    def _owners(self, w):
        """(index of the region holding each point of w, chart points of w
        per region); each chart is applied once."""
        owner = np.zeros(w.shape, dtype=int)
        charted, points = {}, []
        for i, region in enumerate(self.regions):
            if region.chart not in charted:
                u = w if region.chart is None else region.chart(w)
                charted[region.chart] = u, np.abs(u)
            u, r = charted[region.chart]
            points.append(u)
            if i and region.weight > 0:
                inside = (r <= region.r_hi) & ((r > region.r_lo) | (region.r_lo == 0))
                owner[inside] = i
        return owner, points

    def evaluate(self, w):
        """Map values at complex points w (an array, or one point)."""
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        owner, points = self._owners(w)
        out = np.empty(w.shape, dtype=complex)
        for i in np.unique(owner):
            held = owner == i
            out[held] = self.regions[i].evaluate(points[i][held])
        return complex(out[0]) if scalar else out

    def subdomain_tags(self, w):
        """The name of the region holding each point of w."""
        owner, _ = self._owners(np.atleast_1d(np.asarray(w, dtype=complex)))
        return np.array([region.name for region in self.regions], dtype=object)[owner]


def identity_map() -> SampledMap:
    return SampledMap(
        [Region("bulk", lambda w: np.asarray(w, dtype=complex), 0.0, 1.0)],
        metadata="identity",
    )


def rational_map(spec: RationalMapSpec) -> SampledMap:
    """The rational map of ``spec`` as one closed-form region, as a
    patchwork's bulk is: energy, trapped area and degree counts read its
    centroid preimages and build no grid."""
    r_cl, phi_cl = quadrature_clusters(spec)
    bulk = ChartRational(spec, "z")  # gamma_z is the identity
    return SampledMap(
        [Region("bulk", bulk, 0.0, 1.0, r_clusters=r_cl, phi_clusters=phi_cl, rational=bulk)],
        metadata=spec,
    )


def assemble_patchwork(spec: PatchworkSpec) -> SampledMap:
    """Build the evaluable representative for a verified PatchworkSpec: the
    bulk, minus the disc of chart radius 2 epsilon around each stacked
    vertex (``cut(x)``), plus one region per stack piece (``annulus(x,m)``,
    ``interp(x,n)``) and the collar (``switch(x)``, the stack's top layer
    switched into the cut disc's map), all in the vertex chart.

    The bulk region and each cut disc carry the bulk rational map in their
    chart (``rational.ChartRational``, also their evaluator: the z-chart,
    which is the domain's own, for the bulk), and each layer region its
    ``stacks.QuarterSphereStack.layer_monomial``, with the vertex chart,
    whose inverse relocates the layer's values, so energy, trapped area and
    degree counts take all three in closed form; only the interpolants and
    collars are gridded.  The bulk's closed form counts the same preimages
    that ``realize`` checked against H0's wrapping numbers."""
    stacks = spec.stacks
    bulk_spec = realize(spec.H0, stacked=tuple(stacks))
    epsilon = spec.epsilon
    bulk_r_cl, bulk_phi_cl = quadrature_clusters(bulk_spec)

    bulk = ChartRational(bulk_spec, "z")  # gamma_z is the identity
    regions = [Region("bulk", bulk, 0.0, 1.0, r_clusters=bulk_r_cl, phi_clusters=bulk_phi_cl,
                      rational=bulk)]
    for axis, st in stacks.items():
        chart = partial(relocate_inverse, axis)
        cut = ChartRational(bulk_spec, axis)
        regions.append(Region(f"cut({axis})", cut, 0.0, 2 * epsilon, "log", -1, chart=chart,
                              rational=cut))
        for kind, index, r_lo, r_hi, formula in st.pieces():
            regions.append(Region(
                f"{kind}({axis},{index})", lambda u, a=axis, f=formula: relocate(a, f(u)),
                r_lo, r_hi, "log", chart=chart, center_scale=st.inner_scale(),
                monomial=formula if kind == "annulus" else None,
            ))

        def collar(u, a=axis, s=st, f=cut):
            # blended in the vertex chart, not in w, which keeps the tangent
            # boundary conditions on the arc
            return relocate(a, s.switch(s.layers, u, relocate_inverse(a, f(u))))

        regions.append(Region(f"switch({axis})", collar, epsilon, 2 * epsilon, chart=chart))

    return SampledMap(regions, metadata=spec)


def measure_map_wrapping(report: DegreeReport) -> WrappingNumbers:
    """Wrapping numbers w_sigma = -d_sigma of a map, d_sigma the signed
    coverings of the sector centroids that its regions count
    (``numerics.region_degrees`` or ``numerics.degree_count``).  A count
    whose target stayed near an image-triangle edge through every retry is
    not trusted: ``ConstructionError`` names those sectors."""
    unsure = [sector_name(s) for s, entry in report.by_sector.items() if not entry.confident]
    if unsure:
        raise ConstructionError(f"degree counts not confident in sectors {', '.join(unsure)}")
    return WrappingNumbers(tuple(-report[sector].d for sector in SECTORS))
