"""Explicit representatives: bulk rational map glued to vertex stacks.

Given a nonconformal class (edge signs normalized to (+,+,+)), ``select_case``
picks a bulk conformal/anticonformal class H0 and per-vertex stack layer
counts M = (M_x, M_y, M_z) from the tabulated construction (positive ordered
kinks) or from the general-sign search, verifying before returning that

- the bulk edge signs satisfy e_{0j} = (-1)^{M_j}: -1 exactly where the
  j-stack's top layer is odd, with large moduli at the collar,
- wrapping additivity: w_{sigma,0} + sum_j d_j(sigma) = w_sigma,
- the coverage identity sum|w_0| + 2 sum M_j = sum|w| + Delta.

Stacks have two scales (see ``stacks``): the chart radius epsilon and the
layer ratio delta.  ``select_case`` sets delta = epsilon^3
(``_layer_ratio``), so layers and interpolation annuli cost O(delta) and the
gap is set by the collars.  A floor keeps the innermost layer resolvable in
double precision: delta is raised where needed so that the innermost layer's
unit-modulus radius sqrt(delta) * rho_1, with rho_1 = epsilon * delta^(L-1),
stays at or above 1e-13 (boundary windings sample the loop in a parameter
whose spacing near a vertex is about 4e-16; below the floor they cannot
resolve the innermost layer and bisect without end).  delta never exceeds
epsilon.

``assemble_patchwork`` realizes the bulk rational map with its free
parameters fitted to the stacked vertices (``rational.realize``), relocates
the stacks to their vertices with the Moebius rotations, and glues across
the collar annuli epsilon <= |u| <= 2 epsilon with the switching function
s = (|u| - epsilon)/epsilon, reciprocally for odd M_j (pole-side values) and
linearly for even M_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import relocate, relocate_inverse
from .numerics import IntegrationError, MeshUnavailableError, Region
from .rational import (
    RationalMapSpec,
    boundary_seed_for_spec,
    evaluate_rational,
    measure_wrapping,
    quadrature_clusters,
    realize,
)
from .stacks import PERMUTATIONS, QuarterSphereStack, alternating, blend, stack_degree_table
from .topology import (
    SECTORS,
    Classification,
    InvalidWrappingError,
    OctantTopology,
    WrappingNumbers,
    classify,
    delta_invariant,
    invariants_from_wrapping,
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

AXES = ("x", "y", "z")


class NotApplicableError(ValueError):
    """The class is conformal or anticonformal: no patchwork is needed."""


class UnsupportedClassError(ValueError):
    """The class falls outside the implemented construction recipes."""


class InternalConsistencyError(RuntimeError):
    """A selected case failed its own verification identities."""


@dataclass(frozen=True)
class PatchworkSpec:
    target: OctantTopology
    case_id: str
    H0: OctantTopology
    M: tuple
    epsilon: float
    stacks: dict = field(compare=False)

    def stack_tables(self) -> dict:
        return {
            axis: stack_degree_table(self.stacks[axis], axis)
            for axis in AXES
            if axis in self.stacks
        }

    def seam_radii(self) -> dict:
        """Chart radii where the map changes formula, per stacked vertex: the
        stack's annulus boundaries, the collar's inner edge epsilon and its
        outer edge 2 epsilon."""
        return {
            axis: st.seams() + (self.epsilon, 2 * self.epsilon)
            for axis, st in self.stacks.items()
        }

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


def _flip_axis(sector, axis: str):
    i = AXES.index(axis)
    out = list(sector)
    out[i] = -out[i]
    return tuple(out)


def _general_table(axis: str, layers: int, sigma_minus) -> dict:
    """Wrapping contribution of a j-vertex stack in the general-sign recipe,
    derived in the target frame: the odd, conformal layers cover
    {sigma_-, flip_j(sigma_-)} once each (contribution -1), the even,
    anticonformal ones the antipodal pair {sigma_+, flip_j(sigma_+)} (+1)."""
    table = {s: 0 for s in SECTORS}
    n_conf = (layers + 1) // 2
    n_anti = layers - n_conf
    sigma_plus = tuple(-s for s in sigma_minus)
    for s in (sigma_minus, _flip_axis(sigma_minus, axis)):
        table[s] -= n_conf
    for s in (sigma_plus, _flip_axis(sigma_plus, axis)):
        table[s] += n_anti
    return table


def _stack_flip(axis: str, sigma_minus):
    """Flip of the standard stack (``stacks.alternating``) that covers the
    required pair, or None when the pre-relocation pair is not reachable by
    modulus-preserving reflections (the pair's first two chart components
    differ)."""
    inv_axis = {"x": "y", "y": "x", "z": "z"}[axis]
    pre = PERMUTATIONS[inv_axis](sigma_minus)
    pre_flip = PERMUTATIONS[inv_axis](_flip_axis(sigma_minus, axis))
    common = {(pre[0], pre[1]), (pre_flip[0], pre_flip[1])}
    if len(common) != 1:
        raise AssertionError("relocated pair is not a chart z-pair")
    a, b = common.pop()
    if a != b:
        return None
    return -a  # the odd layers' pair (-flip, -flip) must equal (a, a)


def _verify_spec(spec: PatchworkSpec, w: WrappingNumbers, c: Classification,
                 *table_sets) -> None:
    """Check a spec against the verification identities: the j-stack has M_j
    layers, the bulk class is one-signed, each e0_j matches the parity of the
    j-stack's top layer (-1 for an odd top, +1 for an even one or no stack),
    the bulk plus the stack tables assembles to the target wrapping numbers
    for the spec's own stacks and for every further table set given, and the
    coverage identity holds."""
    layers = tuple(spec.stacks[axis].layers if axis in spec.stacks else 0 for axis in AXES)
    if layers != tuple(spec.M):
        raise InternalConsistencyError(
            f"case {spec.case_id}: stack layers {layers} != M {tuple(spec.M)}"
        )
    w0 = wrapping_from_invariants(spec.H0)
    if not (all(v <= 0 for v in w0.values) or all(v >= 0 for v in w0.values)):
        raise InternalConsistencyError(f"bulk class of case {spec.case_id} is not one-signed")
    for axis, e0 in zip(AXES, spec.H0.e):
        st = spec.stacks.get(axis)
        if e0 != (-1 if st is not None and st.top_is_conformal else 1):
            raise InternalConsistencyError(
                f"case {spec.case_id}: e0[{axis}] does not match the stack's top layer"
            )
    for tables in (spec.stack_tables(), *table_sets):
        assembled = tuple(
            v0 + sum(t.get(sector, 0) for t in tables.values())
            for sector, v0 in zip(SECTORS, w0.values)
        )
        if assembled != w.values:
            raise InternalConsistencyError(
                f"case {spec.case_id}: assembled wrapping {assembled} != target {w.values}"
            )
    coverage = w0.total_absolute() + 2 * sum(spec.M)
    expected_total = w.total_absolute() + delta_invariant(w, c)
    if coverage != expected_total:
        raise InternalConsistencyError(
            f"case {spec.case_id}: coverage identity {coverage} != {expected_total}"
        )


def _tabulated_case(k, n: int):
    """Case id, H0 invariants, and M for sorted positive kinks."""
    kx, ky, kz = k
    s = kx + ky + kz
    two = kz - (kx + ky) >= 0
    cases = []
    if 1 <= n <= ky - 1:
        cases.append(("2a" if two else "1a", (1, 1, 1),
                      (kx, ky - n, kz - n), 8 * n + 7 - 4 * s,
                      (2 * n, 0, 0)))
    # At n = (s-2)/2 (even s) the b-template's bulk has k_0z = 0 and acquires
    # wrapping numbers of both signs, so it is not conformal as stated; the
    # d-template satisfies every verification identity there and is used
    # instead.
    def case_b(name):
        if s - 2 * n - 2 == 0:
            return (name, (-1, -1, 1), (0, 0, 2 * n + 3 - s), 8 * n + 11 - 4 * s,
                    (2 * (ky + kz - n - 2) + 1, 2 * (kx + kz - n - 2) + 1,
                     2 * (n - kz + 1)))
        return (name, (1, 1, 1), (1, 1, s - 2 * n - 2), 8 * n + 7 - 4 * s,
                (2 * (n - kx + 1), 2 * (n - ky + 1), 2 * (kx + ky - n - 2)))

    if not two and ky <= n <= (s - 2) // 2:
        cases.append(case_b("1b"))
    if two and ky <= n <= kx + ky - 2:
        cases.append(case_b("2b"))
    if not two and math.ceil((s - 1) / 2) <= n <= kx + ky - 2:
        cases.append(("1c", (1, 1, 1), (0, 0, 2 * n + 2 - s), 8 * n + 7 - 4 * s,
                      (2 * (ky + kz - n - 1), 2 * (kx + kz - n - 1), 2 * (n - kz + 1))))
    if two and kx + ky - 1 <= n <= kz - 1:
        cases.append(("2c", (1, -1, 1), (0, 0, 0), 1,
                      (2 * ky + 2 * (kz - n - 1), 2 * (n - ky) + 1, 0)))
    lo_d = kz if two else kx + ky - 1
    if lo_d <= n <= kx + kz - 2:
        cases.append(("2d" if two else "1d", (-1, -1, 1),
                      (0, 0, 2 * n + 3 - s), 8 * n + 11 - 4 * s,
                      (2 * (ky + kz - n - 2) + 1, 2 * (kx + kz - n - 2) + 1,
                       2 * (n - kz + 1))))
    if kx + kz - 1 <= n <= ky + kz - 2:
        cases.append(("2e" if two else "1e", (-1, -1, 1),
                      (0, n - kz + 1, n - kx - ky + 2), 8 * n + 11 - 4 * s,
                      (2 * (ky + kz - n - 2) + 1, 2 * kx - 1, 0)))
    if ky + kz - 1 <= n <= s - 2:
        cases.append(("2f" if two else "1f", (-1, 1, 1),
                      (kx, n - kx - kz + 1, n - kx - ky + 1), 8 * n + 9 - 4 * s,
                      (2 * (s - n - 2) + 1, 0, 0)))
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
    floor = (_MIN_INNER_SCALE / epsilon) ** (1.0 / (layers - 0.5))
    return min(max(epsilon**_LAYER_RATIO_POWER, floor), epsilon)


def _build_stacks(case_id: str, M, epsilon: float, k, n: int, sigma_minus=None):
    """The stacks of a spec, or None when a general-sign stack's pair is out of
    reach (see ``_stack_flip``).  Case 2c's x-stack covers the antidiagonal
    quadrant at its even layers up to 2(k_z - n - 1), its y-stack at its odd
    layers up to 2(n - k_x - k_y + 1); every other layer alternates."""
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
        elif sigma_minus is not None:
            flip = _stack_flip(axis, sigma_minus)
            if flip is None:
                return None
            covers = alternating(layers, flip)
        stacks[axis] = QuarterSphereStack(covers, epsilon, _layer_ratio(epsilon, layers))
    return stacks


def _layer_splits(budget: int):
    """Stack counts M with at most ``budget`` layers in all, by total, then lex."""
    for total in range(budget + 1):
        for mx in range(total + 1):
            for my in range(total - mx + 1):
                yield mx, my, total - mx - my


def _general_sign_spec(target, w, c, epsilon: float) -> PatchworkSpec:
    """Search M for classes outside the tabulated branch (unsorted, negative,
    or zero kinks).  The coverage pairs follow the general-sign recipe with
    sigma_+- at the extremal wrapping sectors; stacks are realizable only when
    the relocated pairs stay reachable by modulus-preserving reflections."""
    candidates = []
    if all(v != 0 for v in target.k):
        candidates.append(tuple(-1 if v > 0 else 1 for v in target.k))
    sp, sm = c.sigma_plus, c.sigma_minus
    if sm is not None and tuple(-s for s in sm) == sp and sm not in candidates:
        candidates.append(sm)
    delta = delta_invariant(w, c)
    budget = (w.total_absolute() + delta) // 2

    def solutions():
        """(sigma_minus, M, H0, tables) in search order."""
        for sigma_minus in candidates:
            for M in _layer_splits(budget):
                tables = {
                    axis: _general_table(axis, m, sigma_minus)
                    for axis, m in zip(AXES, M)
                }
                w0_vals = tuple(
                    w[sec] - sum(t[sec] for t in tables.values()) for sec in SECTORS
                )
                if not (all(v <= 0 for v in w0_vals) or all(v >= 0 for v in w0_vals)):
                    continue
                if sum(abs(v) for v in w0_vals) + 2 * sum(M) != w.total_absolute() + delta:
                    continue
                try:
                    h0 = invariants_from_wrapping(WrappingNumbers(w0_vals))
                except InvalidWrappingError:
                    continue
                if h0.e == tuple(-1 if m % 2 else 1 for m in M):
                    yield sigma_minus, M, h0, tables

    found = next(solutions(), None)
    if found is None:
        raise UnsupportedClassError(
            f"no stack counts satisfy the coverage identity for k={target.k}, "
            f"omega_units={target.omega_units}"
        )
    sigma_minus, M, h0, tables = found
    stacks = _build_stacks("general-sign", M, epsilon, target.k, 0, sigma_minus=sigma_minus)
    if stacks is None:
        raise UnsupportedClassError(
            "relocated stack pair needs a modulus-inverting reflection (mixed kink signs)"
        )
    spec = PatchworkSpec(target, "general-sign", h0, M, epsilon, stacks)
    _verify_spec(spec, w, c, tables)
    return spec


def select_case(target: OctantTopology, epsilon: float = 0.05) -> PatchworkSpec:
    """Pick the bulk class and stack counts realizing the target class.

    The target must be nonconformal with edge signs (+,+,+) (normalize first
    with ``topology.normalize_edge_signs``).  Sorted positive kinks use the
    tabulated cases 1a..2f; everything else goes through the general-sign
    search.  Raises ``UnsupportedClassError`` when no stack counts satisfy
    the coverage identity, or when a stack's covered pair would need a
    modulus-inverting reflection.
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
        case_id, e0, k0, u0, M = _tabulated_case(target.k, n)
        h0 = OctantTopology(e0, k0, u0)
        stacks = _build_stacks(case_id, M, epsilon, target.k, n)
        spec = PatchworkSpec(target, case_id, h0, M, epsilon, stacks)
        _verify_spec(spec, w, c)
        return spec
    return _general_sign_spec(target, w, c, epsilon)


# ---------------------------------------------------------------------------
# Assembled maps
# ---------------------------------------------------------------------------

@dataclass
class SampledMap:
    """A pointwise-evaluable map on the quarter disc with region structure.

    ``evaluate`` acts on complex arrays; ``subdomain_tags`` labels points;
    ``regions`` form the signed decomposition that energy, trapped area and
    degree counts integrate over.  ``boundary_seed`` parametrizes the boundary
    loop (period 3) with enough resolution to see all annuli.
    """

    evaluate: object
    subdomain_tags: object
    metadata: object = None
    regions: list = field(default_factory=list)
    boundary_seed: np.ndarray | None = None


def identity_map() -> SampledMap:
    eva = lambda w: np.asarray(w, dtype=complex)
    return SampledMap(
        evaluate=eva,
        subdomain_tags=lambda w: np.full(np.shape(w), "bulk", dtype=object),
        metadata="identity",
        regions=[Region("all", eva, 0.0, 1.0)],
    )


def rational_map(spec: RationalMapSpec) -> SampledMap:
    eva = lambda w: evaluate_rational(spec, w)
    r_cl, phi_cl = quadrature_clusters(spec)
    return SampledMap(
        evaluate=eva,
        subdomain_tags=lambda w: np.full(np.shape(w), "bulk", dtype=object),
        metadata=spec,
        regions=[Region("all", eva, 0.0, 1.0, r_clusters=r_cl, phi_clusters=phi_cl)],
        boundary_seed=boundary_seed_for_spec(spec),
    )


def _collar_chart_value(bulk_spec, axis, st, epsilon, u):
    """Collar blend in the vertex chart: the switch between the stack's top
    layer and the chart-pulled bulk map.  Blending in the rotated chart (not
    in w) is what preserves the tangent boundary conditions on the arc."""
    u = np.asarray(u, dtype=complex)
    g = st.layer_value(st.layers, u)
    f = relocate_inverse(axis, evaluate_rational(bulk_spec, relocate(axis, u)))
    s = (np.abs(u) - epsilon) / epsilon
    return blend(g, f, s, odd=st.top_is_conformal)


def _vertex_patches(stacks, epsilon, w):
    """The vertex-chart split of points w, vertex by vertex in stack order (a
    later vertex's patch overrides an earlier one).  Yields (axis, st, near,
    u, inner): ``near`` marks the points within 2 epsilon of the vertex in its
    chart, ``u`` holds their chart points and ``inner`` marks, among those,
    the stack inside epsilon; the rest is the collar."""
    for axis, st in stacks.items():
        u = relocate_inverse(axis, w)
        r = np.abs(u)
        near = r <= 2 * epsilon
        yield axis, st, near, u[near], r[near] <= epsilon


def _vertex_value(bulk_spec, axis, st, epsilon, u, inner):
    """Map value at chart points u of a stacked vertex, in the target frame:
    the stack at the ``inner`` points, the collar blend at the others."""
    out = np.empty(u.shape, dtype=complex)
    if inner.any():
        out[inner] = st.evaluate(u[inner])
    if not inner.all():
        out[~inner] = _collar_chart_value(bulk_spec, axis, st, epsilon, u[~inner])
    return relocate(axis, out)


def _patchwork_evaluate(bulk_spec, stacks, epsilon):
    """Evaluator of the assembled map: the bulk, replaced within 2 epsilon of
    each stacked vertex by ``_vertex_value``."""
    def evaluate(w):
        w = np.asarray(w, dtype=complex)
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(w)
        out = evaluate_rational(bulk_spec, w)
        for axis, st, near, u, inner in _vertex_patches(stacks, epsilon, w):
            if near.any():
                out[near] = _vertex_value(bulk_spec, axis, st, epsilon, u, inner)
        return complex(out[0]) if scalar else out

    return evaluate


def _patchwork_tags(stacks, epsilon):
    """Subdomain tags from the same vertex-chart split as the evaluator."""
    def tags(w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        out = np.full(w.shape, "bulk", dtype=object)
        for axis, st, near, u, inner in _vertex_patches(stacks, epsilon, w):
            part = np.full(u.shape, f"switch({axis})", dtype=object)
            if inner.any():
                part[inner] = np.array(
                    [t.replace("(", f"({axis},") for t in st.subdomain_tag(u[inner])],
                    dtype=object,
                )
            out[near] = part
        return out

    return tags


def _boundary_seed(bulk_spec, stacks, epsilon) -> np.ndarray:
    """Boundary parameters (period 3) log-refined into every stack annulus and
    into the bulk map's edge zeros and poles.  Each vertex ladder reaches a
    decade below the innermost layer's unit-modulus radius sqrt(delta) rho_1,
    where the boundary image passes the sector centroids."""
    params = [boundary_seed_for_spec(bulk_spec)]
    vertex_param = {"z": 0.0, "x": 1.0, "y": 2.0}
    for axis, st in stacks.items():
        r_min = 0.1 * st.inner_scale()
        ladder = np.geomspace(r_min, 6 * epsilon, 240)
        t0 = vertex_param[axis]
        params.append((t0 + ladder) % 3.0)
        params.append((t0 - ladder) % 3.0)
    return np.sort(np.unique(np.concatenate(params)))


def assemble_patchwork(spec: PatchworkSpec) -> SampledMap:
    """Build the evaluable representative for a verified PatchworkSpec."""
    stacks = spec.stacks
    bulk_spec = realize(spec.H0, stacked=tuple(stacks))
    epsilon = spec.epsilon
    evaluate = _patchwork_evaluate(bulk_spec, stacks, epsilon)
    feval = lambda w: evaluate_rational(bulk_spec, w)
    bulk_r_cl, bulk_phi_cl = quadrature_clusters(bulk_spec)

    regions = [Region("bulk", feval, 0.0, 1.0,
                      r_clusters=bulk_r_cl, phi_clusters=bulk_phi_cl)]
    for axis, st in stacks.items():
        fj = lambda u, a=axis: evaluate_rational(bulk_spec, relocate(a, u))
        regions.append(
            Region(f"bulk_cut_{axis}", fj, 0.0, 2 * epsilon, (epsilon,), "log", -1)
        )
        geval = lambda u, a=axis, s=st: relocate(a, s.evaluate(u))
        regions.append(
            Region(f"stack_{axis}", geval, 0.0, epsilon, st.seams(), "log", 1,
                   center_scale=st.inner_scale())
        )

        def collar_eval(u, a=axis, s=st):
            return relocate(a, _collar_chart_value(bulk_spec, a, s, epsilon, u))

        regions.append(
            Region(f"collar_{axis}", collar_eval, epsilon, 2 * epsilon, (), "linear", 1)
        )

    return SampledMap(
        evaluate=evaluate,
        subdomain_tags=_patchwork_tags(stacks, epsilon),
        metadata=spec,
        regions=regions,
        boundary_seed=_boundary_seed(bulk_spec, stacks, epsilon),
    )


def measure_map_wrapping(sampled_map: SampledMap, area) -> WrappingNumbers:
    """Wrapping numbers of an assembled map, measured numerically.

    Boundary windings give the pairwise degree differences exactly; the
    absolute anchor comes from the trapped area ``area``, the map's
    ``numerics.trapped_area`` result (omega, residual), whose pi/2-multiple
    rounding fixes the sum of signed degrees (sum_sigma d_sigma = -omega_units).
    """
    omega, residual = area
    if residual > 0.3:
        raise IntegrationError(f"trapped area did not converge (residual {residual:.3f})")
    units = round(omega / (math.pi / 2))
    return measure_wrapping(sampled_map.evaluate, -units, sampled_map.boundary_seed)
