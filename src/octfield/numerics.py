"""Dirichlet-energy quadrature, degree counting, and trapped-area integration.

Maps are consumed through a light protocol: an object with

- ``regions``: polar regions, each one formula on one annulus of a chart and
  each with a weight of +1 or -1, whose weighted sum is the domain: the
  bulk, minus each cut disc, plus the pieces that replace it.  The charts
  are conformal, so each region's flat polar integrand is the pulled back
  energy integrand;
- ``evaluate(w)``: vectorized evaluation on complex points of the quarter
  disc, read by ``boundary_residual``.

All three integrals read the same regions, each as it is given.  A
conformal or anticonformal piece has energy twice its spherical image area,
counted with multiplicity, so two kinds of region enter in closed form with
no grid:

- a region whose ``monomial`` g is set (a stack layer, c u^{+-1} or
  c conj(u)^{+-1} on a quarter annulus) maps its image moduli mu_lo, mu_hi
  at the rims onto a quarter zone of area A = pi |1/(1 + mu_lo^2) -
  1/(1 + mu_hi^2)|: energy 2 A, signed image area +A when conformal and -A
  when not, and one covering of each target whose chart value has its
  preimage under g inside the quarter annulus;
- a region whose ``rational`` F is set (a rational map in a vertex chart:
  the bulk in the z-chart on the whole quarter disc, or a cut disc in its
  vertex's chart) has a signed image area A (``_closed_area``): energy
  2 |A|, raw trapped area -A, and one covering of each target per preimage
  inside, conformal or not as F is.  On the whole quarter disc the tangent
  boundary conditions map the boundary into the sector boundaries, so
  A = (pi/2) sum_sigma d_sigma, d_sigma the signed count of centroid-sigma
  preimages inside; on a cut disc A is the boundary integral of
  alpha_p = 2 |G|^2 / (1 + |G|^2) d arg G, G the rotation sending a
  sector centroid p to infinity, plus 4 pi per preimage of p inside.

Every other region, an interpolant or a collar, is integrated on its grid.
Each grid is built and meshed once per map and level
(``_closed_and_grids``), and all three integrals read it: the energy
evaluates the region once at the cell centers and their stencil points, and
degree counts and the trapped area triangulate the grid through its
``mesh``, the region evaluated once at the grid vertices, whose image
triangles share one cross product per grid edge (``_ImageMesh``), so both
read the same edge normals and the degree counts push all eight sector
targets through it at once.  A cut disc takes each rim a grid shares as
that grid's geodesic polygon in the trapped area, and counts a preimage
within twice the rim chords' sagitta as near, so its rims cancel against
its replacement's mesh and the weighted counts are exact.  A layer's rims
are exact circular arcs where its gridded neighbours have chords, so the
trapped area of a map with layers misses a multiple of pi/2 by the slivers
between them (at most 6.4e-6 on the benchmark's classes).

The energy density in complex coordinates is
8 (|dK/dw|^2 + |dK/dwbar|^2) / (1 + |K|^2)^2 with Wirtinger derivatives
estimated by central differences; the coefficient 8 reproduces the exact
values E(identity) = pi and the quarter-sphere layer closed form.  Cells whose
center value exceeds the unit circle are evaluated in the reciprocal chart,
under which the density is invariant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ChartMonomial, sector_centroid, stereographic, stereographic_inverse
from .topology import SECTORS, sector_name

__all__ = [
    "Region",
    "QuadratureGrid",
    "SectorDegree",
    "DegreeReport",
    "IntegrationError",
    "MeshUnavailableError",
    "MAX_BOUNDARY_POINTS",
    "MAX_CONTOUR_PANELS",
    "dirichlet_energy",
    "degree_count",
    "region_degrees",
    "degree_differences_by_winding",
    "trapped_area",
    "boundary_residual",
    "lemma1_lower_bound",
]

ENERGY_DENSITY_COEFF = 8.0


class IntegrationError(RuntimeError):
    pass


class MeshUnavailableError(RuntimeError):
    """``degree_count`` does not count maps with more than one cut disc (a
    negative-weight region reaching r = 0).

    The signed regions count such maps correctly (``region_degrees``); only
    the benchmark's self-test (``perfbench/selftest.py``) still holds this
    refusal, and it goes with the next benchmark change (ROADMAP item 9)."""


@dataclass(frozen=True)
class Region:
    """One formula on one chart annulus: chart points u = r e^{i phi} with r
    in [r_lo, r_hi] and phi in [phi_lo, phi_hi].

    ``chart`` maps domain points w to chart points u (None is the identity);
    ``evaluate`` maps chart points to extended-complex map values.  Charts
    are conformal, so the flat polar integrand equals the pulled back energy
    integrand.  ``weight`` of -1 marks a subtractive region (a disc cut out of
    the bulk around a relocated vertex).

    ``r_clusters`` and ``phi_clusters`` are (position, inner_scale) pairs
    around which geometric ladders of grid lines are inserted; they resolve
    sharp energy peaks at map zeros/poles whose derivative scales can be far
    below any uniform resolution.

    ``center_scale`` is the radius of the map's finest structure at r = 0 (a
    stack's innermost unit-modulus circle): a log region reaching r = 0
    starts a decade below it, or at ``_LOG_FLOOR`` times its outer radius if
    that is lower.

    ``monomial``, when set, declares the region a chart monomial g (a
    ``geometry.ChartMonomial``) on the quarter annulus r_lo <= |u| <= r_hi,
    0 <= arg u <= pi/2: ``evaluate`` is u -> chart^-1(g(u)), and the chart is
    a rotation of the sphere (None, or a vertex relocation), which keeps
    energy, area and coverings.  The integrals take its closed form and
    build no grid for it.

    ``rational``, when set, declares the region a rational map F in a
    vertex chart (a ``rational.ChartRational``: a patchwork's bulk in the
    z-chart, or seen from a stacked vertex) on a quarter annulus with
    r_hi <= 1, and ``evaluate`` is F: the integrals take its image area from
    its preimages and, short of the whole quarter disc, a contour integral
    along its boundary, and its coverings from F's preimages, and build no
    grid for it (``_closed_area``).  A region carries at most one closed
    form.
    """

    name: str
    evaluate: object
    r_lo: float
    r_hi: float
    spacing: str = "linear"  # or "log"
    weight: int = 1
    phi_lo: float = 0.0
    phi_hi: float = math.pi / 2
    r_clusters: tuple = ()
    phi_clusters: tuple = ()
    center_scale: float = math.inf
    chart: object = None
    monomial: ChartMonomial | None = None
    rational: object = None

    def __post_init__(self):
        if self.monomial is not None and self.rational is not None:
            raise ValueError(f"region {self.name}: at most one closed form")
        quarter = (self.phi_lo, self.phi_hi) == (0.0, math.pi / 2)
        if self.monomial is not None:
            if not isinstance(self.monomial, ChartMonomial):
                raise ValueError(f"region {self.name}: monomial must be a ChartMonomial")
            if not (0 <= self.r_lo < self.r_hi < math.inf and quarter):
                raise ValueError(
                    f"region {self.name}: a monomial region is a quarter annulus"
                )
        if self.rational is not None:
            from .rational import ChartRational  # rational imports this module

            if not isinstance(self.rational, ChartRational):
                raise ValueError(f"region {self.name}: rational must be a ChartRational")
            if not (0 <= self.r_lo < self.r_hi <= 1 and quarter):
                raise ValueError(f"region {self.name}: a rational region is a quarter "
                                 "annulus inside the unit circle")


# resolution constants per grid level (level 1..5)
_N_PHI_BASE = 12
_N_LIN_BASE = 12
_N_DEC_BASE = 6
_LOG_FLOOR = 1e-4  # relative floor for log intervals reaching r = 0


def _level_counts(level: int):
    if not 1 <= level <= 6:
        raise ValueError("grid level must be in [1, 6]")
    scale = 2 ** (level - 1)
    return _N_PHI_BASE * scale, _N_LIN_BASE * scale, _N_DEC_BASE * scale


_CLUSTER_PER_DECADE = 6


def _cluster_ladder(points, lo, hi, clusters):
    """Insert geometric ladders around cluster centers into an edge list."""
    if not clusters:
        return points
    out = set(points.tolist())
    span = hi - lo
    for center, scale in clusters:
        inner = max(min(scale, span) * 0.02, 1e-14)
        reach = span
        n = max(4, int(math.ceil(_CLUSTER_PER_DECADE * math.log10(reach / inner))))
        ladder = np.geomspace(inner, reach, n)
        for side in (1.0, -1.0):
            vals = center + side * ladder
            out.update(v for v in vals.tolist() if lo < v < hi)
    edges = np.asarray(sorted(out))
    # coincident cluster centers give lines a rounding error apart; merge them
    tol = 1e-12 * span
    keep = np.concatenate([[True], np.diff(edges) > tol])
    keep[1:-1] &= edges[1:-1] < edges[-1] - tol
    return edges[keep]


def _radial_edges(region: Region, level: int) -> np.ndarray:
    _, n_lin, n_dec = _level_counts(level)
    a, b = region.r_lo, region.r_hi
    if region.spacing == "log":
        a_eff = a if a > 0 else min(b * _LOG_FLOOR, region.center_scale / 10)
        n = max(4, int(math.ceil(n_dec * math.log10(b / a_eff))))
        edges = np.geomspace(a_eff, b, n + 1)
        if a <= 0:
            edges = np.concatenate([[a], edges])
    else:
        n = max(6, int(math.ceil(n_lin * (b - a) / max(b, 1e-30))))
        edges = np.linspace(a, b, n + 1)
    return _cluster_ladder(edges, a, b, region.r_clusters)


@dataclass
class QuadratureGrid:
    """Prepared cells for one region, with their center nodes; ``weights``
    gives the tensor quadratic rule and ``mesh`` the image triangles."""

    region: Region
    r_edges: np.ndarray
    phi_edges: np.ndarray
    r_mid: np.ndarray = field(init=False)
    phi_mid: np.ndarray = field(init=False)

    def __post_init__(self):
        self.r_mid = 0.5 * (self.r_edges[:-1] + self.r_edges[1:])
        self.phi_mid = 0.5 * (self.phi_edges[:-1] + self.phi_edges[1:])

    @functools.cached_property
    def mesh(self) -> _ImageMesh:
        """The image mesh, the region evaluated once at the grid vertices."""
        w = self.r_edges[:, None] * np.exp(1j * self.phi_edges)
        return _ImageMesh(np.asarray(self.region.evaluate(w), dtype=complex))

    def weights(self):
        """(radial, angular) weight vectors of the tensor quadratic rule."""
        return (
            _quadratic_weights(self.r_edges, self.r_mid),
            _quadratic_weights(self.phi_edges, self.phi_mid),
        )


def _quadratic_weights(edges, nodes) -> np.ndarray:
    """Weights w with sum_i w_i g(nodes_i) ~ integral of g over the edges.

    Each cell integrates the parabola through its own node and its two
    neighbors (the nearest three at either end), so the rule is exact
    for quadratics on any spacing.  On the geometric ladders around clustered
    singularities the integrand changes by a large factor from cell to cell,
    where the midpoint rule is biased low; the parabola removes that bias at
    no extra evaluations.  A region is one formula, so no parabola reaches
    across a seam.  Fewer than three cells keep the midpoint rule.
    """
    n = len(nodes)
    if n < 3:
        return edges[1:] - edges[:-1]
    out = np.zeros(n)
    cell = np.arange(n)
    c = np.clip(cell, 1, n - 2)  # center node of each parabola
    x1 = nodes[c]
    d0, d2 = nodes[c - 1] - x1, nodes[c + 1] - x1
    a, b = edges[cell] - x1, edges[cell + 1] - x1
    m0, m1, m2 = b - a, (b**2 - a**2) / 2, (b**3 - a**3) / 3
    np.add.at(out, c - 1, (m2 - d2 * m1) / (d0 * (d0 - d2)))
    np.add.at(out, c, (m2 - (d0 + d2) * m1 + d0 * d2 * m0) / (d0 * d2))
    np.add.at(out, c + 1, (m2 - d0 * m1) / (d2 * (d2 - d0)))
    return out


def build_grids(regions, level: int):
    grids = []
    for region in regions:
        n_phi, _, _ = _level_counts(level)
        span = region.phi_hi - region.phi_lo
        n = max(8, int(round(n_phi * span / (math.pi / 2))))
        phi_edges = np.linspace(region.phi_lo, region.phi_hi, n + 1)
        phi_edges = _cluster_ladder(
            phi_edges, region.phi_lo, region.phi_hi, region.phi_clusters
        )
        grids.append(QuadratureGrid(region, _radial_edges(region, level), phi_edges))
    return grids


def _reciprocal(values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    finite = np.isfinite(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[finite] = 1.0 / values[finite]
    out[~finite] = 0.0
    zero = finite & (values == 0)
    out[zero] = np.inf
    return out


def _density(center, right, left, up, down, h):
    """Energy density from five-point stencils, reciprocal chart where |K| > 1.

    A difference that overflows gives a non-finite density, which
    ``_region_energy`` subdivides and then refuses, so overflow is not
    warned about here."""
    stacked = [center, right, left, up, down]
    flip = ~np.isfinite(center) | (np.abs(center) > 1.0)
    vals = [np.where(flip, _reciprocal(v), v) for v in stacked]
    c, r, l, u, d = vals
    with np.errstate(over="ignore"):
        du = (r - l) / (2 * h)
        dv = (u - d) / (2 * h)
        kw = 0.5 * (du - 1j * dv)
        kwb = 0.5 * (du + 1j * dv)
        return (
            ENERGY_DENSITY_COEFF
            * (np.abs(kw) ** 2 + np.abs(kwb) ** 2)
            / (1.0 + np.abs(c) ** 2) ** 2
        )


def _region_energy(grid: QuadratureGrid) -> float:
    region = grid.region
    r = grid.r_mid[:, None]
    phi = grid.phi_mid[None, :]
    dr = (grid.r_edges[1:] - grid.r_edges[:-1])[:, None]
    dphi = (grid.phi_edges[1:] - grid.phi_edges[:-1])[None, :]
    w = r * np.exp(1j * phi)
    h = np.minimum(dr, r * dphi) / 6.0
    f = region.evaluate
    # the center and its four stencil points in one call: every evaluator
    # is elementwise
    stencil = np.stack([w, w + h, w - h, w + 1j * h, w - 1j * h])
    dens = _density(*np.asarray(f(stencil), dtype=complex), h)
    for i, j in np.argwhere(~np.isfinite(dens)):
        # subdivide offending cells once (2x2 midpoints)
        sub = 0.0
        for a in (-0.25, 0.25):
            for b in (-0.25, 0.25):
                wc = (r[i, 0] + a * dr[i, 0]) * np.exp(1j * (phi[0, j] + b * dphi[0, j]))
                hh = h[i, j] / 2
                pts = np.array([wc, wc + hh, wc - hh, wc + 1j * hh, wc - 1j * hh])
                vals = np.asarray(f(pts), dtype=complex)
                dd = _density(vals[0:1], vals[1:2], vals[2:3], vals[3:4], vals[4:5], hh)
                if not np.isfinite(dd[0]):
                    raise IntegrationError(
                        f"non-finite energy density persists in region {region.name}"
                    )
                sub += 0.25 * dd[0]
        dens[i, j] = sub
    w_r, w_phi = grid.weights()
    return float(w_r @ (dens * r) @ w_phi)


def _is_closed(region: Region) -> bool:
    return region.monomial is not None or region.rational is not None


# (the regions of the last map the integrals read, its (closed-form
# regions, grids) per level), replaced as one tuple
_last_map = ((), {})


def _closed_and_grids(regions, level: int):
    """(the closed-form regions as given, the grids of all the others),
    built once per map and level: energy, trapped area and degree counts of
    one map read the same grids, and each grid's ``mesh``.  The last map's
    regions are held, so they stay the very objects a later call compares:
    any other list of regions builds afresh."""
    global _last_map
    regions = tuple(regions)
    held, by_level = _last_map
    if len(held) != len(regions) or any(a is not b for a, b in zip(held, regions)):
        by_level = {}
        _last_map = regions, by_level
    if level not in by_level:
        closed = [region for region in regions if _is_closed(region)]
        by_level[level] = closed, build_grids(
            [region for region in regions if not _is_closed(region)], level)
    return by_level[level]


def _closed_area(region: Region, grids=()) -> float:
    """Signed image area of a closed-form region, before its weight: its
    energy is twice the modulus, its raw trapped area minus it.  A monomial
    region whose rims have image moduli mu_lo and mu_hi covers A = pi
    |1/(1 + mu_lo^2) - 1/(1 + mu_hi^2)|, +A when conformal.  A rational
    region on the whole quarter disc covers A = (pi/2) sum_sigma d_sigma:
    the tangent boundary conditions map the boundary into the sector
    boundaries, so the degree is constant on each open sector
    (``quarter_disc_degrees``).  Any other rational region takes
    ``_chart_area``, its rims that one of the ``grids`` shares being that
    grid's geodesic polygons (``_shared_rims``)."""
    g = region.monomial
    if g is None:
        if (region.r_lo, region.r_hi) == (0.0, 1.0):
            return math.pi / 2 * sum(quarter_disc_degrees(region.rational))
        return _chart_area(region, _shared_rims(region, grids))
    q_lo, q_hi = (1 / (1 + g.modulus(r) ** 2) for r in (region.r_lo, region.r_hi))
    area = math.pi * abs(q_lo - q_hi)
    return area if g.conformal else -area


def dirichlet_energy(sampled_map, level: int = 3) -> float:
    """Dirichlet energy over the map's weighted regions: the closed form of
    each closed-form region (twice its ``_closed_area``), and the tensor
    quadratic rule on each other region's cells (see ``_quadratic_weights``)."""
    closed, grids = _closed_and_grids(sampled_map.regions, level)
    total = sum(region.weight * 2 * abs(_closed_area(region)) for region in closed)
    for grid in grids:
        total += grid.region.weight * _region_energy(grid)
    return total


# ---------------------------------------------------------------------------
# Rational chart regions: image area from a boundary contour
# ---------------------------------------------------------------------------

def _gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton steps on the Legendre polynomial P_n from the classic starts
    cos(pi (i - 1/4) / (n + 1/2)), weights 2 / ((1 - x^2) P_n'(x)^2)."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):  # quadratic convergence from these starts
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1)
        x = x - p / slope
    return x, 2 / ((1 - x * x) * slope * slope)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre_rule(10)
_CONTOUR_TOL = 1e-11  # absolute error allowed on each boundary segment
# most panels one boundary segment may reach; beyond it IntegrationError
MAX_CONTOUR_PANELS = 2**13
_LADDER_FLOOR = 1e-14  # innermost ladder step, relative to the segment
_LADDER_PER_DECADE = 3
# the sector centroids' chart values, in SECTORS order: the one table that
# degree counts, contour references and preimage caches all read
CENTROID_VALUES = tuple(complex(stereographic(sector_centroid(s))) for s in SECTORS)


def _boundary(lo: float, hi: float):
    """The boundary of the quarter annulus lo <= |u| <= hi, counterclockwise,
    as segments (radius, direction, sign, span): the real edge (radius 0,
    direction 1), the outer arc, the imaginary edge (direction i) and the
    inner arc if lo > 0, each traversed forward (sign +1) or backward (-1)
    along its parameter t in [0, span].  An arc of radius r is the path
    r e^{it}, an edge the path direction (lo + t)."""
    segments = [(0.0, 1, 1, hi - lo), (hi, 1, 1, math.pi / 2), (0.0, 1j, -1, hi - lo)]
    if lo > 0:
        segments.append((lo, 1, -1, math.pi / 2))
    return segments


def _panel_edges(points, radius, direction, span, lo):
    """Initial panel edges of a segment: four equal panels, and a geometric
    ladder, three steps a decade from the point's distance (at least
    ``_LADDER_FLOOR`` of the span) up to the span, on both sides of the
    nearest parameter of each chart point within a span of the segment.
    The map's fastest structure (the bumps of its zeros and poles, and of
    the reference's preimages, ``_chart_contour``) lies there, however
    small its scale."""
    if radius:
        t = np.clip(np.angle(points), 0.0, span)
        d = np.abs(points - radius * np.exp(1j * t)) / radius
    else:
        along = points / direction
        t = np.clip(along.real - lo, 0.0, span)
        d = np.abs(along - (lo + t))
    near = d < span
    t, inner = t[near], np.maximum(d[near], _LADDER_FLOOR * span)
    steps = inner[:, None] * 10 ** (np.arange(15 * _LADDER_PER_DECADE) / _LADDER_PER_DECADE)
    ladder = np.where(steps < span, steps, 0.0)
    edges = np.concatenate([np.linspace(0.0, span, 5), t,
                            (t[:, None] - ladder).ravel(), (t[:, None] + ladder).ravel()])
    edges = np.unique(np.clip(edges, 0.0, span))
    edges = edges[np.concatenate([[True], np.diff(edges) > 1e-15 * span])]
    edges[-1] = span
    return edges


def _contour_integrals(density, segments, edges) -> np.ndarray:
    """Integral of density along each segment (radius, direction, sign,
    span) over its panel edges, by composite Gauss-Legendre panels (10
    nodes), all segments' panels evaluated together: each panel is halved
    until its two passes agree to ``_CONTOUR_TOL`` times its share of its
    segment's span, or to rounding.  density(t, radius, direction) takes
    parameters and per-panel columns of the segment's path.  Raises
    ``IntegrationError`` past ``MAX_CONTOUR_PANELS`` panels a segment."""
    radius, direction, _, span = (np.array(column) for column in zip(*segments))
    seg = np.concatenate([np.full(len(e) - 1, i) for i, e in enumerate(edges)])
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])

    def passes(lo, hi, seg):
        half = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        values = density(t, radius[seg][:, None], direction[seg][:, None])
        return (values @ _GL_WEIGHTS) * half, (np.abs(values) @ _GL_WEIGHTS) * half

    whole, _ = passes(lo, hi, seg)
    totals = np.zeros(len(segments))
    panels = np.bincount(seg, minlength=len(segments))
    while len(lo):
        if np.any(panels > MAX_CONTOUR_PANELS):
            raise IntegrationError(
                f"boundary contour unresolved at {MAX_CONTOUR_PANELS} panels"
            )
        mid = 0.5 * (lo + hi)
        n = len(lo)
        halves, sizes = passes(np.r_[lo, mid], np.r_[mid, hi], np.r_[seg, seg])
        refined = halves[:n] + halves[n:]
        err = np.abs(refined - whole)
        done = ((err <= _CONTOUR_TOL * (hi - lo) / span[seg])
                | (err <= 1e-13 * (sizes[:n] + sizes[n:])))
        totals += np.bincount(seg[done], weights=refined[done], minlength=len(segments))
        more = ~done
        lo, hi = np.r_[lo[more], mid[more]], np.r_[mid[more], hi[more]]
        seg, whole = np.r_[seg[more], seg[more]], np.r_[halves[:n][more], halves[n:][more]]
        panels += np.bincount(seg, minlength=len(segments))
    return totals


def _area_density(f, p: complex, r_lo: float):
    """The density of alpha_p = 2 |G|^2 / (1 + |G|^2) d arg G along the
    boundary segments of ``_boundary`` (t, and per-panel radius and
    direction), with G = (conj(p) H + 1) / (p - H) the rotation of the
    sphere sending p to infinity and H = f(u).  Where |H| > 1 it is computed
    from K = 1/H, G = (conj(p) + K) / (p K - 1), so poles of f need no
    special case: d log G = (1 + |p|^2) K d log H / (num den) in both
    forms."""
    pc, scale = p.conjugate(), 1 + abs(p) ** 2

    def density(t, radius, direction):
        arc = np.exp(1j * t) * radius
        u = np.where(radius > 0, arc, direction * (r_lo + t))
        du = np.where(radius > 0, 1j * arc, direction)
        h, dlog = f.value_and_log_derivative(u, du)
        big = ~(np.abs(h) <= 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.where(big, 1 / h, h)
        num = np.where(big, pc + k, pc * k + 1)
        den = np.where(big, p * k - 1, p - k)
        num2 = num.real ** 2 + num.imag ** 2
        cap = num2 / (num2 + den.real ** 2 + den.imag ** 2)
        with np.errstate(invalid="ignore"):
            out = 2 * cap * (scale * k * dlog / (num * den)).imag
        # a node on an exact zero or pole of f (K = 0 or undefined, d log H
        # infinite) lies in a panel narrowed to rounding, at a corner or a
        # ladder center
        return np.where((k == 0) | ~np.isfinite(k), 0.0, out)

    return density


def _arc_distance(points, radius: float) -> np.ndarray:
    """Distance of chart points to the rim arc |u| = radius, 0 <= arg u <= pi/2."""
    inside = (points.real >= 0) & (points.imag >= 0)
    ends = np.minimum(np.abs(points - radius), np.abs(points - 1j * radius))
    return np.where(inside, np.abs(np.abs(points) - radius), ends)


def _inside(points, lo: float, hi: float) -> int:
    """How many chart points lie in the quarter annulus lo < |u| <= hi,
    0 < arg u < pi/2, the coverings' half-open convention."""
    r = np.abs(points)
    return int(np.count_nonzero((lo < r) & (r <= hi) & (points.real > 0) & (points.imag > 0)))


def _reference_sector(f, rims) -> int:
    """The index of the sector centroid whose preimages under f lie
    farthest from the rims, relative to each rim's radius."""
    preimages = [f.preimages(value) for value in CENTROID_VALUES]
    points = np.concatenate(preimages)
    clearance = np.min([_arc_distance(points, r) / r for r in rims], axis=0)
    sector = np.repeat(np.arange(len(SECTORS)), [len(u) for u in preimages])
    nearest = np.full(len(SECTORS), np.inf)
    np.minimum.at(nearest, sector, clearance)
    return int(np.argmax(nearest))


@functools.lru_cache(maxsize=1024)
def _chart_contour(f, r_lo: float, r_hi: float, sector: int | None):
    """(i, base, segments) of a rational chart region: the index i of the
    reference centroid p (by default ``_reference_sector``'s), base = 4 pi
    times the signed count of preimages of p inside, and per boundary
    segment (sign, radius, integral of alpha_p).  Energy and trapped area
    of a map read the same contour."""
    i = _reference_sector(f, [r for r in (r_lo, r_hi) if r > 0]) if sector is None else sector
    p = CENTROID_VALUES[i]
    preimages = f.preimages(p)
    inside = _inside(preimages, r_lo, r_hi)
    points = f.singular_points()
    points = np.concatenate([points[np.isfinite(points)], preimages])
    segments = _boundary(r_lo, r_hi)
    edges = [_panel_edges(points, radius, direction, span, r_lo)
             for radius, direction, _, span in segments]
    integrals = _contour_integrals(_area_density(f, p, r_lo), segments, edges)
    return (i, 4 * math.pi * (inside if f.conformal else -inside),
            tuple((sign, radius, float(v)) for (radius, _, sign, _), v in zip(segments, integrals)))


def quarter_disc_degrees(f) -> tuple:
    """The signed degrees d_sigma, in SECTORS order, of a rational chart
    map f on the whole quarter disc: the count of its centroid-sigma
    preimages inside (``_inside``), positive when f is conformal."""
    sign = 1 if f.conformal else -1
    return tuple(sign * _inside(f.preimages(p), 0.0, 1.0) for p in CENTROID_VALUES)


def _chart_area(region: Region, polygons=None, sector: int | None = None) -> float:
    """Signed spherical image area A of a rational chart region, its
    coverings counted with their orientation: A = the contour integral of
    alpha_p along the boundary (``_area_density``) plus 4 pi times the signed
    count of preimages of p inside (``_chart_contour``).  alpha_p is a
    primitive of the area form singular only at p, and the boundary images
    never meet p.

    p is the centroid of SECTORS[sector], by default the one whose
    preimages lie farthest from the rims (``_reference_sector``).
    ``polygons`` maps a rim radius to angular edges: that rim's image is the
    geodesic polygon through its vertices' images instead of the exact arc,
    and contributes the fan of solid angles from -p, where alpha_p vanishes
    along every geodesic.
    """
    f, polygons = region.rational, polygons or {}
    i, area, segments = _chart_contour(f, region.r_lo, region.r_hi, sector)
    for sign, radius, integral in segments:
        if radius in polygons:
            u = radius * np.exp(1j * polygons[radius])
            vertices = stereographic_inverse(np.asarray(f(u), dtype=complex))
            integral = _fan(-sector_centroid(SECTORS[i]), vertices)
        area += sign * integral
    return area


def _fan(apex, vertices) -> float:
    """Sum of the signed solid angles of the triangles (apex, P_j, P_j+1)
    along the vertex rows P."""
    a, b, c = apex, vertices[:-1], vertices[1:]
    triple = np.einsum("j,ij->i", a, np.cross(b, c))
    denom = 1.0 + b @ a + np.einsum("ij,ij->i", b, c) + c @ a
    return float(np.sum(2.0 * np.arctan2(triple, denom)))


def _shared_rims(region: Region, grids) -> dict:
    """Rims of a rational chart region that a grid of its chart shares, as
    {radius: that grid's angular edges}: there the grid's triangles end on
    the geodesic polygon through its rim vertices' images."""
    rims = {}
    for r in (region.r_lo, region.r_hi):
        for grid in grids:
            if r > 0 and grid.region.chart is region.chart and r in (
                    grid.region.r_lo, grid.region.r_hi):
                rims[r] = grid.phi_edges
                break
    return rims


# ---------------------------------------------------------------------------
# Triangulated degree counts and areas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorDegree:
    d: int
    D: int
    sample: complex
    confident: bool

    def __post_init__(self):
        if abs(self.d) > self.D or (self.d - self.D) % 2:
            raise AssertionError(f"inconsistent degree pair d={self.d}, D={self.D}")


@dataclass(frozen=True)
class DegreeReport:
    by_sector: dict

    def __getitem__(self, sector):
        return self.by_sector[tuple(sector)]

    def unsigned_total(self):
        return sum(e.D for e in self.by_sector.values())

    def as_dict(self):
        return {
            sector_name(s): {
                "d": e.d,
                "D": e.D,
                "sample": [e.sample.real, e.sample.imag],
                "confident": e.confident,
            }
            for s, e in self.by_sector.items()
        }


def _cross(u, v):
    """u x v of x/y/z planes (leading axis 3), in np.cross's operation order."""
    out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    np.subtract(u[1] * v[2], u[2] * v[1], out=out[0])
    np.subtract(u[2] * v[0], u[0] * v[2], out=out[1])
    np.subtract(u[0] * v[1], u[1] * v[0], out=out[2])
    return out


def _dot(u, v):
    """u . v of x/y/z planes, summed in the order np.einsum sums three terms."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


class _ImageMesh:
    """One grid's image triangles, held as unit-vector planes and shared edges.

    The vertex values become unit vectors P (``vertices``, shape (3, nr+1,
    nphi+1)).  Cell (i, j) has corners a = P[i, j], b = P[i+1, j], c = P[i+1, j+1],
    d = P[i, j+1] and splits into tri1 = (a, b, c) and tri2 = (a, c, d).  Each
    edge normal is computed once: radial a x b, angular a x d, diagonal a x c.
    tri1 reads a x b, b x c, -(a x c) and tri2 a x c, -(d x c), -(a x d); sign
    flips are exact, so every triple product and containment test equals the
    per-triangle one bit for bit.  ``keep`` holds one cell mask per triangle:
    not exactly degenerate (duplicated vertices at chart centers).
    """

    def __init__(self, values):
        p = np.ascontiguousarray(np.moveaxis(stereographic_inverse(values), -1, 0))
        self.vertices = p
        self.corners = a, b, c, d = p[:, :-1, :-1], p[:, 1:, :-1], p[:, 1:, 1:], p[:, :-1, 1:]
        self.radial = _cross(p[:, :-1], p[:, 1:])
        self.angular = _cross(p[:, :, :-1], p[:, :, 1:])
        ca = c - a
        self.keep = [
            np.sqrt((n[0] * n[0] + n[1] * n[1]) + n[2] * n[2]) > 1e-18
            for n in (_cross(b - a, ca), _cross(ca, d - a))
        ]

    def signed_area(self) -> float:
        """Sum of the kept triangles' solid angles: tri1 row-major, then tri2."""
        p, (a, _, c, _) = self.vertices, self.corners
        along_r, along_phi = _dot(p[:, :-1], p[:, 1:]), _dot(p[:, :, :-1], p[:, :, 1:])
        ac = _dot(a, c)
        parts = []
        for triple, denom, keep in (
            (_dot(a, self.angular[:, 1:]), 1.0 + along_r[:, :-1] + along_phi[1:] + ac,
             self.keep[0]),
            (-_dot(a, self.radial[:, :, 1:]), 1.0 + ac + along_r[:, 1:] + along_phi[:-1],
             self.keep[1]),
        ):
            triple, denom = triple[keep], denom[keep]
            signed = 2.0 * np.arctan2(triple, denom)
            signed[(triple == 0) & (denom <= 0)] = 0.0
            parts.append(signed)
        return float(np.sum(np.concatenate(parts)))

    def covering(self):
        """A function p -> (positive, negative, near) counts of kept
        triangles, one row per column of the points p (shape (3, n)).

        The all-positive hemisphere test identifies the triangle region only
        for counterclockwise triples (for clockwise ones it picks up the
        antipodal region), so each test is gated by the triangle's own
        orientation.
        """
        a, _, c, d = self.corners
        radial, angular, diagonal = self.radial, self.angular, _cross(a, c)
        tol = 1e-10
        ccw = (_dot(radial[:, :, :-1], c) > 0, _dot(diagonal, d) > 0)
        gates = [(keep & up, keep & ~up) for keep, up in zip(self.keep, ccw)]

        def count(p):
            p = p[:, :, None, None]  # a leading axis of points on every plane
            along_r, along_phi, across = _dot(radial, p), _dot(angular, p), _dot(diagonal, p)
            counts = np.zeros((p.shape[1], 3), dtype=int)
            for sides, (up, down) in zip(
                ((along_r[..., :-1], along_phi[:, 1:], -across),
                 (across, -along_r[..., 1:], -along_phi[:, :-1])), gates
            ):
                lo = np.minimum(np.minimum(sides[0], sides[1]), sides[2])
                hi = np.maximum(np.maximum(sides[0], sides[1]), sides[2])
                n_pos = np.count_nonzero((lo > tol) & up, axis=(1, 2))
                n_neg = np.count_nonzero((hi < -tol) & down, axis=(1, 2))
                counts[:, 0] += n_pos
                counts[:, 1] += n_neg
                # near: within tol of an edge of a potentially containing triangle
                counts[:, 2] += np.count_nonzero((lo > -tol) & up, axis=(1, 2)) - n_pos
                counts[:, 2] += np.count_nonzero((hi < tol) & down, axis=(1, 2)) - n_neg
            return counts

        return count


def degree_count(sampled_map, level: int = 3) -> DegreeReport:
    """The map's ``region_degrees``, for maps with at most one cut disc (a
    negative-weight region reaching r = 0); ``MeshUnavailableError`` for
    any other."""
    if sum(region.weight < 0 and region.r_lo == 0 for region in sampled_map.regions) > 1:
        # the signed regions count such maps correctly too; only the
        # benchmark self-test still pins this refusal, and lifting it waits
        # for the next benchmark change (ROADMAP item 9)
        raise MeshUnavailableError(
            "degree counts are limited to maps with at most one cut disc"
        )
    return region_degrees(sampled_map, level)


def region_degrees(sampled_map, level: int = 3) -> DegreeReport:
    """Count signed and unsigned coverings of one regular value per sector,
    its centroid: each gridded region by triangulating it and pushing its
    vertices through the map, each closed-form region exactly
    (``_closed_counts``; a cut disc from the preimages of the target).
    The signed counts are the map's degrees d_sigma, so its wrapping
    numbers are w_sigma = -d_sigma (``patchwork.measure_map_wrapping``).

    Each region's positive and negative counts enter with its weight, so a
    cut disc cancels the bulk's coverings inside it.  A low-confidence flag
    is set if the target lies within tolerance of an image-triangle edge,
    or has a cut disc preimage within the sagitta band of a rim a grid
    shares, after three perturbation retries.  Each gridded region is its
    grid's one ``mesh``, shared with the trapped area, and each round's
    targets go through it at once.
    """
    closed, grids = _closed_and_grids(sampled_map.regions, level)
    rims = [_shared_rims(region, grids) if region.rational is not None else {}
            for region in closed]
    counters = [(g.region.weight, g.mesh.covering()) for g in grids]
    bases = [sector_centroid(sector) for sector in SECTORS]
    points, rngs, samples, counts = list(bases), {}, {}, {}
    pending = range(len(SECTORS))
    for attempt in range(4):
        if attempt:
            for i in pending:
                # a stream per sector, made on its first retry: a retry in
                # one sector moves no other's sample
                if i not in rngs:
                    rngs[i] = np.random.default_rng([20240811, i])
                points[i] = _perturb_in_sector(bases[i], SECTORS[i], rngs[i])
        # every pending target through each mesh at once
        batch = np.stack([points[i] for i in pending], axis=1)
        meshed = sum((weight * count(batch) for weight, count in counters),
                     np.zeros((len(pending), 3), dtype=int))
        for i, row in zip(pending, meshed):
            samples[i] = complex(stereographic(points[i]))
            counts[i] = _closed_counts(closed, rims, i, samples[i]) + row
        pending = [i for i in pending if counts[i][2]]  # near an edge: retry
        if not pending:
            break
    report = {}
    for i, sector in enumerate(SECTORS):
        n_pos, n_neg, near = (int(n) for n in counts[i])
        report[sector] = SectorDegree(d=n_pos - n_neg, D=n_pos + n_neg,
                                      sample=samples[i], confident=not near)
    return DegreeReport(report)


def _closed_counts(closed, rims, i: int, value: complex) -> np.ndarray:
    """Weighted (positive, negative, near) coverings of ``value``, a point of
    sector SECTORS[i], by the closed-form regions.  A monomial region
    covers it once, positively when conformal, where the preimage u of its
    chart value lies in the quarter annulus: r_lo < |u| <= r_hi and
    0 < arg u < pi/2.  A rational region covers it once per preimage in its
    quarter annulus, positively when conformal; a preimage within twice the
    sagitta of a rim a grid shares (``rims``, one dict per region) is near,
    since the grid's triangles end on chords there, not on the arc."""
    counts = np.zeros(3, dtype=int)
    charted = {}
    for region, shared in zip(closed, rims):
        if region.rational is not None:
            u = region.rational.preimages(value)
            counts[0 if region.rational.conformal else 1] += (
                region.weight * _inside(u, region.r_lo, region.r_hi))
            for r, phi in shared.items():
                sagitta = r * (1 - math.cos(float(np.max(np.diff(phi))) / 2))
                counts[2] += np.count_nonzero(_arc_distance(u, r) <= 2 * sagitta)
            continue
        if region.chart not in charted:
            charted[region.chart] = value if region.chart is None else region.chart(value)
        g = region.monomial
        u = g.preimage(charted[region.chart])
        if region.r_lo < abs(u) <= region.r_hi and u.real > 0 and u.imag > 0:
            counts[0 if g.conformal else 1] += region.weight
    return counts


def _perturb_in_sector(base, sector, rng):
    p = base + rng.normal(scale=0.02, size=3)
    p /= np.linalg.norm(p)
    if tuple(1 if v > 0 else -1 for v in p) != tuple(sector):
        return base / np.linalg.norm(base)
    return p


def trapped_area(sampled_map, level: int = 3):
    """Signed image area with the trapped-area sign convention.

    A closed-form region contributes its raw area
    (``_closed_area``): minus the signed image area of a monomial or
    rational chart region.
    Each other region contributes the solid angles of its image triangles,
    taken from the shared edge normals of its ``_ImageMesh``.  The sum
    depends only on the regions' boundary images, so the weighted regions
    give an exact decomposition, up to the slivers between a monomial
    region's arcs and its gridded neighbours' chords; a rational region
    takes the rims a grid shares as that grid's polygons, so its slivers
    cancel.  Returns (omega, residual): omega snapped to the nearest
    multiple of pi/2 and the absolute deviation of the raw integral from
    it.
    """
    closed, grids = _closed_and_grids(sampled_map.regions, level)
    raw = -sum(region.weight * _closed_area(region, grids) for region in closed)
    for grid in grids:
        raw -= grid.region.weight * grid.mesh.signed_area()
    units = round(raw / (math.pi / 2))
    omega = units * math.pi / 2
    return omega, abs(raw - omega)


def boundary_residual(sampled_map) -> float:
    """Max violation of the tangent boundary conditions at 1000 points of each
    of the three edges.

    Values beyond the unit circle are tested in the reciprocal chart, which
    measures distance to the same great circle and stays finite at poles.
    """
    t = (np.arange(1000) + 0.5) / 1000
    # the real edge, the arc and the imaginary edge in one call
    values = np.asarray(sampled_map.evaluate(
        np.concatenate([t + 0j, np.exp(1j * (math.pi / 2) * t), 1j * t])), dtype=complex)
    flip = ~np.isfinite(values) | (np.abs(values) > 1.0)
    real, arc, imag = np.split(np.where(flip, _reciprocal(values), values), 3)
    return float(max(np.abs(real.imag).max(), np.abs(np.abs(arc) - 1.0).max(),
                     np.abs(imag.real).max()))


def lemma1_lower_bound(report: DegreeReport) -> float:
    """pi * sum of unsigned degrees; a lower bound for the Dirichlet energy."""
    return math.pi * report.unsigned_total()


# ---------------------------------------------------------------------------
# Brouwer degrees from boundary windings: an independent measurement of the
# degrees that ``region_degrees`` counts, which the tests hold it to
# ---------------------------------------------------------------------------

def _arguments(values: np.ndarray, targets, reference: complex) -> np.ndarray:
    """(targets x samples) arguments of ``values``, for each target in its
    Moebius chart sending the target to 0 and ``reference`` to infinity.
    Along a closed curve their increments (``_steps``) sum to 2 pi times the
    curve's winding around the target relative to the reference; on the
    sphere a winding is only defined in the twice-punctured complement, and
    for a map whose boundary values avoid both points it equals d(target) -
    d(reference), the difference of signed preimage counts.  Each sample's
    arguments depend on that sample alone."""
    z = np.asarray(values, dtype=complex)
    finite = np.isfinite(z)
    zf = np.where(finite, z, 0.0)
    args = np.empty((len(targets), len(z)))
    with np.errstate(divide="ignore", invalid="ignore"):
        to_reference = zf - reference
        for row, target in zip(args, targets):
            row[:] = np.angle(np.where(finite, (zf - target) / to_reference, 1.0 + 0j))
    return args


def _steps(args: np.ndarray) -> np.ndarray:
    """Argument increments along each row of ``_arguments``, in [-pi, pi);
    the last sample is joined to the first.  Arguments lie in [-pi, pi], so
    a raw increment lies in [-2 pi, 2 pi] and one shift by 2 pi brings it
    into range."""
    d = np.diff(args, axis=1, append=args[:, :1])
    d[d >= math.pi] -= 2 * math.pi
    d[d < -math.pi] += 2 * math.pi
    return d


# most boundary points a winding bisection may reach; the benchmark's
# largest loop has about 12k
MAX_BOUNDARY_POINTS = 10**6


def degree_differences_by_winding(evaluator, params, targets, reference, period: float):
    """d(target) - d(reference) for each target, from boundary windings.

    ``evaluator`` maps a parameter array (values taken modulo ``period``)
    describing the closed counterclockwise boundary loop to map values.
    Segments are bisected, at most 16 times, until every argument increment
    is below 0.9 rad for every target AND the windings are stable under one
    further global bisection (a whole aliased loop between two samples shows
    as a small step, so step size alone is not a safe criterion; seed the
    parameters densely near known fast structure).  A bisection evaluates
    only its new midpoints and keeps the arguments of the earlier samples.
    Valid for any continuous map whose boundary values avoid the targets and
    the reference.  Raises ``IntegrationError`` instead of bisecting past
    ``MAX_BOUNDARY_POINTS``.
    """
    params = np.sort(np.unique(np.asarray(params, dtype=float) % period))
    args = _arguments(evaluator(params), targets, reference)

    def measure(args):
        """(windings, largest argument step) of the loop sampled with args."""
        steps = _steps(args)
        return np.sum(steps, axis=1) / (2 * math.pi), float(np.max(np.abs(steps)))

    def bisect(p, args):
        """The bisected parameters and their arguments."""
        if 2 * len(p) > MAX_BOUNDARY_POINTS:
            raise IntegrationError(
                f"boundary windings unresolved at {len(p)} points; a bisection "
                f"would exceed {MAX_BOUNDARY_POINTS}"
            )
        closing = p[0] + period
        mids = 0.5 * (p + np.concatenate([p[1:], [closing]]))
        points, first = np.unique(np.concatenate([p, mids % period]), return_index=True)
        fresh = first >= len(p)
        merged = np.empty((len(targets), len(points)))
        merged[:, ~fresh] = args[:, first[~fresh]]
        merged[:, fresh] = _arguments(evaluator(points[fresh]), targets, reference)
        return points, merged

    current, worst = measure(args)
    for _ in range(16):
        params, args = bisect(params, args)
        refined, refined_worst = measure(args)
        stable = worst < 0.9 and bool(np.all(np.abs(current - refined) < 0.05))
        current, worst = refined, refined_worst
        if stable:
            break
    else:
        raise IntegrationError("boundary windings failed to stabilize")
    diffs = []
    for wnd in current.tolist():
        nearest = round(wnd)
        if abs(wnd - nearest) > 0.2:
            raise IntegrationError(f"non-integral winding {wnd}")
        diffs.append(int(nearest))
    return diffs
