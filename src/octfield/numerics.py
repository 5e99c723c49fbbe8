"""Dirichlet-energy quadrature, degree counting, and trapped-area integration.

Maps are consumed through a light protocol: an object with

- ``regions``: polar regions, each one formula on one annulus of a chart and
  each with a weight of +1 or -1, whose weighted sum is the domain: the
  bulk, minus each cut disc, plus the pieces that replace it.  The charts
  are conformal, so each region's flat polar integrand is the pulled back
  energy integrand;
- ``evaluate(w)``: vectorized evaluation on complex points of the quarter
  disc, read by ``boundary_residual``.

All three integrals read the same regions.  A region whose ``wrapping`` is
set is a rational conformal or anticonformal map on the whole quarter disc
with those one-signed wrapping numbers w_sigma, and it enters in closed form
with no grid: energy pi sum |w_sigma|, raw trapped area (pi/2) sum w_sigma,
and -w_sigma coverings of each sector sigma.  Every other region is
integrated on its grid.  Degree counts and the trapped area triangulate
each grid: the map is evaluated once at the grid vertices, and the image
triangles share one cross product per grid edge (``_ImageMesh``), so both
read the same edge normals.  A cut disc and its replacement share their rim
grids, so preimages near the rims cancel and the weighted counts are exact.

The energy density in complex coordinates is
8 (|dK/dw|^2 + |dK/dwbar|^2) / (1 + |K|^2)^2 with Wirtinger derivatives
estimated by central differences; the coefficient 8 reproduces the exact
values E(identity) = pi and the quarter-sphere layer closed form.  Cells whose
center value exceeds the unit circle are evaluated in the reciprocal chart,
under which the density is invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .geometry import sector_centroid, stereographic, stereographic_inverse
from .topology import SECTORS, sector_name

__all__ = [
    "Region",
    "QuadratureGrid",
    "SectorDegree",
    "DegreeReport",
    "IntegrationError",
    "MeshUnavailableError",
    "MAX_BOUNDARY_POINTS",
    "dirichlet_energy",
    "degree_count",
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

    The signed regions count such maps correctly; only the benchmark's
    self-test (``perfbench/selftest.py``) still holds this refusal, and it
    goes with the next benchmark change (ROADMAP item 9)."""


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

    ``wrapping``, when set, declares the region a rational conformal or
    anticonformal map whose eight one-signed wrapping numbers (in SECTORS
    order) are known: the integrals take its closed form and build no grid
    for it.  Only the whole identity-chart quarter disc can carry it.
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
    wrapping: tuple | None = None

    def __post_init__(self):
        w = self.wrapping
        if w is None:
            return
        if len(w) != len(SECTORS) or not all(isinstance(v, Integral) for v in w):
            raise ValueError(f"region {self.name}: wrapping must be {len(SECTORS)} integers")
        if not (all(v <= 0 for v in w) or all(v >= 0 for v in w)):
            raise ValueError(f"region {self.name}: wrapping numbers must be one-signed")
        if (self.chart, self.r_lo, self.r_hi, self.phi_lo, self.phi_hi) != (
            None, 0.0, 1.0, 0.0, math.pi / 2
        ):
            raise ValueError(
                f"region {self.name}: a closed-form region is the whole quarter disc"
            )


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
    gives the tensor quadratic rule."""

    region: Region
    r_edges: np.ndarray
    phi_edges: np.ndarray
    r_mid: np.ndarray = field(init=False)
    phi_mid: np.ndarray = field(init=False)

    def __post_init__(self):
        self.r_mid = 0.5 * (self.r_edges[:-1] + self.r_edges[1:])
        self.phi_mid = 0.5 * (self.phi_edges[:-1] + self.phi_edges[1:])

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
    """Energy density from five-point stencils, reciprocal chart where |K| > 1."""
    stacked = [center, right, left, up, down]
    flip = ~np.isfinite(center) | (np.abs(center) > 1.0)
    vals = [np.where(flip, _reciprocal(v), v) for v in stacked]
    c, r, l, u, d = vals
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
    center = np.asarray(f(w), dtype=complex)
    right = np.asarray(f(w + h), dtype=complex)
    left = np.asarray(f(w - h), dtype=complex)
    up = np.asarray(f(w + 1j * h), dtype=complex)
    down = np.asarray(f(w - 1j * h), dtype=complex)
    dens = _density(center, right, left, up, down, h)
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


def _closed_and_grids(regions, level: int):
    """(the closed-form regions, the grids of all the others)."""
    closed = [region for region in regions if region.wrapping is not None]
    return closed, build_grids([region for region in regions if region.wrapping is None], level)


def dirichlet_energy(sampled_map, level: int = 3) -> float:
    """Dirichlet energy over the map's weighted regions: pi sum |w_sigma| for
    a closed-form region, and the tensor quadratic rule on each other
    region's cells (see ``_quadratic_weights``)."""
    closed, grids = _closed_and_grids(sampled_map.regions, level)
    total = math.pi * sum(region.weight * sum(map(abs, region.wrapping)) for region in closed)
    for grid in grids:
        total += grid.region.weight * _region_energy(grid)
    return total


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
        """A function p -> (positive, negative, near) counts of kept triangles.

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
            along_r, along_phi, across = _dot(radial, p), _dot(angular, p), _dot(diagonal, p)
            pos = neg = near = 0
            for sides, (up, down) in zip(
                ((along_r[:, :-1], along_phi[1:], -across),
                 (across, -along_r[:, 1:], -along_phi[:-1])), gates
            ):
                lo = np.minimum(np.minimum(sides[0], sides[1]), sides[2])
                hi = np.maximum(np.maximum(sides[0], sides[1]), sides[2])
                n_pos = np.count_nonzero((lo > tol) & up)
                n_neg = np.count_nonzero((hi < -tol) & down)
                pos, neg = pos + n_pos, neg + n_neg
                # near: within tol of an edge of a potentially containing triangle
                near += np.count_nonzero((lo > -tol) & up) - n_pos
                near += np.count_nonzero((hi < tol) & down) - n_neg
            return int(pos), int(neg), int(near)

        return count


def _grid_mesh(grid: QuadratureGrid) -> _ImageMesh:
    """The image mesh of one grid, its region evaluated once at the vertices."""
    w = grid.r_edges[:, None] * np.exp(1j * grid.phi_edges)
    return _ImageMesh(np.asarray(grid.region.evaluate(w), dtype=complex))


def degree_count(sampled_map, level: int = 3) -> DegreeReport:
    """Triangulate each region, push vertices through the map, and count signed
    and unsigned coverings of one regular value per sector, its centroid.

    Each region's positive, negative and near counts enter with its weight,
    so a cut disc cancels the bulk's coverings inside it.  A low-confidence
    flag is set if the target lies within tolerance of an image-triangle
    edge after three perturbation retries.  Each gridded region is one
    ``_ImageMesh``, whose edge normals every target shares; a closed-form
    region covers sector sigma -w_sigma times, positively where that is
    positive.
    """
    regions = sampled_map.regions
    if sum(region.weight < 0 and region.r_lo == 0 for region in regions) > 1:
        # the signed regions count such maps correctly too; only the
        # benchmark self-test still pins this refusal, and lifting it waits
        # for the next benchmark change (ROADMAP item 9)
        raise MeshUnavailableError(
            "degree counts are limited to maps with at most one cut disc"
        )
    closed, grids = _closed_and_grids(regions, level)
    weights = np.array([g.region.weight for g in grids], dtype=int)
    counters = [_grid_mesh(g).covering() for g in grids]
    report = {}
    for i, sector in enumerate(SECTORS):
        # a stream per sector: a retry in one sector moves no other's sample
        rng = np.random.default_rng([20240811, i])
        base = sector_centroid(sector)
        exact = sum(region.weight * np.array([max(-region.wrapping[i], 0),
                                              max(region.wrapping[i], 0), 0])
                    for region in closed)
        confident = False
        for attempt in range(4):
            p = base if attempt == 0 else _perturb_in_sector(base, sector, rng)
            meshed = weights @ np.reshape([count(p) for count in counters], (-1, 3))
            n_pos, n_neg, near = (int(n) for n in exact + meshed)
            if not near:
                confident = True
                break
        report[sector] = SectorDegree(d=n_pos - n_neg, D=n_pos + n_neg,
                                      sample=complex(stereographic(p)), confident=confident)
    return DegreeReport(report)


def _perturb_in_sector(base, sector, rng):
    p = base + rng.normal(scale=0.02, size=3)
    p /= np.linalg.norm(p)
    if tuple(1 if v > 0 else -1 for v in p) != tuple(sector):
        return base / np.linalg.norm(base)
    return p


def trapped_area(sampled_map, level: int = 3):
    """Signed image area with the trapped-area sign convention.

    A closed-form region contributes (pi/2) sum w_sigma.  Each other region
    contributes the solid angles of its image triangles, taken from the
    shared edge normals of its ``_ImageMesh``.  The sum depends only on the
    region's boundary image, so the weighted regions give an exact
    decomposition.  Returns (omega, residual): omega snapped to the nearest
    multiple of pi/2 and the absolute deviation of the raw integral from it.
    """
    closed, grids = _closed_and_grids(sampled_map.regions, level)
    raw = math.pi / 2 * sum(region.weight * sum(region.wrapping) for region in closed)
    for grid in grids:
        raw -= grid.region.weight * _grid_mesh(grid).signed_area()
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
    f = sampled_map.evaluate

    def datum(values, kind):
        values = np.asarray(values, dtype=complex)
        flip = ~np.isfinite(values) | (np.abs(values) > 1.0)
        z = np.where(flip, _reciprocal(values), values)
        if kind == "real":
            return np.abs(z.imag)
        if kind == "imag":
            return np.abs(z.real)
        return np.abs(np.abs(z) - 1.0)

    res_real = datum(f(t + 0j), "real")
    res_arc = datum(f(np.exp(1j * (math.pi / 2) * t)), "arc")
    res_imag = datum(f(1j * t), "imag")
    return float(max(res_real.max(), res_arc.max(), res_imag.max()))


def lemma1_lower_bound(report: DegreeReport) -> float:
    """pi * sum of unsigned degrees; a lower bound for the Dirichlet energy."""
    return math.pi * report.unsigned_total()


# ---------------------------------------------------------------------------
# Brouwer degrees from boundary windings
# ---------------------------------------------------------------------------

def _arg_steps(values: np.ndarray, targets, reference: complex) -> np.ndarray:
    """(targets x samples) argument increments along the closed curve of
    ``values``, for each target in its Moebius chart sending the target to 0
    and ``reference`` to infinity.  A row sums to 2 pi times the curve's
    winding around the target relative to the reference; on the sphere a
    winding is only defined in the twice-punctured complement, and for a map
    whose boundary values avoid both points it equals d(target) -
    d(reference), the difference of signed preimage counts.  The last sample
    is joined to the first."""
    z = np.asarray(values, dtype=complex)
    finite = np.isfinite(z)
    zf = np.where(finite, z, 0.0)
    args = np.empty((len(targets), len(z)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, target in zip(args, targets):
            row[:] = np.angle(np.where(finite, (zf - target) / (zf - reference), 1.0 + 0j))
    d = np.diff(args, axis=1, append=args[:, :1])
    return (d + math.pi) % (2 * math.pi) - math.pi


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
    parameters densely near known fast structure).  Valid for any continuous
    map whose boundary values avoid the targets and the reference.  Raises
    ``IntegrationError`` instead of bisecting past ``MAX_BOUNDARY_POINTS``.
    """
    params = np.sort(np.unique(np.asarray(params, dtype=float) % period))

    def measure(p):
        """(windings, largest argument step) of the loop sampled at p."""
        steps = _arg_steps(evaluator(p), targets, reference)
        return np.sum(steps, axis=1) / (2 * math.pi), float(np.max(np.abs(steps)))

    def bisect(p):
        if 2 * len(p) > MAX_BOUNDARY_POINTS:
            raise IntegrationError(
                f"boundary windings unresolved at {len(p)} points; a bisection "
                f"would exceed {MAX_BOUNDARY_POINTS}"
            )
        closing = p[0] + period
        mids = 0.5 * (p + np.concatenate([p[1:], [closing]]))
        return np.sort(np.unique(np.concatenate([p, mids % period])))

    current, worst = measure(params)
    for _ in range(16):
        params = bisect(params)
        refined, refined_worst = measure(params)
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
