"""Stereographic projection, sector geometry, and the vertex Moebius maps.

The unit sphere is identified with the extended complex plane by
P(s) = (s_x + i s_y)/(1 + s_z), sending the vertices x, y, z of the octant
to 1, i, 0 and the south pole to infinity.  The projected octant is the
closed quarter disc Q = {rho e^{i phi} : rho <= 1, 0 <= phi <= pi/2}.

Infinity is represented as complex inf; helpers below keep Moebius
arithmetic finite-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartMonomial",
    "stereographic",
    "stereographic_inverse",
    "sector_centroid",
    "relocate",
    "relocate_inverse",
    "relocation_coefficients",
    "chordal_distance",
]

AXES = ("x", "y", "z")


def stereographic(s):
    """Project unit vectors (..., 3) to the extended complex plane.  Only the
    vectors whose quotient has no finite value, 1 + z = 0, are the south pole
    and go to infinity; a vector beside it projects to its large finite value."""
    s = np.asarray(s, dtype=float)
    sx, sy, sz = s[..., 0], s[..., 1], s[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (sx + 1j * sy) / (1 + sz)
    south = 1 + sz == 0
    if np.ndim(z) == 0:
        return complex(np.inf) if south else complex(z)
    z = np.where(south, np.inf + 0j, z)
    return z


def stereographic_inverse(z):
    """Map extended complex values back to unit vectors (..., 3)."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    finite = np.isfinite(z)
    xs = np.where(finite, x, 0.0)
    ys = np.where(finite, y, 0.0)
    r2 = xs * xs + ys * ys
    denom = 1.0 + r2
    out = np.empty(z.shape + (3,), dtype=float)
    out[..., 0] = 2 * xs / denom
    out[..., 1] = 2 * ys / denom
    out[..., 2] = (1 - r2) / denom
    if not finite.all():
        out[~finite] = (0.0, 0.0, -1.0)
    return out


def sector_centroid(sector):
    """Unit vector at the center of the open octant labeled by the signs."""
    v = np.array(sector, dtype=float)
    return v / np.sqrt(3.0)


def _gamma_core(w):
    """The order-3 Moebius rotation gamma(w) = (i - w)/(i + w): 1 -> i -> 0 -> 1.

    It is the stereographic picture of the rotation by 120 degrees about the
    octant's symmetry axis, so it maps Q onto Q and permutes its edges.
    Only non-finite quotients are patched (infinity to -1, the pole -i to
    infinity), so each element's value is its own.  Callers silence the
    division's warnings (``_rotate``).
    """
    w = np.asarray(w, dtype=complex)
    out = (1j - w) / (1j + w)
    finite = np.isfinite(out)
    if not finite.all():
        bad = ~finite
        infinite = np.isinf(w.real) | np.isinf(w.imag)
        out = np.where(bad & infinite, -1.0 + 0j, out)
        pole = bad & np.isfinite(w) & np.isclose(w, -1j)
        out = np.where(pole, np.inf + 0j, out)
    return out


def _rotate(power: int, w):
    """gamma applied ``power`` times; a scalar stays a scalar.  A point
    within rounding of a pole goes to infinity, unwarned."""
    out = np.asarray(w, dtype=complex)
    if power:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(power):
                out = _gamma_core(out)
    return complex(out) if np.ndim(np.asarray(w)) == 0 else out


_POWERS = {"x": 1, "y": 2, "z": 0}


def relocate(axis: str, w):
    """gamma_j: the rotation taking the z-vertex chart to the j-vertex chart
    (gamma_x = gamma, gamma_y = gamma^2, gamma_z = identity)."""
    return _rotate(_POWERS[axis], w)


@functools.cache
def relocation_coefficients(axis: str) -> tuple:
    """(a, b, c, d) with relocate(axis, u) = (a u + b) / (c u + d)."""
    m = np.eye(2, dtype=complex)
    for _ in range(_POWERS[axis]):
        m = np.array([[-1, 1j], [1, 1j]]) @ m  # gamma(w) = (i - w) / (i + w)
    return tuple(m.ravel().tolist())


def relocate_inverse(axis: str, w):
    return _rotate((3 - _POWERS[axis]) % 3, w)


@functools.lru_cache(maxsize=64)
def _chart_value(axis: str, value: complex) -> complex:
    """``relocate_inverse`` of one value: degree counts ask every vertex
    chart of every map for the same sector centroids."""
    return relocate_inverse(axis, value)


@dataclass(frozen=True)
class ChartMonomial:
    """The map g(u) = c v^power of a chart point u, with v = u, or conj(u)
    when ``conjugate``, and power +1 or -1: conformal exactly when not
    conjugated, and one-to-one.  Its values are relocated to the vertex
    ``axis`` (``relocate``, a rotation of the sphere, so energy, area and
    coverings are g's own); a stack builds its layers in the z-chart, where
    the relocation is the identity.

    c = seam^-power / root with ``seam`` real and nonzero, so g has modulus
    1/root on the circle |u| = |seam| and c has the sign of ``seam``.  g is
    evaluated as v / (root seam) or seam / (root v).
    """

    seam: float
    root: float
    power: int
    conjugate: bool
    axis: str = "z"

    def __post_init__(self):
        if self.power not in (1, -1):
            raise ValueError("a chart monomial has power +1 or -1")
        if not (self.seam != 0 and math.isfinite(self.seam) and 0 < self.root < math.inf):
            raise ValueError("a chart monomial needs a finite nonzero seam and root")
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")

    @property
    def conformal(self) -> bool:
        return not self.conjugate

    def __call__(self, u):
        u = np.asarray(u, dtype=complex)
        v = np.conj(u) if self.conjugate else u
        if self.power > 0:
            g = v / (self.root * self.seam)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                g = self.seam / (self.root * v)
        return relocate(self.axis, g)

    def modulus(self, r: float) -> float:
        """|g| on the circle |u| = r."""
        if self.power > 0:
            return r / (self.root * abs(self.seam))
        return abs(self.seam) / (self.root * r) if r else math.inf

    def preimages(self, value: complex) -> np.ndarray:
        """The chart points u with relocated value g(u) = ``value``: one,
        for values whose chart value is finite and nonzero."""
        value = _chart_value(self.axis, value)
        if self.power > 0:
            v = value * (self.root * self.seam)
        else:
            v = self.seam / (self.root * value)
        return np.array([v.conjugate() if self.conjugate else v])


def chordal_distance(a, b):
    """Distance on the Riemann sphere (max 2), finite for infinite inputs."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    fa, fb = np.isfinite(a), np.isfinite(b)
    az = np.where(fa, a, 0.0)
    bz = np.where(fb, b, 0.0)
    num = 2 * np.abs(az - bz)
    den = np.sqrt(1 + np.abs(az) ** 2) * np.sqrt(1 + np.abs(bz) ** 2)
    out = num / den
    # one argument infinite: 2 / sqrt(1+|other|^2); both infinite: 0
    only_a = ~fa & fb
    only_b = fa & ~fb
    out = np.where(only_a, 2 / np.sqrt(1 + np.abs(bz) ** 2), out)
    out = np.where(only_b, 2 / np.sqrt(1 + np.abs(az) ** 2), out)
    out = np.where(~fa & ~fb, 0.0, out)
    return float(out) if np.ndim(out) == 0 else out
