"""Quarter-sphere stacks: nested annulus maps inserted near octant vertices.

A stack is described by the list of chart quadrants its layers cover:
``covers[m-1] = (a, b)`` is the quadrant of layer m, and the layer maps its
annulus over both target sectors (a, b, +1) and (a, b, -1).  The quadrants
are the two diagonal ones (1, 1), (-1, -1) and the antidiagonal (1, -1).

A stack with L layers lives on the chart disc |u| <= epsilon of its vertex.
Layer m occupies the annulus 2 rho_{m-1} <= |u| <= rho_m with radii
rho_m = epsilon * delta^(L-m) (rho_0 = 0).  Odd layers have large moduli at
their outer seam (a u on a diagonal quadrant, conj(u) on (1, -1)), even
layers small ones (a / conj(u) on a diagonal quadrant, 1/u on (1, -1)), so
a layer is conformal exactly when it covers a diagonal quadrant at odd m or
(1, -1) at even m; conformal layers count -1 in their sectors'
wrapping numbers, anticonformal ones +1.  The standard stack (``alternating``)
covers (-1, -1) at odd and (1, 1) at even layers, or the opposite diagonal
pair when flipped.  Between consecutive layers the interpolation annuli
rho_n <= |u| <= 2 rho_n blend the neighbors, reciprocally after odd layers
(where moduli are large) and linearly after even ones (moduli small): the
blend follows the parity, not the orientation.  ``pieces`` lists these
formulas with their annuli, one per annulus from the center out; each becomes
one region of the assembled map (see ``patchwork``).

Two scales enter: the chart radius epsilon, where the top layer meets the
collar, and the layer ratio delta, which sets every layer's moduli through
the scale sqrt(delta) (a conformal layer runs from modulus 2 sqrt(delta) to
1/sqrt(delta)).  Each layer misses O(delta) of its quarter-sphere pair and
each interpolation annulus costs O(delta), so delta << epsilon makes them
nearly free.  By default delta = epsilon, which gives rho_m = epsilon^(L+1-m)
and the layer closed form 2 pi (1 - 4 delta^2) / ((1 + delta)(1 + 4 delta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import ChartMonomial
from .topology import SECTORS

__all__ = ["QuarterSphereStack", "alternating", "stack_degree_table", "PERMUTATIONS"]

# sector permutations induced by the vertex rotations: gamma_j maps the
# pre-relocation sector tau onto p_j(tau)
PERMUTATIONS = {
    "x": lambda s: (s[2], s[0], s[1]),
    "y": lambda s: (s[1], s[2], s[0]),
    "z": lambda s: (s[0], s[1], s[2]),
}
_INVERSE_AXIS = {"x": "y", "y": "x", "z": "z"}
_QUADRANTS = ((1, 1), (-1, -1), (1, -1))  # chart quadrants a layer can cover


def alternating(layers: int, flip: int = 1) -> tuple:
    """Covers of the standard stack: (-flip, -flip) at odd layers, conformally,
    and (flip, flip) at even layers, anticonformally."""
    return tuple((-flip, -flip) if m % 2 else (flip, flip) for m in range(1, layers + 1))


@dataclass(frozen=True)
class QuarterSphereStack:
    covers: tuple  # covers[m-1]: the chart quadrant (a, b) of layer m
    epsilon: float
    delta: float | None = None  # layer ratio; None means delta = epsilon

    def __post_init__(self):
        if self.delta is None:
            object.__setattr__(self, "delta", self.epsilon)
        if not self.covers:
            raise ValueError("a stack needs at least one layer")
        if any(c not in _QUADRANTS for c in self.covers):
            raise ValueError(f"each cover must be one of the quadrants {_QUADRANTS}")
        if not 0 < self.epsilon < 0.125:
            raise ValueError("epsilon must lie in (0, 1/8)")
        if not 0 < self.delta < 0.125:
            raise ValueError("delta must lie in (0, 1/8)")

    @property
    def layers(self) -> int:
        return len(self.covers)

    def radius(self, m: int) -> float:
        """rho_m = epsilon * delta^(L-m); rho_0 = 0.

        The top layer ends at the chart radius epsilon and consecutive layers
        shrink by the layer ratio delta; with the default delta = epsilon
        this is rho_m = epsilon^(L+1-m).
        """
        if m == 0:
            return 0.0
        return self.epsilon * self.delta ** (self.layers - m)

    def inner_scale(self) -> float:
        """sqrt(delta) * rho_1: the unit-modulus radius of the innermost
        layer, the finest scale of the stack."""
        return math.sqrt(self.delta) * self.radius(1)

    @property
    def top_is_conformal(self) -> bool:
        """Odd top layers have large moduli at the collar seam, so the bulk
        there must be near a pole (edge sign -1); even tops pair with a bulk
        zero (edge sign +1).  In every stack the construction builds, the top
        layer covers a diagonal quadrant, where odd means conformal."""
        return self.layers % 2 == 1

    def pieces(self) -> list:
        """The stack's formulas on the chart disc |u| <= epsilon, one per
        annulus, from the center out: (kind, index, r_lo, r_hi, formula) for
        layer m ("annulus", 2 rho_{m-1} <= |u| <= rho_m, its formula the
        ``ChartMonomial`` of ``layer_monomial``) and for the interpolant n
        between layers n and n+1 ("interp", rho_n <= |u| <= 2 rho_n).  The
        annuli tile [0, epsilon]."""
        out = []
        for m in range(1, self.layers + 1):
            if m > 1:
                n = m - 1
                out.append(("interp", n, self.radius(n), 2 * self.radius(n),
                            partial(self.interpolant_value, n)))
            out.append(("annulus", m, 2 * self.radius(m - 1), self.radius(m),
                        self.layer_monomial(m)))
        return out

    def seams(self) -> tuple:
        """All annulus boundaries inside (0, epsilon]: 2 rho_{m-1} and rho_m."""
        return tuple(piece[3] for piece in self.pieces())

    # -- layer and interpolant formulas ------------------------------------

    def layer_monomial(self, m: int) -> ChartMonomial:
        """The chart monomial of layer m, the one source of its formula:
        a u / (sqrt(delta) rho_m) on a diagonal quadrant (a, a) and
        conj(u) / (sqrt(delta) rho_m) on (1, -1) at odd m;
        a rho_{m-1} / (sqrt(delta) conj(u)) and rho_{m-1} / (sqrt(delta) u)
        at even m."""
        if not 1 <= m <= self.layers:
            raise ValueError(f"layer {m} outside stack of {self.layers}")
        a, b = self.covers[m - 1]
        odd = m % 2 == 1
        seam = (a if a == b else 1) * self.radius(m if odd else m - 1)
        return ChartMonomial(seam, math.sqrt(self.delta), 1 if odd else -1,
                             conjugate=(a == b) != odd)

    def layer_value(self, m: int, u):
        """Map of layer m evaluated at chart points (valid on 2rho_{m-1} <= |u| <= rho_m)."""
        return self.layer_monomial(m)(u)

    def interpolant_value(self, n: int, u):
        """Blend between layers n and n+1 on rho_n <= |u| <= 2 rho_n."""
        if not 1 <= n <= self.layers - 1:
            raise ValueError(f"interpolant {n} outside stack of {self.layers}")
        u = np.asarray(u, dtype=complex)
        s = (np.abs(u) - self.radius(n)) / self.radius(n)
        a = self.layer_value(n, u)
        b = self.layer_value(n + 1, u)
        # reciprocal blending after odd layers, whose moduli are large at
        # the seam, linear after even ones
        return blend(a, b, s, odd=n % 2 == 1)


def blend(a, b, s, odd: bool):
    """Switching-function blend: reciprocal for odd seams (large moduli),
    linear for even seams (small moduli)."""
    if odd:
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = (1 - s) / a + s / b
            out = 1.0 / inv
        out = np.where(inv == 0, np.inf + 0j, out)
        # endpoints where one side dominates entirely
        out = np.where(s == 0, a, out)
        out = np.where(s == 1, b, out)
        return out
    return (1 - s) * a + s * b


def _pre_relocation_table(stack: QuarterSphereStack) -> dict:
    """Covering contribution of each layer in the vertex chart, in wrapping
    convention: layer m covers both sectors of its quadrant, -1 each when it
    is conformal (a diagonal quadrant at odd m, (1, -1) at even m), else +1."""
    table: dict = {}
    for m, (a, b) in enumerate(stack.covers, start=1):
        conformal = (a == b) == (m % 2 == 1)
        for sz in (1, -1):
            table[(a, b, sz)] = table.get((a, b, sz), 0) + (-1 if conformal else 1)
    return table


def stack_degree_table(stack: QuarterSphereStack, axis: str) -> dict:
    """Wrapping-number contribution of the relocated stack in every sector.

    The relocation gamma_j maps the chart sector tau onto p_j(tau), so the
    contribution at sector sigma is the chart table at p_j^{-1}(sigma).
    """
    if axis not in PERMUTATIONS:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    pre = _pre_relocation_table(stack)
    inv = PERMUTATIONS[_INVERSE_AXIS[axis]]
    return {sector: pre.get(inv(sector), 0) for sector in SECTORS}
