"""Reference quadrature: a map's closed-form regions put back on grids.

``octfield`` integrates a map's bulk, cut discs and stack layers in closed
form and builds no grid for them, so the map carries no grid hints for them.
The tests hold those closed forms to the quadrature of the same regions,
and this module strips a region's closed form, its formula as ``evaluate``
(``numerics._is_closed``), by evaluating it through a plain function, and
supplies the hints that its grid needs:

- the bulk (the positive rational region) gets geometric ladders around
  its map's zeros and poles in the quarter disc (``clusters``);
- a layer reaching r = 0 is split a decade below its unit-modulus circle
  |u| = root |seam| where that lies below the start of its log grid
  (``numerics._LOG_FLOOR`` times its outer radius), so that the grid of its
  outer piece reaches the layer's finest structure;
- a cut disc (a negative rational region) is split at epsilon, half its
  radius, where the collar starts.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from octfield.geometry import ChartMonomial
from octfield.numerics import _LOG_FLOOR, _is_closed
from octfield.rational import RationalMapSpec, _probe_directions, evaluate_rational


def singular_points(spec: RationalMapSpec):
    """(points, is_zero, directions): the zeros and poles of the map in the
    closed quarter disc, whether each is a zero, and the unit direction in
    which each is probed (``rational._probe_directions``)."""
    factors = spec.real_factors + spec.imag_factors + spec.complex_factors
    points = np.asarray(
        [0j]
        + [complex(r, 0.0) for r, _ in spec.real_factors]
        + [complex(0.0, s) for s, _ in spec.imag_factors]
        + [complex(t) for t, _ in spec.complex_factors]
    )
    is_zero = np.asarray([2 * spec.m + 1 > 0] + [ex > 0 for _, ex in factors])
    directions = _probe_directions(
        len(spec.real_factors), len(spec.imag_factors), len(spec.complex_factors)
    )
    return points, is_zero, directions


@functools.lru_cache(maxsize=256)
def clusters(spec: RationalMapSpec) -> tuple:
    """The zeros and poles of the map in the closed quarter disc, each with
    the length scale on which |f| passes through unit modulus there, as
    (point, scale) pairs, and the arc with the scale of its power factor
    when that factor turns fast.

    Near an edge zero or pole the energy density is a bump of this scale; it
    can lie many orders of magnitude below any uniform grid (residues shrink
    with the product of the other factors), so a gridded bulk clusters grid
    lines around these points and the windings' loop is seeded into them.
    """
    points, _, directions = singular_points(spec)
    out = []
    deltas = np.geomspace(1e-13, 0.2, 60)
    for w0, direction in zip(points.tolist(), directions):
        vals = np.abs(evaluate_rational(spec, w0 + deltas * direction))
        inside = (vals > 0.2) & (vals < 5.0)
        if inside.any():
            scale = float(deltas[int(np.argmax(inside))])
        else:
            jump = (vals[:-1] < 0.2) & (vals[1:] > 5.0) | (vals[:-1] > 5.0) & (vals[1:] < 0.2)
            scale = float(deltas[int(np.argmax(jump))]) if jump.any() else 0.1
        out.append((w0, max(scale, 1e-13)))
    q = abs(2 * spec.m + 1) + 2 * len(spec.real_factors) + 2 * len(spec.imag_factors)
    if q >= 6:
        out.append((1.0 + 0.0j, 1.0 / q))
    return tuple(out)


def _form(region):
    """Which closed form ``region`` is: "bulk", "monomial", "cut" or None."""
    if not _is_closed(region):
        return None
    if isinstance(region.evaluate, ChartMonomial):
        return "monomial"
    return "bulk" if region.weight > 0 else "cut"


def _stripped(region, **changes):
    """``region`` evaluated through a plain function, which the integrals
    grid, with ``changes`` applied."""
    f = region.evaluate
    return dataclasses.replace(region, evaluate=lambda u: f(u), **changes)


def gridded_regions(region) -> list:
    """``region`` without its closed form, as the regions to grid."""
    form, f = _form(region), region.evaluate
    if form == "bulk":
        # a radial cluster at every point, and an angular one off the chart
        # center with its scale converted to angle at a radius of at least 0.1
        points = clusters(f.spec)
        r_clusters = tuple((abs(p), scale) for p, scale in points)
        phi_clusters = tuple((float(np.angle(p)), scale / max(abs(p), 0.1))
                             for p, scale in points if abs(p) > 1e-9)
        return [_stripped(region, r_clusters=r_clusters, phi_clusters=phi_clusters)]
    if form == "monomial":
        stripped, split = _stripped(region), f.root * abs(f.seam) / 10
        if region.r_lo > 0 or split >= region.r_hi * _LOG_FLOOR:
            return [stripped]
    elif form == "cut":
        stripped, split = _stripped(region), region.r_hi / 2
    else:
        return [region]
    return [dataclasses.replace(stripped, r_hi=split), dataclasses.replace(stripped, r_lo=split)]


def gridded(sampled_map, *forms):
    """The map with the named closed forms of its regions stripped (all of
    them by default) and those regions gridded (``gridded_regions``):
    ``"bulk"`` the bulk's rational map, ``"monomial"`` the layers' and
    ``"cut"`` the cut discs' rational maps."""
    forms = forms or ("bulk", "monomial", "cut")
    regions = []
    for region in sampled_map.regions:
        regions += gridded_regions(region) if _form(region) in forms else [region]
    return dataclasses.replace(sampled_map, regions=regions)
