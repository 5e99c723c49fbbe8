"""Reference quadrature: a map's closed-form regions put back on grids.

``octfield`` integrates a map's bulk, cut discs and stack layers in closed
form and builds no grid for them, so the map carries no grid hints for them.
The tests hold those closed forms to the quadrature of the same regions,
and this module strips a region's closed form, its formula as ``evaluate``
(``numerics._is_closed``), by evaluating it through a plain function, and
supplies the hints that its grid needs:

- the bulk (the positive rational region) gets geometric ladders around
  its map's edge zeros and poles (``rational.quadrature_clusters``);
- a layer reaching r = 0 is split a decade below its unit-modulus circle
  |u| = root |seam| where that lies below the start of its log grid
  (``numerics._LOG_FLOOR`` times its outer radius), so that the grid of its
  outer piece reaches the layer's finest structure;
- a cut disc (a negative rational region) is split at epsilon, half its
  radius, where the collar starts.
"""

from __future__ import annotations

import dataclasses

from octfield.geometry import ChartMonomial
from octfield.numerics import _LOG_FLOOR, _is_closed
from octfield.rational import quadrature_clusters


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
        r_clusters, phi_clusters = quadrature_clusters(f.spec)
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
