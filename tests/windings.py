"""Boundary windings: the tests' independent measure of wrapping numbers.

``octfield`` reads a map's wrapping numbers from the signed coverings its
regions count (``patchwork.measure_map_wrapping`` of
``numerics.region_degrees``).  The windings measure the same numbers a
different way: they bisect the boundary loop of Q (period 3, see
``rational.boundary_points``) until each sector centroid's winding
relative to the (---) centroid is stable, which gives the degree
differences d_sigma - d_---, and the trapped area's multiple of pi/2 fixes
their sum.  They read only the map's values on the boundary, so they check
the region counts without sharing a grid, a mesh or a preimage solve with
them.

The loop is seeded densely where its image moves fast: into the three
vertices and the bulk's edge zeros and poles, and through every stack's
annuli down a decade below its innermost layer.
"""

from __future__ import annotations

import math

import numpy as np

from octfield.numerics import IntegrationError, region_degrees, trapped_area
from octfield.patchwork import PatchworkSpec, measure_map_wrapping
from octfield.rational import RationalMapSpec, measure_wrapping, realize, singular_structure


def rational_seed(spec: RationalMapSpec) -> np.ndarray:
    """Boundary parameters with geometric ladders into the three vertices and
    every edge zero/pole, where the boundary image runs around a fast
    sub-loop that uniform sampling would alias away.  Ladders start at 1e-9,
    or at an edge point a decade below the scale on which |f| passes unit
    modulus there (``rational.singular_structure``) when that is smaller."""
    parts = [np.linspace(0.0, 3.0, 1200, endpoint=False)]
    starts = [(0.0, 1e-9), (1.0, 1e-9), (2.0, 1e-9)]  # vertices
    for w0, scale in singular_structure(spec):
        if w0.imag == 0 and 0 < w0.real < 1:
            starts.append((w0.real, min(1e-9, scale / 10)))  # real edge: t = r
        elif w0.real == 0 and 0 < w0.imag < 1:
            starts.append((3.0 - w0.imag, min(1e-9, scale / 10)))  # imaginary edge: t = 3 - s
    for t0, start in starts:
        ladder = np.geomspace(start, 0.2, 48)
        parts.append((t0 + ladder) % 3.0)
        parts.append((t0 - ladder) % 3.0)
    return np.sort(np.unique(np.concatenate(parts)))


def patchwork_seed(spec: PatchworkSpec) -> np.ndarray:
    """The bulk's ``rational_seed``, log-refined into every stack annulus.
    Each vertex ladder reaches a decade below the innermost layer's
    unit-modulus radius sqrt(delta) rho_1, where the boundary image passes
    the sector centroids."""
    params = [rational_seed(realize(spec.H0, stacked=tuple(spec.stacks)))]
    vertex_param = {"z": 0.0, "x": 1.0, "y": 2.0}
    for axis, st in spec.stacks.items():
        ladder = np.geomspace(0.1 * st.inner_scale(), 6 * spec.epsilon, 240)
        t0 = vertex_param[axis]
        params.append((t0 + ladder) % 3.0)
        params.append((t0 - ladder) % 3.0)
    return np.sort(np.unique(np.concatenate(params)))


def winding_wrapping(sampled_map, level: int = 2, bulk: RationalMapSpec | None = None):
    """Wrapping numbers of a map from its boundary windings, anchored by its
    trapped area at grid ``level``.  The loop is seeded from the map's
    metadata (a ``PatchworkSpec`` or a ``RationalMapSpec``), or from the
    rational ``bulk`` whose edges the map keeps."""
    omega, residual = trapped_area(sampled_map, level=level)
    if residual > 0.3:
        raise IntegrationError(f"trapped area did not converge (residual {residual:.3f})")
    meta = sampled_map.metadata
    if isinstance(meta, PatchworkSpec):
        seed = patchwork_seed(meta)
    else:
        seed = rational_seed(bulk if bulk is not None else meta)
    return measure_wrapping(sampled_map.evaluate, -round(omega / (math.pi / 2)), seed)


def both_ways(sampled_map, level: int = 2, bulk: RationalMapSpec | None = None) -> tuple:
    """(the wrapping numbers the map's regions count, its windings'), as
    value tuples, both at grid ``level``."""
    counted = measure_map_wrapping(region_degrees(sampled_map, level=level))
    return counted.values, winding_wrapping(sampled_map, level, bulk).values
