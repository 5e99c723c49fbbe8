"""Regression fixtures: older comparison constructions.

These are not part of the public construction path; they reproduce the
historical juxtaposition recipe (a conformal full-sphere insertion in a small
interior disc of an anticonformal bulk) whose energy exceeds the sharp bound,
and a single quarter-sphere layer placed at the z vertex.  Both serve as
independent checks of the degree-counting and quadrature machinery.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import Region
from .patchwork import PatchworkSpec, SampledMap, assemble_patchwork
from .rational import boundary_seed_for_spec, evaluate_rational, quadrature_clusters, realize
from .stacks import QuarterSphereStack
from .topology import OctantTopology, WrappingNumbers, invariants_from_wrapping

__all__ = ["insertion_comparison_map", "vertex_stack_map"]


def insertion_comparison_map(epsilon: float = 0.01) -> SampledMap:
    """The 19 pi comparison representative of the worked-example class.

    An anticonformal bulk with wrapping numbers (2,2,2,2,1,1,1,0) carries a
    conformal full-sphere covering inserted in an interior disc: the insertion
    lowers every wrapping number by one, reaching the target class, at the
    cost of one extra preimage in every sector.
    """
    bulk_class = OctantTopology((1, 1, 1), (1, 1, 1), 11)
    bulk = realize(bulk_class)
    center = 0.55 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    f_center = complex(evaluate_rational(bulk, center))
    amp = 200.0  # chart magnification: the missed cap has radius 1/amp

    def insertion(u):
        u = np.asarray(u, dtype=complex)
        z = amp * u / epsilon
        with np.errstate(divide="ignore", invalid="ignore"):
            out = f_center + 1.0 / z
        return np.where(z == 0, np.inf + 0j, out)

    def collar(u):
        u = np.asarray(u, dtype=complex)
        s = (np.abs(u) - epsilon) / epsilon
        return (1 - s) * insertion(u) + s * evaluate_rational(bulk, center + u)

    def evaluate(w):
        w = np.asarray(w, dtype=complex)
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(w)
        out = evaluate_rational(bulk, w)
        u = w - center
        r = np.abs(u)
        inner = r <= epsilon
        ring = (r > epsilon) & (r <= 2 * epsilon)
        if inner.any():
            out[inner] = insertion(u[inner])
        if ring.any():
            out[ring] = collar(u[ring])
        return complex(out[0]) if scalar else out

    def tags(w):
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        out = np.full(w.shape, "bulk", dtype=object)
        r = np.abs(w - center)
        out[r <= epsilon] = "insertion"
        out[(r > epsilon) & (r <= 2 * epsilon)] = "switch(insertion)"
        return out

    r_cl, phi_cl = quadrature_clusters(bulk)
    feval = lambda w: evaluate_rational(bulk, w)
    regions = [
        Region("bulk", feval, 0.0, 1.0, r_clusters=r_cl, phi_clusters=phi_cl),
        Region("bulk_cut", lambda u: evaluate_rational(bulk, center + u),
               0.0, 2 * epsilon, (epsilon,), "log", -1, 0.0, 2 * math.pi),
        Region("insertion", insertion, 0.0, epsilon, (), "log", 1, 0.0, 2 * math.pi),
        Region("collar", collar, epsilon, 2 * epsilon, (), "linear", 1, 0.0, 2 * math.pi),
    ]
    return SampledMap(
        evaluate=evaluate,
        subdomain_tags=tags,
        metadata={"fixture": "full-sphere insertion", "center": center,
                  "bulk_value_at_center": f_center},
        regions=regions,
        boundary_seed=boundary_seed_for_spec(bulk),
    )


def vertex_stack_map(epsilon: float = 0.05) -> SampledMap:
    """The illustrative single quarter-sphere construction: anticonformal bulk
    with one extra positive covering of (--+) and a single conformal
    quarter-sphere layer at the z vertex, reaching the worked-example class
    with one doubled sector count at (--+)."""
    target = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    bulk_class = invariants_from_wrapping(
        WrappingNumbers((1, 1, 1, 0, 1, 0, 1, 0))
    )
    spec = PatchworkSpec(
        target=target,
        case_id="fixture-vertex",
        H0=bulk_class,
        M=(0, 0, 1),
        epsilon=epsilon,
        stacks={"z": QuarterSphereStack(((-1, -1),), epsilon)},
    )
    return assemble_patchwork(spec)
