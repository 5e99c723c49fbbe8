"""Regression fixtures: older comparison constructions.

These are not part of ``octfield``'s construction path; they reproduce the
historical juxtaposition recipe (a conformal full-sphere insertion in a small
interior disc of an anticonformal bulk) whose energy exceeds the sharp bound,
and a single quarter-sphere layer placed at the z vertex.  Both serve as
independent checks of the degree-counting and quadrature machinery.  Like
every map, each is a list of signed regions: the insertion's bulk is its
closed-form rational map, and its disc lives in the translation chart
w - center, with the bulk cut out of it in two pieces at epsilon and
replaced by the insertion and its collar.
"""

from __future__ import annotations

import math

import numpy as np

from octfield.numerics import Region
from octfield.patchwork import PatchworkSpec, SampledMap, assemble_patchwork
from octfield.rational import ChartRational, evaluate_rational, realize
from octfield.stacks import QuarterSphereStack
from octfield.topology import OctantTopology

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

    def cut(u):
        return evaluate_rational(bulk, center + u)

    def collar(u):
        u = np.asarray(u, dtype=complex)
        s = (np.abs(u) - epsilon) / epsilon
        return (1 - s) * insertion(u) + s * cut(u)

    def chart(w):
        return np.asarray(w, dtype=complex) - center

    disc = (0.0, 2 * math.pi)
    regions = [
        Region("bulk", ChartRational(bulk, "z"), 0.0, 1.0),
        Region("cut(insertion)", cut, 0.0, epsilon, "log", -1, *disc, chart=chart),
        Region("cut(switch(insertion))", cut, epsilon, 2 * epsilon, "log", -1, *disc,
               chart=chart),
        Region("insertion", insertion, 0.0, epsilon, "log", 1, *disc, chart=chart),
        Region("switch(insertion)", collar, epsilon, 2 * epsilon, "linear", 1, *disc,
               chart=chart),
    ]
    return SampledMap(regions)


def vertex_stack_map(epsilon: float = 0.05) -> SampledMap:
    """The illustrative single quarter-sphere construction: anticonformal bulk
    with one extra positive covering of (--+) and a single conformal
    quarter-sphere layer at the z vertex, reaching the worked-example class
    with one doubled sector count at (--+)."""
    target = OctantTopology((1, 1, 1), (1, 1, 1), 3)
    stack = QuarterSphereStack(((-1, -1),), epsilon)
    return assemble_patchwork(PatchworkSpec(target, "fixture-vertex", epsilon, {"z": stack}))
