"""Homotopy invariants and infimum Dirichlet energies of tangent unit-vector
fields on a spherical octant, with explicit near-minimal representatives.

The invariants (``topology``) and the free-group words (``words``) need no
NumPy and are imported with the package.  The numeric layer (``rational``,
``stacks``, ``patchwork``, ``numerics``) loads, NumPy with it, when one of
its names is first read from the package: ``octfield.realize`` and
``from octfield import select_case`` resolve through the module
``__getattr__`` below.  They are looked up in their defining module on each
access and never stored here, so the package namespace holds no second
binding of them.
"""

import importlib

from .topology import (
    OctantTopology,
    WrappingNumbers,
    Classification,
    classify,
    delta_invariant,
    infimum_energy,
    invariants_from_wrapping,
    prism_bounds,
    spelling_lower_bound_check,
    wrapping_from_invariants,
)
from .words import (
    ClassProductSpec,
    SearchResult,
    Word,
    certified_lower_bound,
    free_reduce,
    min_spelling_over_product,
    optimal_pairing,
    spelling_length,
    word,
)

__version__ = "0.1.0"

# name -> defining module, for the names of the numeric layer
_NUMERIC = {
    **dict.fromkeys(("RationalMapSpec", "evaluate_rational", "predict_invariants",
                     "realize"), "rational"),
    **dict.fromkeys(("QuarterSphereStack", "alternating", "stack_degree_table"), "stacks"),
    **dict.fromkeys(("PatchworkSpec", "SampledMap", "assemble_patchwork", "identity_map",
                     "measure_map_wrapping", "rational_map", "select_case"), "patchwork"),
    **dict.fromkeys(("DegreeReport", "boundary_residual", "degree_count", "dirichlet_energy",
                     "lemma1_lower_bound", "trapped_area"), "numerics"),
}

__all__ = [
    "OctantTopology", "WrappingNumbers", "Classification", "classify", "delta_invariant",
    "infimum_energy", "invariants_from_wrapping", "prism_bounds",
    "spelling_lower_bound_check", "wrapping_from_invariants",
    "ClassProductSpec", "SearchResult", "Word", "certified_lower_bound", "free_reduce",
    "min_spelling_over_product", "optimal_pairing", "spelling_length", "word",
    *_NUMERIC,
]


def __getattr__(name):
    module = _NUMERIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
