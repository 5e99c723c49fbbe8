"""Homotopy invariants and infimum Dirichlet energies of tangent unit-vector
fields on a spherical octant, with explicit near-minimal representatives."""

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
from .rational import RationalMapSpec, evaluate_rational, predict_invariants, realize
from .stacks import QuarterSphereStack, alternating, stack_degree_table
from .patchwork import (
    PatchworkSpec,
    SampledMap,
    assemble_patchwork,
    identity_map,
    measure_map_wrapping,
    rational_map,
    select_case,
)
from .numerics import (
    DegreeReport,
    boundary_residual,
    degree_count,
    dirichlet_energy,
    lemma1_lower_bound,
    trapped_area,
)

__version__ = "0.1.0"
