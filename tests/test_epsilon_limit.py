"""The paper's upper bound is a limit as epsilon -> 0, not one epsilon.

Each representative's energy gap over the infimum (sum|w| + Delta) pi comes
from its collars, which cost O(epsilon^2), and its layers and interpolants,
which cost O(delta) with delta = epsilon^3.  So on the 40 classes of the
kmax-3 sweep (grid level 2) a quarter of epsilon leaves at most an eighth of
the gap, wherever the stacks have at most three layers: the worst measured
ratio is 0.104, at k=(2,2,2), n=3.  Deeper stacks stall: the layer-ratio
floor raises delta above epsilon^3 (``patchwork._layer_ratio``; ROADMAP item
6), so their interpolants keep a gap that epsilon does not shrink.  They are
pinned with today's ratios, so lifting the floor shows as a pinned flip.
"""

import functools
import itertools
import math

import pytest

from octfield.numerics import dirichlet_energy
from octfield.patchwork import assemble_patchwork, select_case
from octfield.topology import OctantTopology, classify, infimum_energy, wrapping_from_invariants

EPSILON, LEVEL = 0.05, 2
SWEEP_K3 = [(k, n) for k in itertools.combinations_with_replacement((1, 2, 3), 3)
            for n in range(1, sum(k) - 1)]
# gap(epsilon / 4) / gap(epsilon) of the classes with a stack of four or
# more layers, as measured with the floor in place
STALLED = {
    ((1, 1, 3), 1): 0.467,
    ((1, 2, 3), 2): 0.601,
    ((1, 3, 3), 2): 0.504,
    ((2, 3, 3), 2): 0.464,
    ((3, 3, 3), 2): 0.438,
    ((3, 3, 3), 4): 0.174,
    ((3, 3, 3), 5): 1.043,  # M = (5, 0, 0): 1.140% -> 1.189%
}


@functools.cache
def _gap_ratio(k, n) -> tuple:
    """(deepest stack's layers, gap at epsilon / 4 over gap at epsilon)."""
    t = OctantTopology((1, 1, 1), k, 8 * n + 7 - 4 * sum(k))
    w = wrapping_from_invariants(t)
    infimum = infimum_energy(w, classify(w, t)) * math.pi
    gaps, depth = [], 0
    for epsilon in (EPSILON, EPSILON / 4):
        spec = select_case(t, epsilon=epsilon)
        depth = max(spec.M)
        gaps.append(dirichlet_energy(assemble_patchwork(spec), LEVEL) - infimum)
    return depth, gaps[1] / gaps[0]


@pytest.mark.parametrize("k, n", SWEEP_K3, ids=[f"k={k}-n={n}" for k, n in SWEEP_K3])
def test_a_quarter_of_epsilon_leaves_an_eighth_of_the_gap(k, n):
    depth, ratio = _gap_ratio(k, n)
    assert ((k, n) in STALLED) is (depth > 3), (k, n, depth)
    if (k, n) in STALLED:
        # above an eighth, so each is a stall today
        assert ratio == pytest.approx(STALLED[k, n], abs=0.01)
    else:
        assert 0 < ratio <= 1 / 8
