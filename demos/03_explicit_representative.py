"""Build an explicit near-minimal representative of a nonconformal class.

The construction glues a rational bulk map to quarter-sphere stacks at the
octant vertices.  The case tables pick the bulk class and stack sizes; the
assembled map is then measured: per-sector degrees, boundary conditions,
trapped area, and the Dirichlet energy against the sharp formula.
"""

import math

from octfield import (
    OctantTopology,
    assemble_patchwork,
    boundary_residual,
    classify,
    degree_count,
    dirichlet_energy,
    infimum_energy,
    measure_map_wrapping,
    select_case,
    trapped_area,
    wrapping_from_invariants,
)

t = OctantTopology((1, 1, 1), (1, 1, 1), 3)
w = wrapping_from_invariants(t)
target = infimum_energy(w, classify(w, t))
print(f"target energy: {target} pi")

spec = select_case(t, epsilon=0.05)
print(f"case {spec.case_id}: bulk {spec.H0}, stacks M = {spec.M}")

sm = assemble_patchwork(spec)
# w = -d, the signed sector coverings its regions count
measured = measure_map_wrapping(degree_count(sm, level=2))
print("measured wrapping:", measured.as_dict())
assert measured.values == w.values

print(f"boundary residual: {boundary_residual(sm):.2e}")
omega, res = trapped_area(sm, level=2)  # its own check: omega = 3 pi/2
print(f"trapped area: {omega / math.pi:.3f} pi (residual {res:.1e})")

print("energy under epsilon refinement:")
for eps in (0.1, 0.05, 0.025):
    sm_eps = assemble_patchwork(select_case(t, epsilon=eps))
    energy = dirichlet_energy(sm_eps, level=2)
    gap = 100 * (energy - target * math.pi) / (target * math.pi)
    print(f"  eps={eps:<6} E = {energy / math.pi:.4f} pi  (gap {gap:+.2f}%)")
