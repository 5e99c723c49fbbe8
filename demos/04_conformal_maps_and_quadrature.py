"""Rational representatives and the quadrature machinery.

Conformal representatives are rational maps whose zeros and poles respect the
tangent boundary conditions; their energy is exactly pi per covered sector.
A rational map is one closed-form region, its ``evaluate`` the chart
rational map itself: its energy, trapped area and degree counts come from
its centroid preimages, with no grid.  The quadrature, run on the same
region evaluated through a plain function and gridded with ladders of grid
lines around the map's edge zeros and poles, reproduces those exact values,
and the closed-form energy of a quarter-sphere layer.

That reference quadrature is the tests' (``tests/gridded.py``), not part of
the package: this demo imports it by path.
"""

import math
import sys
from pathlib import Path

import numpy as np

from octfield import (
    QuarterSphereStack,
    alternating,
    RationalMapSpec,
    dirichlet_energy,
    degree_count,
    evaluate_rational,
    trapped_area,
    rational_map,
)
from octfield.rational import measure_wrapping_rational
from octfield.topology import sector_name

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from gridded import gridded  # noqa: E402

# a degree-5 conformal representative: cube power plus one real zero pair
spec = RationalMapSpec(m=1, real_factors=((0.4, 1),))
w = measure_wrapping_rational(spec)
print("wrapping numbers:", {k: v for k, v in w.as_dict().items() if v})

closed = rational_map(spec)
for label, sm in (("closed form", closed), ("quadrature", gridded(closed))):
    energy = dirichlet_energy(sm, level=3)
    omega, residual = trapped_area(sm, level=3)
    report = degree_count(sm, level=3)
    print(f"{label}: energy {energy / math.pi:.4f} pi (coverage {w.total_absolute()} pi), "
          f"trapped area {omega / math.pi:.3f} pi (residual {residual:.1e})")
    print("  degree counts:", {sector_name(s): (e.d, e.D)
                               for s, e in report.by_sector.items() if e.D})

# boundary conditions hold exactly on all three edges
arc = np.exp(1j * np.linspace(0, math.pi / 2, 200))
print("max | |f|-1 | on the arc:", np.max(np.abs(np.abs(evaluate_rational(spec, arc)) - 1)))

# one quarter-sphere layer has an exactly integrable energy
eps = 0.05
st = QuarterSphereStack(alternating(2), eps)
exact = 2 * math.pi * (1 - 4 * eps**2) / ((1 + eps) * (1 + 4 * eps))
print(f"layer closed form: {exact / math.pi:.5f} pi")
