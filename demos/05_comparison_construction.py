"""Why quarter-sphere stacks: the older full-sphere insertion pays double.

Both maps below represent the same class (energy formula 7 pi).  Inserting a
full sphere covering in an interior disc reaches the right topology but
forces 19 preimages; the vertex quarter-sphere construction needs only 7.

The insertion map is a regression fixture of the tests, not part of the
package: this demo imports it from ``tests/fixtures.py`` by path.
"""

import math
import sys
from pathlib import Path

from octfield import OctantTopology, dirichlet_energy, degree_count, select_case
from octfield.patchwork import assemble_patchwork
from octfield.topology import sector_name

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from fixtures import insertion_comparison_map  # noqa: E402

quarter = assemble_patchwork(select_case(OctantTopology((1, 1, 1), (1, 1, 1), 3)))
insertion = insertion_comparison_map()

for name, sm in (("quarter-sphere", quarter), ("full insertion", insertion)):
    rep = degree_count(sm, level=3)
    counts = {sector_name(s): e.D for s, e in rep.by_sector.items()}
    total = sum(counts.values())
    energy = dirichlet_energy(sm, level=3)
    print(f"{name:>15}: preimage counts {counts}")
    print(f"{'':>15}  total {total}, energy {energy / math.pi:.2f} pi")
