#!/usr/bin/env python3
"""Census of negative walls near diagonal positive planes of U^3 and U^2 + <-2>.

Enumerates indivisible dual functionals of fixed negative square inside
growing majorant balls and cross-checks each count against the box oracle.
Exits 1 when any enumeration disagrees with the oracle.

    python3 scripts/wall_census.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hkgeom import lattice as lat
from hkgeom.walls import brute_force_walls, enumerate_walls_near

CASES = {
    "U3": (
        lat.standard_lattice("U3"),
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
    ),
    "U2+<-2>": (
        lat.direct_sum(lat.hyperbolic_plane(), lat.hyperbolic_plane(), lat.rank_one(-2)),
        [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]],
    ),
}


def main() -> int:
    disagreements = 0
    print("lattice  square  radius  walls  oracle-agrees")
    for name, (lattice, span) in CASES.items():
        for d in (-2, -4, -6):
            for radius in (2, 4, 8):
                walls = enumerate_walls_near(lattice, span, d, radius)
                oracle = brute_force_walls(lattice, span, d, radius, box=6)
                agrees = [w.coords for w in walls] == [w.coords for w in oracle]
                disagreements += not agrees
                print(f"{name:7s}  {d:6d}  {radius:6d}  {len(walls):5d}  {agrees}")
    if disagreements:
        print(f"{disagreements} case(s) disagree with the box oracle", file=sys.stderr)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
