#!/usr/bin/env python3
"""Census of negative walls near diagonal positive planes of U^3, U^2 + <-2> and K3.

Enumerates indivisible dual functionals of fixed negative square inside
growing majorant balls and prints each case's count and seconds. The U^3
and U^2 + <-2> counts are cross-checked against the box oracle; K3 (rank
22, past the oracle's reach) with square -2 is checked against its known
counts at radii 2 and 4. Exits 1 when any case disagrees.

    python3 scripts/wall_census.py
"""

import sys
import time
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
K3_SPAN = [[int(j in (2 * i, 2 * i + 1)) for j in range(22)] for i in range(3)]
K3_COUNTS = {2: 243, 4: 14_715}  # at radius 2: the 3 walls of U3 and the 240 roots of E8 + E8 up to sign


def _timed(lattice, span, d, radius):
    start = time.perf_counter()
    walls = enumerate_walls_near(lattice, span, d, radius)
    return walls, time.perf_counter() - start


def main() -> int:
    disagreements = 0
    print("lattice  square  radius  walls  seconds  agrees")
    for name, (lattice, span) in CASES.items():
        for d in (-2, -4, -6):
            for radius in (2, 4, 8):
                walls, seconds = _timed(lattice, span, d, radius)
                oracle = brute_force_walls(lattice, span, d, radius, box=6)
                agrees = [w.coords for w in walls] == [w.coords for w in oracle]
                disagreements += not agrees
                print(f"{name:7s}  {d:6d}  {radius:6d}  {len(walls):5d}  {seconds:7.3f}  {agrees}")
    k3 = lat.k3_lattice()
    for radius, count in K3_COUNTS.items():
        walls, seconds = _timed(k3, K3_SPAN, -2, radius)
        agrees = len(walls) == count
        disagreements += not agrees
        print(f"{'K3':7s}  {-2:6d}  {radius:6d}  {len(walls):5d}  {seconds:7.3f}  {agrees}")
    if disagreements:
        print(f"{disagreements} case(s) disagree with the box oracle or the known count", file=sys.stderr)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
