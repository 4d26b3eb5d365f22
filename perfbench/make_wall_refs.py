"""Regenerate perfbench/wall_refs.json, the reference wall sets of the
lattice-search workload.

Every case the workload can draw -- both lattices, d in {-2, -4, -6} and
every integer radius 2..16 -- is solved by the library's brute-force box
oracle (``walls.brute_force_walls``), never by ``enumerate_walls_near``,
the code the benchmark times. The box is the exact coordinate bound of the
ellipsoid: v^T M^{-1} v <= r implies |v_i| <= sqrt(r * M_ii) for the
majorant M (exact Fractions for a rational span).

    python3 perfbench/make_wall_refs.py
    git diff --exit-code perfbench/wall_refs.json  # unchanged?
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hkgeom import lattice, walls  # noqa: E402

import inputs  # noqa: E402

OUT = HERE / "wall_refs.json"


def build() -> dict:
    out = {}
    for name, (gram, span) in inputs.WALL_CASES.items():
        L = lattice.QuadLattice.from_rows(gram)
        span = [list(v) for v in span]
        diag = [row[i] for i, row in enumerate(walls.majorant(L, span).matrix)]
        for d in inputs.WALL_SQUARES:
            for radius in inputs.WALL_RADII:
                box = max(math.isqrt(int(radius * m)) for m in diag)
                oracle = walls.brute_force_walls(L, span, d, radius, box=box)
                coords = [list(w.coords) for w in oracle]
                out[inputs.wall_key(name, d, radius)] = {
                    "count": len(coords),
                    "sha256": inputs.coords_digest(coords),
                    "box": box,
                }
                print(f"{name} d={d} r={radius} box={box} walls={len(coords)}", flush=True)
    return out


if __name__ == "__main__":
    OUT.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
