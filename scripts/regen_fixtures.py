#!/usr/bin/env python3
"""Regenerate the fixture inputs and golden CLI outputs.

Dry run (no flag) recomputes everything and exits 1 on any difference from
the committed files; --write rewrites them. Golden files are compared
byte-exactly by the test suite, so regeneration is gated behind the flag.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from hkgeom import cech, lattice, llv, serialize  # noqa: E402
from hkgeom.cli import main as cli_main  # noqa: E402

FIXTURES = REPO / "fixtures"
GOLDEN = FIXTURES / "golden"


def fixture_inputs() -> dict[str, dict]:
    u3 = lattice.standard_lattice("U3")
    k3 = lattice.k3_lattice()
    diag_u3 = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
    diag_k3 = []
    for i in range(3):
        row = [0] * 22
        row[2 * i] = row[2 * i + 1] = 1
        diag_k3.append(row)
    # two real vectors on which exactly the form (1, 1, -1, 0, 0, -1) vanishes
    roots = [[1, 2, 3, 5, 7], [11, 13, 17, 19, 23]]
    planted = [[math.sqrt(r) for r in row] for row in roots]
    for w in planted:
        w.append(w[0] + w[1] - w[2])
    octa = cech.octahedron_nerve()
    faces = octa.simplices_of_dim(2)
    cocycle = {
        "degree": 2,
        "values": {",".join(map(str, faces[0])): [1]},
    }
    return {
        "u3_lattice.json": serialize.encode_lattice(u3),
        "k3_lattice.json": serialize.encode_lattice(k3),
        "k3_ring.json": serialize.encode_ring(llv.k3_ring()),
        "octahedron_nerve.json": serialize.encode_nerve(octa),
        "diagonal_plane_u3.json": {"span": diag_u3},
        "diagonal_plane_k3.json": {"span": diag_k3},
        "llv_closure_job.json": {"ring": "k3", "span": diag_k3},
        "llv_fujiki_job.json": {"ring": "k3"},
        "cech_solve_octahedron.json": {
            "nerve": serialize.encode_nerve(octa),
            "group": {"factors": [2]},
            "cochain": cocycle,
        },
        "cech_cohomology_job.json": {
            "nerve": serialize.encode_nerve(octa),
            "group": {"factors": [2]},
            "degree": 2,
        },
        "walls_enum_job.json": {
            "lattice": serialize.encode_lattice(u3),
            "span": diag_u3,
            "square": -2,
            "radius": 4,
        },
        "spinor_job.json": {
            "lattice": serialize.encode_lattice(u3),
            "matrix": [
                [0, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
            ],
        },
        "hodge_job.json": {
            "lattice": serialize.encode_lattice(k3),
            "point": {
                "re": diag_k3[0],
                "im": diag_k3[1],
            },
        },
        "picard_job_u3.json": {
            "lattice": serialize.encode_lattice(u3),
            "point": {"re": diag_u3[0], "im": diag_u3[1]},
        },
        "closure_detect_job.json": {"mode": "detect", "vectors": planted},
        "chain_job_u3.json": {
            "lattice": serialize.encode_lattice(u3),
            "source": {"re": diag_u3[0], "im": diag_u3[1]},
            "target": {"re": diag_u3[1], "im": diag_u3[2]},
        },
        "cone_job_u3.json": {
            "lattice": serialize.encode_lattice(u3),
            "point": {"re": diag_u3[0], "im": diag_u3[1]},
            "vector": diag_u3[2],
        },
    }


GOLDEN_RUNS = [
    ("lattice_signature_k3.json", ["lattice", "signature", "-i", "k3_lattice.json"]),
    ("llv_closure_diag.json", ["llv", "closure", "-i", "llv_closure_job.json"]),
    ("llv_fujiki_k3.json", ["llv", "fujiki", "-i", "llv_fujiki_job.json"]),
    ("llv_hodge_diag.json", ["llv", "hodge", "-i", "hodge_job.json"]),
    ("cech_solve_octahedron.json", ["cech", "solve", "-i", "cech_solve_octahedron.json"]),
    ("cech_cohomology_octahedron.json", ["cech", "cohomology", "-i", "cech_cohomology_job.json"]),
    ("walls_enum_u3.json", ["walls", "enum", "-i", "walls_enum_job.json"]),
    ("spinor_swap_u3.json", ["lattice", "spinor", "-i", "spinor_job.json"]),
    ("period_sample_u3_seed7.json", ["period", "sample", "-i", "u3_lattice.json", "--seed", "7"]),
    ("twistor_chain_u3.json", ["twistor", "chain", "-i", "chain_job_u3.json"]),
    ("period_cone_u3.json", ["period", "cone", "-i", "cone_job_u3.json"]),
    ("irrational_picard_u3.json", ["irrational", "picard", "-i", "picard_job_u3.json", "--height", "2"]),
    ("irrational_closure_detect.json", ["irrational", "closure", "-i", "closure_detect_job.json"]),
]


def run_cli(argv: list[str]) -> str:
    argv = list(argv)
    for i, a in enumerate(argv):
        if a == "-i":
            argv[i + 1] = str(FIXTURES / argv[i + 1])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(argv)
    return buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="rewrite fixtures and goldens")
    args = ap.parse_args()
    FIXTURES.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    inputs = fixture_inputs()
    # a fixtures/*.json file that fixture_inputs() does not build is stale too
    stale = [] if args.write else sorted(str(p) for p in FIXTURES.glob("*.json") if p.name not in inputs)
    for name, payload in inputs.items():
        path = FIXTURES / name
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        if args.write:
            path.write_text(text, encoding="utf-8")
        elif not path.exists() or path.read_text(encoding="utf-8") != text:
            stale.append(str(path))
    for name, argv in GOLDEN_RUNS:
        out = run_cli(argv)
        path = GOLDEN / name
        if args.write:
            path.write_text(out, encoding="utf-8")
        elif not path.exists() or path.read_text(encoding="utf-8") != out:
            stale.append(str(path))
    if stale:
        print("stale fixtures:\n  " + "\n  ".join(stale))
        return 1
    print("fixtures up to date" if not args.write else "fixtures written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
