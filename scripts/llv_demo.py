#!/usr/bin/env python3
"""Bracket-closure census on the K3 cohomology ring.

Builds the sl2 family over a positive 3-plane (closure so(5): dimension 10,
graded (3, 4, 3)) and the full Lefschetz family over the whole degree-2
basis (dimension 276 = dim so(24)), printing dimensions, residuals and the
worklist's bracket counts.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from hkgeom import full_llv_closure, k3_ring, orient_three_plane, so5_closure


def work(closure) -> str:
    return (
        f"brackets formed {closure.brackets_formed}, screened into the rank test "
        f"{closure.brackets_tried}, accepted {closure.brackets_accepted}"
    )


def main() -> int:
    ring = k3_ring()
    span = []
    for i in range(3):
        v = [0] * 22
        v[2 * i] = v[2 * i + 1] = 1
        span.append(v)
    plane = orient_three_plane(ring.lattice, span)

    start = time.monotonic()
    small = so5_closure(ring, plane)
    print(
        f"3-plane closure : dim {small.dimension}, by degree {small.by_degree}, "
        f"residual {small.residual:.2e}, {time.monotonic() - start:.2f}s"
    )
    print(f"                  {work(small)}")

    # Killing form signature of the 10-dimensional closure
    mats = [op.matrix for op in small.elements]
    flat = np.array([m.ravel() for m in mats])
    gram_inv = np.linalg.inv(flat @ flat.T)
    n = len(mats)
    killing = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for k in range(n):
                xk = mats[i] @ mats[k] - mats[k] @ mats[i]
                yxk = mats[j] @ xk - xk @ mats[j]
                acc += (gram_inv @ (flat @ yxk.ravel()))[k]
            killing[i, j] = killing[j, i] = acc
    evals = np.linalg.eigvalsh(killing)
    pos = int((evals > 1e-8).sum())
    neg = int((evals < -1e-8).sum())
    print(f"Killing form    : signature ({pos}, {neg})")

    start = time.monotonic()
    full = full_llv_closure(ring)
    print(
        f"full closure    : dim {full.dimension}, by degree {full.by_degree}, "
        f"residual {full.residual:.2e}, {time.monotonic() - start:.2f}s"
    )
    print(f"                  {work(full)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
