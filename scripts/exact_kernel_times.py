#!/usr/bin/env python3
"""In-process timings of the exact symmetric elimination against Bareiss.

Prints the best of 3 runs, in milliseconds, of ``exactlin._inertia_det_int``
and of the Bareiss determinant ``exactlin.det`` on the same gram: K3, U^100,
3U^100 (U scaled by 3, a hundred times), E8^12, and seeded dense forms of
rank 40, 80 and 120 with entries up to 200. Then, with no Bareiss column,
3,000 seeded small forms (rank 3..10, entries up to 9, the size of a
lattice-search signature job) and ``kernel_signature`` over the 728 bordered
U3 matrices with c in {-1, 0, 1}^6, c != 0. Last, microseconds per call of
public exact entries, each of which takes its vectors through the exact
rule: ``QuadLattice.from_rows`` plus ``signature`` on the nondegenerate
small forms, K3 ``q`` of an int vector, K3 ``dual_value``, the U3
``majorant`` of the diagonal span and the U3 ``spinor_norm_sign`` of the
e_i <-> f_i swap. Then ``spinor_norm_sign`` on the 30 U3 isometries of
lattice-search's seed-1 pass (perfbench's job list; a benchmark run runs each
four times), on 20 K3 products of 1-4 reflections in each of two draws
(mirror entries in [-2, 2], the benchmark's draw, and in {-1, 0, 1}, mostly
0, whose products stay sparse) and on a U3 isometry with one entry changed,
which it refuses.

    python3 scripts/exact_kernel_times.py
"""

import itertools
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hkgeom import exactlin as ex
from hkgeom import lattice as lat
from hkgeom import walls
from hkgeom.errors import DomainError


def _best_ms(fn, arg) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _us_per_call(fn, args) -> float:
    """Best of 3 over all of ``args``, in microseconds per call."""
    return 1e3 * _best_ms(lambda xs: [fn(*x) for x in xs], args) / len(args)


def _dense(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = rng.randint(-bound, bound)
    return s


def main() -> int:
    u = lat.hyperbolic_plane()
    lattices = {
        "K3": lat.k3_lattice(),
        "U^100": lat.direct_sum(*[u] * 100),
        "3U^100": lat.direct_sum(*[lat.rescale(u, 3)] * 100),
        "E8^12": lat.direct_sum(*[lat.e8_lattice()] * 12),
    }
    grams = {name: [list(row) for row in L.gram] for name, L in lattices.items()}
    rng = random.Random(40)
    for n in (40, 80, 120):
        grams[f"dense {n}"] = _dense(rng, n, 200)
    print("gram       rank  inertia_det_ms  bareiss_det_ms")
    for name, g in grams.items():
        print(f"{name:9s}  {len(g):4d}  {_best_ms(ex._inertia_det_int, g):14.3f}  {_best_ms(ex.det, g):14.3f}")

    forms = [_dense(rng, rng.randint(3, 10), 9) for _ in range(3000)]
    ms = _best_ms(lambda fs: [ex._inertia_det_int(f) for f in fs], forms)
    print(f"3000 small forms: {ms:.1f} ms, {1e3 * ms / len(forms):.1f} us per form")

    u3 = lat.standard_lattice("U3")
    sweep = [c for c in itertools.product((-1, 0, 1), repeat=6) if any(c)]
    ms = _best_ms(lambda cs: [lat.kernel_signature(u3, c) for c in cs], sweep)
    print(f"{len(sweep)} bordered U3 kernel_signature: {ms:.1f} ms, {1e3 * ms / len(sweep):.1f} us per call")

    k3 = lattices["K3"]
    v = [rng.randint(-3, 3) for _ in range(22)]
    diag = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
    swap = [[int(j == (i ^ 1)) for j in range(6)] for i in range(6)]
    nondegenerate = [(f,) for f in forms if ex.det(f)]
    entries = {
        "from_rows + signature, nondegenerate small forms": (lambda f: lat.QuadLattice.from_rows(f).signature, nondegenerate),
        "K3 q, int vector": (k3.q, [(v,)] * 1000),
        "K3 dual_value": (lambda c: lat.dual_value(k3, c), [(v,)] * 1000),
        "U3 majorant, diagonal span": (lambda s: walls.majorant(u3, s), [(diag,)] * 200),
        "U3 spinor_norm_sign, swap": (lambda g: lat.spinor_norm_sign(u3, g), [(swap,)] * 200),
    }
    for name, (fn, args) in entries.items():
        print(f"{name}: {_us_per_call(fn, args):.1f} us per call")

    import workloads  # perfbench's, for the lattice-search job list

    jobs = workloads.setup_lattice_search(1, 1)[0]
    benchmark = [job.run.__defaults__ for job in jobs if job.kind == "spinor_norm_sign"]  # run = lambda g=g: ...
    refused = [list(row) for row in benchmark[0][0]]
    refused[2][3] += 1

    def refuse(g):
        try:
            lat.spinor_norm_sign(u3, g)
        except DomainError:
            return
        raise AssertionError("a non-isometry passed")

    spinor = {
        f"U3, the {len(benchmark)} lattice-search seed-1 inputs": (lambda g: lat.spinor_norm_sign(u3, g), benchmark),
        "K3, 20 products of 1-4 reflections, mirrors in [-2, 2]": _k3_products(k3, rng, (-2, -1, 0, 1, 2)),
        "K3, 20 products of 1-4 reflections, mirrors in {-1, 0, 1}": _k3_products(k3, rng, (-1, 0, 0, 0, 1)),
        "U3, one entry of a benchmark input changed (refused)": (refuse, [(refused,)] * 30),
    }
    for name, (fn, args) in spinor.items():
        print(f"spinor_norm_sign {name}: {_us_per_call(fn, args):.1f} us per call")
    return 0


def _k3_products(k3, rng: random.Random, entries) -> tuple:
    """spinor_norm_sign on K3 and five integer products of k reflections for each k in 1..4, mirrors of q = +-2."""
    def mirror():
        while True:
            v = [rng.choice(entries) for _ in range(22)]
            if k3.q(v) in (-2, 2):
                return v

    products = []
    for k in range(1, 5):
        for _ in range(5):
            g = ex.identity(22)
            for _ in range(k):
                g = ex.mat_mul(lat.reflection_matrix(k3, mirror()), g)
            products.append(([[int(x) for x in row] for row in g],))
    return lambda g: lat.spinor_norm_sign(k3, g), products


if __name__ == "__main__":
    sys.exit(main())
