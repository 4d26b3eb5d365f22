#!/usr/bin/env python3
"""In-process timings of the float LLV kernels on the K3 ring.

Prints the best of 3 runs, in milliseconds per call, of ``so5_closure`` on
the 40 generic planes of k3-llv's seed-1 pass (perfbench's job list; a
benchmark run runs each about ten times), split into its phases: the
Lefschetz e operators of the frame (``_lefschetz_e_stack``), the stacked sl2
completion ``_lefschetz_f``, and ``lie_closure`` on the six generators with
its residual sweep and with the sweep replaced by a constant. Then
``full_llv_closure`` on a fresh ring (which closes the algebra instead of
reading a kept one), and ``hodge_decompose`` on the pass's 80 period points,
``sl2_residuals`` on its 6 classes and ``fujiki_constant(samples=1000)`` on
its seed. On a tree without the stacked e kernel the e stack is formed one
``lefschetz_e`` at a time, so the script also times an older checkout.

    python3 scripts/llv_kernel_times.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from hkgeom import llv, period


def _best_ms(fn, args) -> float:
    """Best of 3 over all of ``args``, in milliseconds per call."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for x in args:
            fn(*x)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / len(args)


def _e_by_class(ring, frame):
    """The e stack of a frame one public ``lefschetz_e`` at a time, for trees without the stacked kernel."""
    return np.array([llv.lefschetz_e(ring, eta).matrix for eta in frame])


e_stack = getattr(llv, "_lefschetz_e_stack", _e_by_class)


def main() -> int:
    import workloads  # perfbench's, for the k3-llv job list

    jobs = workloads.setup_k3_llv(1, 1)[0]
    by_kind: dict = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job.run)
    ring = llv.k3_ring()
    k3 = ring.lattice
    # each job is a lambda whose one default argument is its input
    planes = [(period.orient_three_plane(k3, list(run.__defaults__[0])),) for run in by_kind["so5_closure"]]
    e_stacks = [(e_stack(ring, plane.frame),) for (plane,) in planes]
    generators = []
    for (es,) in e_stacks:
        fs = llv._lefschetz_f(ring, es)
        generators.append(([llv._assembled(ring, m, d) for e, f in zip(es, fs) for m, d in ((e, 2), (f, -2))],))

    rows = {
        f"so5_closure, {len(planes)} k3-llv seed-1 planes": (lambda p: llv.so5_closure(ring, p), planes),
        "  e stack": (lambda p: e_stack(ring, p.frame), planes),
        "  _lefschetz_f": (lambda es: llv._lefschetz_f(ring, es), e_stacks),
        "  lie_closure": (llv.lie_closure, generators),
    }
    for name, (fn, args) in rows.items():
        print(f"{name}: {_best_ms(fn, args):.4f} ms per call")
    sweep = llv._residual_sweep
    llv._residual_sweep = lambda *args: 0.0
    try:
        print(f"  lie_closure without the sweep: {_best_ms(llv.lie_closure, generators):.4f} ms per call")
    finally:
        llv._residual_sweep = sweep

    print(f"full_llv_closure, fresh ring: {_best_ms(lambda: llv.full_llv_closure(llv.k3_ring()), [()]):.2f} ms")
    for kind, name in [("hodge_decompose", "hodge_decompose"), ("sl2_residuals", "sl2_residuals"),
                       ("fujiki_constant", "fujiki_constant(samples=1000)")]:
        runs = [(run,) for run in by_kind[kind]]
        print(f"{name}, {len(runs)} k3-llv seed-1 inputs: {_best_ms(lambda run: run(), runs):.4f} ms per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
