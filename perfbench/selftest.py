"""Self-tests of the benchmark itself (not of hkgeom).

    python3 perfbench/selftest.py        # a few minutes

They check that the seeded generators are deterministic, that every checker
rejects a corrupted output, that the tail-percentile helper keeps at least
ten samples beyond the percentile, that documented library errors are
counted rather than fatal, and that a wrong answer planted in the library
makes a whole run exit non-zero.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run.import_library()
import checks  # noqa: E402
import inputs  # noqa: E402
from hkgeom import cech, lattice, llv, period  # noqa: E402


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


# -- generators ---------------------------------------------------------------------


def _draw(seed: int) -> list:
    gen = inputs.rng(seed, "lattice-search", 3)
    k3 = lattice.k3_lattice().gram
    return [
        inputs.int_seeds(gen, 4),
        [f.tolist() for f in inputs.positive_planes(gen, k3, 2)],
        inputs.positive_classes(gen, k3, 3),
        [x.tolist() for x in inputs.plane_pair(gen)],
        inputs.random_forms(gen, 3),
        inputs.reflection_vectors(gen, inputs.U3_GRAM, 3),
        [inputs.planted_relation(gen)[0]],
    ]


def test_generators_are_deterministic():
    assert _draw(5) == _draw(5)
    assert _draw(5) != _draw(6)


def test_job_lists_are_deterministic():
    kinds = lambda passes: [[j.kind for j in p] for p in passes]  # noqa: E731
    for name in ("period-chains", "lattice-search"):
        a = workloads.SETUP[name](7, 2)
        b = workloads.SETUP[name](7, 2)
        assert kinds(a) == kinds(b)
        assert kinds(a) != kinds(workloads.SETUP[name](8, 2))


# -- checkers reject corrupted outputs ----------------------------------------------


def test_golden_byte_flip_rejected():
    golden = (workloads.FIXTURES / "golden" / inputs.GOLDEN_RUNS[0][0]).read_bytes()
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.cli_output((0, golden), golden, 0)
    assert rejects(checks.cli_output, (0, bytes(flipped)), golden, 0)
    assert rejects(checks.cli_output, (2, golden), golden, 0)


def test_dropped_wall_rejected():
    refs = workloads.load_wall_refs()
    gram, span = inputs.WALL_CASES["U3"]
    L = lattice.QuadLattice.from_rows(gram)
    found = workloads.walls.enumerate_walls_near(L, [list(v) for v in span], -2, 8)
    ref = refs[inputs.wall_key("U3", -2, 8)]
    assert checks.walls(found, ref, inputs.coords_digest)
    assert rejects(checks.walls, found[:-1], ref, inputs.coords_digest)
    swapped = found[:-1] + [found[0]]
    assert rejects(checks.walls, swapped, ref, inputs.coords_digest)


def test_wrong_cohomology_factor_rejected():
    nerve = cech.Nerve.from_simplices(inputs.TORUS7)
    group = cech.FiniteAbelianGroup((2, 3, 4))
    h1 = cech.cohomology(nerve, group, 1)
    expected = inputs.known_cohomology("torus7", (2, 3, 4), 1)
    assert expected == (2, 2, 12, 12)
    assert checks.cohomology(h1, expected)
    assert rejects(checks.cohomology, h1[:-1] + (6,), expected)


def test_known_cohomology_table():
    for name in inputs.SURFACES:
        nerve = cech.Nerve.from_simplices(inputs.SURFACES[name])
        v, e, f = (len(nerve.simplices_of_dim(d)) for d in range(3))
        assert v - e + f == {"octahedron": 2, "torus7": 0, "rp2_6": 1}[name]
        # a closed surface: every edge lies on exactly two triangles
        for edge in nerve.simplices_of_dim(1):
            assert sum(set(edge) <= set(t) for t in inputs.SURFACES[name]) == 2
    assert inputs.known_cohomology("rp2_6", (2, 3, 4), 1) == (2, 2)
    assert inputs.invariant_factors((2, 3, 4, 2, 3, 4)) == (2, 2, 12, 12)


def test_k3_llv_checkers_reject():
    ring = llv.k3_ring()
    K3 = ring.lattice
    plane = period.orient_three_plane(K3, list(inputs.diagonal_frame()))
    closure = llv.so5_closure(ring, plane)
    good = {-2: 3, 0: 4, 2: 3}
    assert checks.closure(closure, 10, good)
    assert rejects(checks.closure, dataclasses.replace(closure, dimension=9), 10, good)
    assert rejects(checks.closure, dataclasses.replace(closure, by_degree={-2: 2, 0: 5, 2: 3}), 10, good)
    assert rejects(checks.fujiki, Fraction(2))
    res = llv.sl2_residuals(ring, [3, 3] + [0] * 20)
    assert rejects(checks.sl2, dict(res, ef_plus_h=1e-3))
    z = period.sample_period_point(K3, 3)
    dec = llv.hodge_decompose(K3, z)
    assert checks.hodge(dec, K3.gram, z.sigma)
    assert rejects(checks.hodge, dataclasses.replace(dec, inertia_h11=(2, 18)), K3.gram, z.sigma)
    assert rejects(checks.hodge, dataclasses.replace(dec, h11=dec.h11 + 0.1 * dec.h20), K3.gram, z.sigma)
    a, b = inputs.plane_pair(np.random.default_rng(0))
    spec = llv.weight_spectrum(ring, llv.deligne_generator(closure, period.period_point(K3, a, b)))[2]
    assert checks.weights(spec)
    assert rejects(checks.weights, [v * 1.5 for v in spec])


def test_chain_checker_rejects():
    L = lattice.QuadLattice.from_rows(inputs.U3_GRAM)
    for seeds in ((0, 1), (2, 3), (4, 5)):
        z1, z2, links, rejected = workloads._chain(L, *seeds)
        assert checks.chain((z1, z2, links, rejected), L.gram)
        if len(links) >= 2:
            assert rejects(checks.chain, (z1, z2, links[:-1], None), L.gram)
            assert rejects(checks.chain, (z1, z2, links[1:], None), L.gram)
        assert rejects(checks.chain, (z1, z2, links, "chain does not end at the target"), L.gram)
        other = period.sample_period_point(L, 99)
        assert rejects(checks.chain, (z1, other, links, None), L.gram)


def test_lattice_search_checkers_reject():
    form = [[2, 1, 0], [1, -3, 1], [0, 1, 5]]
    sig = lattice.signature(lattice.QuadLattice.from_rows(form))
    assert checks.signature(sig, form)
    assert rejects(checks.signature, (sig[1], sig[0]), form)
    vs = inputs.reflection_vectors(np.random.default_rng(1), inputs.U3_GRAM, 3)
    sign = lattice.spinor_norm_sign(lattice.QuadLattice.from_rows(inputs.U3_GRAM),
                                    workloads._spinor_input(inputs.U3_GRAM, vs))
    assert checks.spinor(sign, inputs.U3_GRAM, vs)
    assert rejects(checks.spinor, -sign, inputs.U3_GRAM, vs)
    tris = inputs.OCTAHEDRON
    nerve = cech.Nerve.from_simplices(tris)
    faces = nerve.simplices_of_dim(2)
    edges = nerve.simplices_of_dim(1)
    rnd = random.Random(4)
    x0 = {e: rnd.randrange(4) for e in edges}
    c = checks.coboundary(faces, x0, 4)
    z4 = cech.FiniteAbelianGroup((4,))
    res = cech.solve_coboundary(cech.Cochain.from_dict(nerve, z4, 2, {s: (v,) for s, v in c.items()}))
    assert checks.coboundary_solution(res, faces, c, 4, True)
    assert rejects(checks.coboundary_solution, res, faces, c, 4, False)
    bad = dict(res.solution.as_dict())
    bad[edges[0]] = ((bad[edges[0]][0] + 1) % 4,)
    broken = dataclasses.replace(res, solution=cech.Cochain.from_dict(nerve, z4, 1, bad))
    assert rejects(checks.coboundary_solution, broken, faces, c, 4, True)
    delta, ws = inputs.planted_relation(np.random.default_rng(2))
    report = workloads.irrational.rational_closure(ws, mode="detect", height=100, tol=1e-9)
    assert checks.relation(report, delta)
    assert rejects(checks.relation, dataclasses.replace(report, relations=()), delta)
    U3 = lattice.QuadLattice.from_rows(inputs.U3_GRAM)
    v = inputs.planted_root(np.random.default_rng(3), inputs.U3_GRAM)
    job = workloads._picard_job(U3, v, 5)
    verdict = job.run()
    assert job.check(verdict)
    assert rejects(job.check, dataclasses.replace(verdict, trivial_up_to_height=True, witness=None))
    other = tuple(x + (i == 0) for i, x in enumerate(verdict.witness))
    assert rejects(job.check, dataclasses.replace(verdict, witness=other))
    z = period.sample_period_point(U3, 0)
    ell = period.sample_irrational_line(z, seed=0)
    assert checks.irrational_line(ell, z, inputs.U3_GRAM)
    assert rejects(checks.irrational_line, ell + 0.01 * z.re, z, inputs.U3_GRAM)


# -- tail percentile ------------------------------------------------------------------


def test_tail_keeps_ten_beyond():
    rnd = random.Random(0)
    for n in list(range(20, 60)) + [99, 100, 101, 199, 200, 999, 1000, 1001, 5000, 20000]:
        values = [rnd.expovariate(1.0) for _ in range(n)]
        pct, value, beyond = run.tail(values)
        assert beyond == sum(v > value for v in values) >= 10, (n, pct, beyond)
        higher = [p for p in run.PERCENTILES if p > pct]
        if higher:
            v2 = run.nearest_rank(sorted(values), higher[0])
            assert sum(v > v2 for v in values) < 10, (n, pct)
    assert run.tail([1.0] * 5 + [2.0])[0] == 100


# -- the runner -----------------------------------------------------------------------


def _fake(kind, out, check, raises=None):
    def go():
        if raises:
            raise raises
        return out
    return workloads.Job(kind, go, check)


def _aborts(passes, rounds=1) -> bool:
    import tracing

    try:
        run.run_rounds(workloads, passes, rounds, tracing.Recorder(), False)
    except run.WrongOutput:
        return True
    return False


def test_documented_errors_count_and_wrong_outputs_abort():
    import tracing

    ok = _fake("ok", 1, lambda x: "one")
    err = _fake("err", None, lambda x: "never", raises=workloads.NumericalError("budget"))
    res = run.run_rounds(workloads, [[ok, err, ok]], 2, tracing.Recorder(), False)
    assert res["attempted"] == 6 and res["failed"] == 2 and len(res["latencies"]) == 6
    assert len(res["pass_s"]) == 2 and math.isclose(sum(res["pass_s"]), sum(res["latencies"]))
    wrong = _fake("wrong", 2, lambda x: checks.require(x == 1, "two is not one"))
    assert _aborts([[ok, wrong]]), "a wrong output did not abort the run"


def test_changing_output_between_rounds_aborts():
    outputs = iter([1, 2])
    flaky = workloads.Job("flaky", lambda: next(outputs), lambda x: f"value={x}")
    assert _aborts([[flaky]], rounds=2), "an output that changed between rounds was accepted"


def _run_with(module, name, replacement, workload) -> int:
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        return run.main(["--workload", workload, "--seed", "3", "--seconds", "1"])
    finally:
        setattr(module, name, original)


def test_planted_wrong_answers_fail_the_run():
    orig_coh = cech.cohomology
    assert _run_with(cech, "cohomology", lambda n, g, d: orig_coh(n, g, d) + (2,), "lattice-search") == 1
    orig_fujiki = llv.fujiki_constant
    assert _run_with(llv, "fujiki_constant", lambda *a, **k: 2 * orig_fujiki(*a, **k), "k3-llv") == 1
    orig_chain = period.chain_connect

    def short_chain(*a, **k):
        chain = orig_chain(*a, **k)
        return dataclasses.replace(chain, links=chain.links[:-1])

    assert _run_with(period, "chain_connect", short_chain, "period-chains") == 1


def test_planted_wrong_cli_answer_fails_the_run():
    """A wall dropped inside the CLI children (planted through sitecustomize) fails cli-golden."""
    mutant = run.OUT / "selftest-mutant"
    mutant.mkdir(parents=True, exist_ok=True)
    (mutant / "sitecustomize.py").write_text(
        "import hkgeom.walls as w\n"
        "_orig = w.enumerate_walls_near\n"
        "w.enumerate_walls_near = lambda *a, **k: list(_orig(*a, **k))[:-1]\n",
        encoding="utf-8",
    )
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(mutant)
    try:
        assert run.main(["--workload", "cli-golden", "--seed", "3", "--seconds", "1"]) == 1
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
