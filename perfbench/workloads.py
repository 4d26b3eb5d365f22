"""The four workloads: set-up, then a fixed job list per pass.

``setup(name, seed, passes)`` imports the library, builds lattices and rings,
generates every pass's inputs from the seed and warms each kernel once, so
that lazy imports and first-call costs land in set-up rather than in the
first job. It returns one list of ``Job`` per pass. A job's ``run`` is the
timed call; its ``check`` compares the output with an independent reference
(see checks.py) outside the timed region.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from tracing import SPAN_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

from hkgeom import cech, irrational, lattice, llv, period, walls  # noqa: E402
from hkgeom.errors import DomainError, NumericalError  # noqa: E402

# The library's documented failures: a job raising one of these counts as
# failed; any other exception aborts the run.
DOCUMENTED_ERRORS = (DomainError, NumericalError)

# Jobs per pass. Sizes keep the median and the tail percentile inside a block
# of like jobs (see README.md), so they stay put from seed to seed.
K3_LLV = {"so5": 40, "sl2": 6, "hodge": 80}
PERIOD = {"K3": 150, "U3": 50}
LATTICE = {"forms": 30, "spinor": 30, "solve": 12, "planted": 40, "picard": 8, "lines_U3": 8, "lines_K3": 1}
CHAIN_TOL = period.DEFAULT_TOL.replace(orth=1e-8, pos=1e-6)  # acceptance 07


@dataclasses.dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    # Traced form for jobs that run in a child process: takes the recorder.
    run_traced: Callable[[object], object] | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# -- cli-golden ---------------------------------------------------------------------


def _cli_job(golden: str, argv: tuple, code: int, env: dict) -> Job:
    expected = (FIXTURES / "golden" / golden).read_bytes()

    def run():
        p = subprocess.run(
            [sys.executable, "-m", "hkgeom.cli", *argv], cwd=FIXTURES, env=env,
            capture_output=True, check=False,
        )
        return p.returncode, p.stdout

    def run_traced(rec):
        job_env = dict(env, PERFBENCH_JOB=str(rec.job_id))
        p = subprocess.run(
            [sys.executable, str(HERE / "cli_traced.py"), *argv], cwd=FIXTURES, env=job_env,
            capture_output=True, check=False,
        )
        for line in p.stderr.decode().splitlines():
            if line.startswith(SPAN_MARK):
                rec.merge(json.loads(line[len(SPAN_MARK):]))
        return p.returncode, p.stdout

    return Job(f"cli:{' '.join(argv[:2])}", run, lambda out: checks.cli_output(out, expected, code),
               run_traced)


def setup_cli_golden(seed: int, passes: int) -> list[list[Job]]:
    env = child_env()
    jobs = [_cli_job(g, argv, code, env) for g, argv, code in inputs.GOLDEN_RUNS]
    warm = jobs[0]
    warm.check(warm.run())
    out = []
    for p in range(passes):
        order = inputs.rng(seed, "cli-golden", p).permutation(len(jobs))
        out.append([jobs[i] for i in order])
    return out


# -- k3-llv -------------------------------------------------------------------------


def setup_k3_llv(seed: int, passes: int) -> list[list[Job]]:
    K3 = lattice.k3_lattice()
    ring = llv.k3_ring()
    gram = K3.gram
    diag_plane = period.orient_three_plane(K3, list(inputs.diagonal_frame()))
    diag_closure = llv.so5_closure(ring, diag_plane)
    checks.closure(diag_closure, 10, {-2: 3, 0: 4, 2: 3})
    checks.sl2(llv.sl2_residuals(ring, [3, 3] + [0] * 20))
    llv.fujiki_constant(ring, samples=8, seed=0)
    z0 = period.sample_period_point(K3, 0)
    checks.hodge(llv.hodge_decompose(K3, z0), gram, z0.sigma)
    so5 = lambda out: checks.closure(out, 10, {-2: 3, 0: 4, 2: 3})  # noqa: E731

    out = []
    for p in range(passes):
        gen = inputs.rng(seed, "k3-llv", p)
        jobs = [
            Job("full_llv_closure", lambda: llv.full_llv_closure(ring),
                lambda c: checks.closure(c, 276, {-2: 22, 0: 232, 2: 22})),
            Job("so5_closure:diag",
                lambda: llv.so5_closure(ring, period.orient_three_plane(K3, list(inputs.diagonal_frame()))),
                so5),
            Job("fujiki_constant", lambda s=int(gen.integers(2**31)): llv.fujiki_constant(ring, samples=1000, seed=s),
                checks.fujiki),
        ]
        for frame in inputs.positive_planes(gen, gram, K3_LLV["so5"]):
            jobs.append(Job("so5_closure", lambda f=frame: llv.so5_closure(ring, period.orient_three_plane(K3, list(f))),
                            so5))
        for eta in inputs.positive_classes(gen, gram, K3_LLV["sl2"]):
            jobs.append(Job("sl2_residuals", lambda e=eta: llv.sl2_residuals(ring, e), checks.sl2))
        for s in inputs.int_seeds(gen, K3_LLV["hodge"]):
            z = period.sample_period_point(K3, s)
            jobs.append(Job("hodge_decompose", lambda z=z: llv.hodge_decompose(K3, z),
                            lambda h, z=z: checks.hodge(h, gram, z.sigma)))
        a, b = inputs.plane_pair(gen)
        zd = period.period_point(K3, a, b)
        jobs.append(Job("deligne+weights",
                        lambda z=zd: llv.weight_spectrum(ring, llv.deligne_generator(diag_closure, z))[2],
                        checks.weights))
        out.append([jobs[i] for i in gen.permutation(len(jobs))])
    return out


# -- period-chains ------------------------------------------------------------------


def _chain(L, s1: int, s2: int):
    """One job: two sampled points, the chain joining them and its verification.

    A chain that verify_chain rejects is a wrong output of chain_connect, not
    a documented failure, so its error is handed to the check.
    """
    z1 = period.sample_period_point(L, s1)
    z2 = period.sample_period_point(L, s2)
    chain = period.chain_connect(z1, z2)
    try:
        period.verify_chain(chain, z1, z2, tol=CHAIN_TOL)
        rejected = None
    except NumericalError as err:
        rejected = str(err)
    return z1, z2, chain.links, rejected


def setup_period_chains(seed: int, passes: int) -> list[list[Job]]:
    lats = {"K3": lattice.k3_lattice(), "U3": lattice.QuadLattice.from_rows(inputs.U3_GRAM)}
    for name, L in lats.items():
        checks.chain(_chain(L, 0, 1), L.gram)
    out = []
    for p in range(passes):
        gen = inputs.rng(seed, "period-chains", p)
        jobs = []
        for name, L in lats.items():
            seeds = inputs.int_seeds(gen, 2 * PERIOD[name])
            for s1, s2 in zip(seeds[::2], seeds[1::2]):
                jobs.append(Job(f"chain:{name}", lambda L=L, a=s1, b=s2: _chain(L, a, b),
                                lambda c, g=L.gram: checks.chain(c, g)))
        out.append([jobs[i] for i in gen.permutation(len(jobs))])
    return out


# -- lattice-search -----------------------------------------------------------------


def _spinor_input(gram, vectors) -> list[list[int]]:
    """Product of the reflections r_v(x) = x - 2 b(x, v) / q(v) v, in integers."""
    n = len(gram)
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for v in vectors:
        gv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
        s = 2 // sum(v[i] * gv[i] for i in range(n))  # q(v) is +-1 or +-2
        r = [[int(i == j) - s * v[i] * gv[j] for j in range(n)] for i in range(n)]
        g = [[sum(r[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return g


def _cocycle_job(nerve, tris, edges, k: int, gen) -> Job:
    """d(x0) + m e_f for a random 1-cochain x0: solvable iff m = 0 mod k.

    On the closed surfaces used here H^2(-; Z/k) is detected by evaluation
    on the (mod 2 for RP^2) fundamental class, where d(x0) gives 0 and the
    single face f gives m.
    """
    x0 = {e: int(gen.integers(k)) for e in edges}
    m = int(gen.integers(k))
    c = checks.coboundary(tris, x0, k)
    f = tris[int(gen.integers(len(tris)))]
    c[f] = (c[f] + m) % k
    group = cech.FiniteAbelianGroup((k,))
    cochain = cech.Cochain.from_dict(nerve, group, 2, {s: (v,) for s, v in c.items()})
    return Job(f"solve_coboundary:Z/{k}", lambda: cech.solve_coboundary(cochain),
               lambda r: checks.coboundary_solution(r, tris, c, k, m % k == 0))


def _picard_job(L, v, s: int) -> Job:
    """picard_trivial at a sampled point moved into v-perp along v (q(v) = -2
    keeps the plane positive): the Picard lattice then contains v."""
    z = period.sample_period_point(L, s)
    g = np.asarray(L.gram, dtype=float)
    vv = np.array(v, dtype=float)
    a, b = (x + 0.5 * float(x @ g @ vv) * vv for x in (z.re, z.im))
    zv = period.period_point(L, *period.orthonormal_pair(L, a, b))
    return Job(f"picard_trivial:{L.rank}", lambda: irrational.picard_trivial(zv, height=2),
               lambda verdict: checks.picard_witness(verdict, v, zv, L.gram))


def _line_job(L, z, s: int) -> Job:
    return Job(f"irrational_line:{L.rank}", lambda: period.sample_irrational_line(z, seed=s),
               lambda ell: checks.irrational_line(ell, z, L.gram))


def load_wall_refs() -> dict:
    return json.loads((HERE / "wall_refs.json").read_text(encoding="utf-8"))


def setup_lattice_search(seed: int, passes: int) -> list[list[Job]]:
    refs = load_wall_refs()
    wall_lats = {
        name: (lattice.QuadLattice.from_rows(gram), [list(v) for v in span])
        for name, (gram, span) in inputs.WALL_CASES.items()
    }
    U3 = wall_lats["U3"][0]
    K3 = lattice.k3_lattice()
    nerves = {name: cech.Nerve.from_simplices(tris) for name, tris in inputs.SURFACES.items()}
    faces = {name: n.simplices_of_dim(2) for name, n in nerves.items()}
    edges = {name: n.simplices_of_dim(1) for name, n in nerves.items()}

    def wall_job(name, d, r):
        L, span = wall_lats[name]
        ref = refs[inputs.wall_key(name, d, r)]
        return Job(f"walls:{name}", lambda: walls.enumerate_walls_near(L, span, d, r),
                   lambda w: checks.walls(w, ref, inputs.coords_digest))

    warm_gen = inputs.rng(seed, "lattice-search", 0, stream=1)
    warm = [wall_job("U3", -2, 2),
            _cocycle_job(nerves["octahedron"], faces["octahedron"], edges["octahedron"], 2, warm_gen)]
    delta, ws = inputs.planted_relation(warm_gen)
    warm.append(Job("planted", lambda: irrational.rational_closure(ws, mode="detect", height=100, tol=1e-9),
                    lambda r: checks.relation(r, delta)))
    warm.append(_line_job(U3, period.sample_period_point(U3, 0), 0))
    warm.append(_picard_job(U3, inputs.planted_root(warm_gen, inputs.U3_GRAM), 0))
    for job in warm:
        job.check(job.run())
    checks.signature(lattice.signature(lattice.QuadLattice.from_rows(inputs.U2M2_GRAM)), inputs.U2M2_GRAM)

    out = []
    for p in range(passes):
        gen = inputs.rng(seed, "lattice-search", p)
        jobs = []
        for name in wall_lats:
            radii = [inputs.WALL_PASS_RADII[i] for i in gen.permutation(len(inputs.WALL_PASS_RADII))]
            for i, r in enumerate(radii):
                jobs.append(wall_job(name, inputs.WALL_SQUARES[i % 3], r))
        for form in inputs.random_forms(gen, LATTICE["forms"]):
            jobs.append(Job("signature", lambda f=form: lattice.signature(lattice.QuadLattice.from_rows(f)),
                            lambda s, f=form: checks.signature(s, f)))
        for _ in range(LATTICE["spinor"]):
            vs = inputs.reflection_vectors(gen, inputs.U3_GRAM, int(gen.integers(1, 5)))
            g = _spinor_input(inputs.U3_GRAM, vs)
            jobs.append(Job("spinor_norm_sign", lambda g=g: lattice.spinor_norm_sign(U3, g),
                            lambda s, vs=vs: checks.spinor(s, inputs.U3_GRAM, vs)))
        for name, nerve in nerves.items():
            for group in inputs.GROUPS:
                fag = cech.FiniteAbelianGroup(group)
                for degree in (0, 1, 2):
                    expected = inputs.known_cohomology(name, group, degree)
                    jobs.append(Job(f"cohomology:{name}", lambda n=nerve, a=fag, d=degree: cech.cohomology(n, a, d),
                                    lambda h, e=expected: checks.cohomology(h, e)))
        for i in range(LATTICE["solve"]):
            name = ("octahedron", "torus7", "rp2_6")[i % 3]
            k = 2 if name == "rp2_6" else (2, 4, 6)[(i // 3) % 3]
            jobs.append(_cocycle_job(nerves[name], faces[name], edges[name], k, gen))
        for _ in range(LATTICE["planted"]):
            delta, ws = inputs.planted_relation(gen)
            jobs.append(Job("planted", lambda ws=ws: irrational.rational_closure(ws, mode="detect", height=100, tol=1e-9),
                            lambda r, d=delta: checks.relation(r, d)))
        for s in inputs.int_seeds(gen, LATTICE["picard"]):
            jobs.append(_picard_job(U3, inputs.planted_root(gen, inputs.U3_GRAM), s))
        for L, key in ((U3, "lines_U3"), (K3, "lines_K3")):
            seeds = inputs.int_seeds(gen, 2 * LATTICE[key])
            for s1, s2 in zip(seeds[::2], seeds[1::2]):
                jobs.append(_line_job(L, period.sample_period_point(L, s1), s2))
        out.append([jobs[i] for i in gen.permutation(len(jobs))])
    return out


SETUP = {
    "cli-golden": setup_cli_golden,
    "k3-llv": setup_k3_llv,
    "period-chains": setup_period_chains,
    "lattice-search": setup_lattice_search,
}
