"""Seeded inputs and fixed case tables for the four workloads.

Nothing here imports hkgeom: the library receives only what these
generators produce. Every generator draws from ``rng(seed, workload, pass)``,
so one seed always gives the same inputs, pass by pass.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("cli-golden", "k3-llv", "period-chains", "lattice-search")

# -- cli-golden: the 11-row golden table of tests/test_cli.py ---------------------

GOLDEN_RUNS = (
    ("lattice_signature_k3.json", ("lattice", "signature", "-i", "k3_lattice.json"), 0),
    ("llv_closure_diag.json", ("llv", "closure", "-i", "llv_closure_job.json"), 0),
    ("llv_fujiki_k3.json", ("llv", "fujiki", "-i", "llv_fujiki_job.json"), 0),
    ("llv_hodge_diag.json", ("llv", "hodge", "-i", "hodge_job.json"), 0),
    ("cech_solve_octahedron.json", ("cech", "solve", "-i", "cech_solve_octahedron.json"), 1),
    ("cech_cohomology_octahedron.json", ("cech", "cohomology", "-i", "cech_cohomology_job.json"), 0),
    ("walls_enum_u3.json", ("walls", "enum", "-i", "walls_enum_job.json"), 0),
    ("spinor_swap_u3.json", ("lattice", "spinor", "-i", "spinor_job.json"), 0),
    ("period_sample_u3_seed7.json", ("period", "sample", "-i", "u3_lattice.json", "--seed", "7"), 0),
    ("twistor_chain_u3.json", ("twistor", "chain", "-i", "chain_job_u3.json"), 0),
    ("period_cone_u3.json", ("period", "cone", "-i", "cone_job_u3.json"), 0),
)

# -- lattices, as plain gram matrices ---------------------------------------------

U = ((0, 1), (1, 0))


def block_diag(*blocks) -> tuple:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return tuple(tuple(r) for r in out)


U3_GRAM = block_diag(U, U, U)
U2M2_GRAM = block_diag(U, U, ((-2,),))

# -- lattice-search: wall cases ---------------------------------------------------

# Each lattice comes with the rational maximal positive span of acceptance 08.
WALL_CASES = {
    "U3": (U3_GRAM, ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))),
    "U2m2": (U2M2_GRAM, ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))),
}
WALL_SQUARES = (-2, -4, -6)
WALL_RADII = tuple(range(2, 17))
# One pass gives each lattice these six radii, spread over the three squares by
# a seeded permutation: the inputs change with the seed, the work hardly does.
WALL_PASS_RADII = (2, 5, 8, 11, 14, 16)


def wall_key(name: str, d: int, radius: int) -> str:
    return f"{name}/{d}/{radius}"


def coords_digest(coords) -> str:
    text = json.dumps([[int(x) for x in c] for c in coords], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- lattice-search: triangulated surfaces and their cohomology -------------------

OCTAHEDRON = tuple((a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5))
# Moebius-Csaszar 7-vertex torus and the 6-vertex (hemi-icosahedral) RP^2.
TORUS7 = tuple(
    tuple(sorted(((i + a) % 7 for a in tri)))
    for i in range(7)
    for tri in ((0, 1, 3), (0, 2, 3))
)
RP2_6 = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
)
SURFACES = {"octahedron": OCTAHEDRON, "torus7": TORUS7, "rp2_6": RP2_6}
GROUPS = ((2,), (4,), (2, 3, 4))


def invariant_factors(orders) -> tuple:
    """Invariant factors d1 | d2 | ... of a product of cyclic groups."""
    primes: dict[int, list[int]] = {}
    for k in orders:
        p = 2
        while k > 1:
            if k % p == 0:
                e = 1
                while k % p == 0:
                    k //= p
                    e *= p
                primes.setdefault(p, []).append(e)
            p += 1
    width = max((len(v) for v in primes.values()), default=0)
    out = [1] * width
    for powers in primes.values():
        for i, e in enumerate(sorted(powers, reverse=True)):
            out[width - 1 - i] *= e
    return tuple(out)


def known_cohomology(surface: str, group: tuple, degree: int) -> tuple:
    """H^degree(surface; group) from topology, by universal coefficients.

    S^2: G, 0, G. T^2: G, G^2, G. RP^2: G, G[2], G/2G; for a cyclic
    Z/k both torsion groups are Z/gcd(2, k).
    """
    if degree == 0:
        return invariant_factors(group)
    if surface == "octahedron":
        return () if degree == 1 else invariant_factors(group)
    if surface == "torus7":
        return invariant_factors(group * 2) if degree == 1 else invariant_factors(group)
    if surface == "rp2_6":
        return invariant_factors(tuple(2 for k in group if k % 2 == 0))
    raise KeyError(surface)


# -- seeded generators ------------------------------------------------------------


def rng(seed: int, workload: str, pass_index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), pass_index, stream])


def int_seeds(gen: np.random.Generator, count: int) -> list[int]:
    return [int(x) for x in gen.integers(0, 2**31 - 1, size=count)]


def diagonal_frame(rank: int = 22) -> np.ndarray:
    """The three hyperbolic-plane diagonals e_i + f_i: a positive 3-plane of K3."""
    out = np.zeros((3, rank))
    for i in range(3):
        out[i, 2 * i] = out[i, 2 * i + 1] = 1.0
    return out


def positive_planes(gen, gram, count: int) -> list[np.ndarray]:
    """Generic positive 3-planes: the diagonal frame plus Gaussian noise."""
    g = np.asarray(gram, dtype=float)
    base = diagonal_frame(len(g))
    out = []
    while len(out) < count:
        frame = base + 0.1 * gen.standard_normal(base.shape)
        if np.linalg.eigvalsh(frame @ g @ frame.T)[0] > 0.5:
            out.append(frame)
    return out


def positive_classes(gen, gram, count: int) -> list[list[int]]:
    """Integer classes of positive square near the diagonal (as acceptance 03)."""
    g = np.asarray(gram, dtype=np.int64)
    out = []
    while len(out) < count:
        v = gen.integers(-1, 2, size=len(g))
        k = int(gen.integers(2, 7))
        block = 2 * int(gen.integers(0, 3))
        v[block] += k
        v[block + 1] += k
        if int(v @ g @ v) > 0:
            out.append([int(x) for x in v])
    return out


def plane_pair(gen) -> tuple[np.ndarray, np.ndarray]:
    """A q-orthonormal pair inside the diagonal 3-plane (q = 2 Id there)."""
    base = diagonal_frame()
    m, _ = np.linalg.qr(gen.standard_normal((3, 2)))
    a, b = (m.T @ base) / np.sqrt(2.0)
    return a, b


def random_forms(gen, count: int) -> list[list[list[int]]]:
    """Symmetric integer forms of rank 3..10, entries in [-9, 9].

    Forms whose smallest |eigenvalue| is below 1e-3 are redrawn so that the
    float eigenvalue count is a sound reference for the exact signature.
    """
    out = []
    while len(out) < count:
        n = int(gen.integers(3, 11))
        raw = gen.integers(-9, 10, size=(n, n))
        sym = np.triu(raw) + np.triu(raw, 1).T
        if np.min(np.abs(np.linalg.eigvalsh(sym.astype(float)))) < 1e-3:
            continue
        out.append([[int(x) for x in row] for row in sym])
    return out


def reflection_vectors(gen, gram, count: int) -> list[list[int]]:
    """Vectors with q(v) in {-2, -1, 1, 2} (as acceptance 06)."""
    g = np.asarray(gram, dtype=np.int64)
    out = []
    while len(out) < count:
        v = gen.integers(-2, 3, size=len(g))
        if int(v @ g @ v) in (-2, -1, 1, 2):
            out.append([int(x) for x in v])
    return out


def planted_root(gen, gram) -> list[int]:
    """A primitive vector v with q(v) = -2 and entries in [-2, 2]."""
    g = np.asarray(gram, dtype=np.int64)
    while True:
        v = gen.integers(-2, 3, size=len(g))
        if int(v @ g @ v) == -2 and int(np.gcd.reduce(np.abs(v))) == 1:
            return [int(x) for x in v]


def planted_relation(gen) -> tuple[list[int], list[np.ndarray]]:
    """A primitive integer relation delta and two real vectors it kills (as acceptance 09)."""
    delta = [int(x) for x in gen.integers(-10, 11, size=6)]
    if not any(delta):
        delta[0] = 1
    g = int(np.gcd.reduce(np.abs(delta)))
    delta = [x // g for x in delta]
    if next(x for x in delta if x) < 0:
        delta = [-x for x in delta]
    d = np.array(delta, dtype=float)
    ws = []
    for _ in range(2):
        r = gen.standard_normal(6)
        w = r - (r @ d) / (d @ d) * d
        ws.append(w + 1e-12 * gen.standard_normal(6))
    return delta, ws
