"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hkgeom import cech, irrational as irr, lattice as lat, llv, period as per, walls as wl
from hkgeom import exactlin as ex

K3 = lat.k3_lattice()
RING = llv.k3_ring()
U3 = lat.standard_lattice("U3")


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def _diag_vectors(n_blocks=3, rank=22):
    out = []
    for i in range(n_blocks):
        v = [0] * rank
        v[2 * i] = v[2 * i + 1] = 1
        out.append(v)
    return out


def test_01_so5_certificate():
    start = time.monotonic()
    plane = per.orient_three_plane(K3, _diag_vectors())
    closure = llv.so5_closure(RING, plane)
    elapsed = time.monotonic() - start
    ok = (
        closure.dimension == 10
        and closure.by_degree == {-2: 3, 0: 4, 2: 3}
        and elapsed < 10.0
    )
    _report(1, "so5-certificate", ok, f"dim={closure.dimension}, {elapsed:.2f}s")


def test_02_full_llv_closure():
    start = time.monotonic()
    closure = llv.full_llv_closure(RING)
    elapsed = time.monotonic() - start
    ok = (
        closure.dimension == 276
        and closure.residual < 1e-8
        and elapsed < 120.0
    )
    _report(
        2,
        "full-llv-closure-276",
        ok,
        f"dim={closure.dimension}, residual={closure.residual:.2e}, {elapsed:.1f}s",
    )


def _random_positive_class(rng, lattice):
    g = np.array(lattice.gram, dtype=np.int64)
    while True:
        v = rng.integers(-1, 2, size=lattice.rank)
        k = int(rng.integers(2, 7))
        block = 2 * int(rng.integers(0, 3))
        v[block] += k
        v[block + 1] += k
        if int(v @ g @ v) > 0:
            return [int(x) for x in v]


def test_03_sl2_residuals():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        eta = _random_positive_class(rng, K3)
        res = llv.sl2_residuals(RING, eta)
        worst = max(worst, max(res.values()))
    _report(3, "sl2-residuals", worst < 1e-9, f"worst={worst:.2e}")


def test_04_fujiki_constant():
    c = llv.fujiki_constant(RING, samples=1000, seed=31)
    _report(4, "fujiki-constant", c == Fraction(1), f"c={c}")


def test_05_signature_oracle():
    rng = random.Random(1234)
    checked = 0
    ok = True
    while checked < 200:
        n = rng.randint(2, 7)
        raw = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        if any(abs(x) > 9 for row in sym for x in row):
            sym = [[max(-9, min(9, x)) for x in row] for row in sym]
            sym = [[sym[i][j] if i <= j else sym[j][i] for j in range(n)] for i in range(n)]
        if ex.det(ex.frmat(sym)) == 0:
            continue
        evals = np.linalg.eigvalsh(np.array(sym, dtype=float))
        exact = ex.inertia(sym)
        float_counts = (int((evals > 0).sum()), int((evals < 0).sum()), 0)
        if exact != float_counts:
            ok = False
            break
        checked += 1
    ok = ok and K3.signature == (3, 19)
    _report(5, "signature-oracle", ok, f"checked={checked}, K3={K3.signature}")


def _random_reflection_vectors(rng, L, count):
    out = []
    while len(out) < count:
        v = [rng.randint(-2, 2) for _ in range(L.rank)]
        if L.q(v) in (-2, -1, 1, 2):
            out.append(v)
    return out


def _cartan_dieudonne_sign(L, g, order):
    """The oracle's spinor sign: the product of the signs of -q(w) over the mirrors of ``reflection_vectors``."""
    sign = 1
    for w in lat.reflection_vectors(L, g, order=order):
        sign *= 1 if L.q(w) < 0 else -1
    return sign


def test_06_spinor_norm():
    rng = random.Random(99)
    ok = True
    for _ in range(50):
        vs_g = _random_reflection_vectors(rng, U3, rng.randint(1, 4))
        vs_h = _random_reflection_vectors(rng, U3, rng.randint(1, 4))
        g = ex.identity(6)
        for v in vs_g:
            g = ex.mat_mul(lat.reflection_matrix(U3, v), g)
        h = ex.identity(6)
        for v in vs_h:
            h = ex.mat_mul(lat.reflection_matrix(U3, v), h)
        sg, sh = lat.spinor_norm_sign(U3, g), lat.spinor_norm_sign(U3, h)
        expect_g = 1
        for v in vs_g:
            expect_g *= 1 if -U3.q(v) > 0 else -1
        if sg != expect_g:
            ok = False
            break
        if lat.spinor_norm_sign(U3, ex.mat_mul(g, h)) != sg * sh:
            ok = False
            break
        if _cartan_dieudonne_sign(U3, g, [5, 3, 1, 0, 2, 4]) != sg:
            ok = False
            break
    # reflections in q = -2 vectors always land in the kernel subgroup
    for v in ([1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [1, -1, 1, -1, 1, -1]):
        if U3.q(v) < 0 and not lat.in_o_sharp(U3, lat.reflection_matrix(U3, v)):
            ok = False
    _report(6, "spinor-norm", ok)


def test_07_twistor_chaining():
    start = time.monotonic()
    lengths = []
    for seed in range(100):
        z1 = per.sample_period_point(K3, 2 * seed)
        z2 = per.sample_period_point(K3, 2 * seed + 1)
        chain = per.chain_connect(z1, z2)
        per.verify_chain(
            chain,
            z1,
            z2,
            tol=per.DEFAULT_TOL.replace(orth=1e-8, pos=1e-6),
        )
        lengths.append(len(chain))
    elapsed = time.monotonic() - start
    median = sorted(lengths)[len(lengths) // 2]
    ok = elapsed < 30.0 and len(lengths) == 100 and median <= 20
    _report(
        7,
        "twistor-chaining",
        ok,
        f"100 pairs, median links={median}, max={max(lengths)}, {elapsed:.1f}s",
    )


def test_08_wall_enumeration_completeness():
    u2m2 = lat.direct_sum(lat.hyperbolic_plane(), lat.hyperbolic_plane(), lat.rank_one(-2))
    cases = [
        (U3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]),
        (u2m2, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]]),
    ]
    ok = True
    counts = []
    for L, span in cases:
        for d in (-2, -4):
            for radius in (2, 4, 8):
                fast = wl.enumerate_walls_near(L, span, d, radius)
                oracle = wl.brute_force_walls(L, span, d, radius, box=6)
                if [w.coords for w in fast] != [w.coords for w in oracle]:
                    ok = False
                counts.append(len(fast))
    _report(8, "wall-enumeration", ok, f"set sizes={counts}")


def test_09_irrationality_detection():
    rng = np.random.default_rng(777)
    recovered = 0
    for _ in range(100):
        delta = [int(x) for x in rng.integers(-10, 11, size=6)]
        if not any(delta):
            delta[0] = 1
        delta = ex.primitive_vector(delta)
        basis = [np.array(v, dtype=float) for v in ex.nullspace([delta])]
        w1 = sum(float(rng.standard_normal()) * b for b in basis)
        w2 = sum(float(rng.standard_normal()) * b for b in basis)
        w1 = w1 + 1e-12 * rng.standard_normal(6)
        w2 = w2 + 1e-12 * rng.standard_normal(6)
        report = irr.rational_closure([w1, w2], mode="detect", height=100, tol=1e-9)
        hit = any(
            ex.primitive_vector(list(r)) in (delta, [-x for x in delta])
            for r in report.relations
        )
        recovered += hit
    generic = 0
    for _ in range(100):
        vecs = rng.uniform(-1, 1, size=(2, 6))
        if irr.is_fully_irrational(list(vecs), height=100, tol=1e-9).fully_irrational:
            generic += 1
    ok = recovered == 100 and generic >= 99
    _report(9, "irrationality-detection", ok, f"planted={recovered}/100, generic={generic}/100")


def test_10_cech_gluing():
    octa = cech.octahedron_nerve()
    z2 = cech.FiniteAbelianGroup((2,))
    ok = cech.cohomology(octa, z2, 2) == (2,)
    faces = octa.simplices_of_dim(2)
    fundamental = cech.Cochain.from_dict(octa, z2, 2, {faces[0]: (1,)})
    res = cech.solve_coboundary(fundamental)
    ok = ok and not res.solved and res.obstruction == (1,)
    # contractible nerve: every 2-cochain is a cocycle and is solved exactly
    tri = cech.full_triangle_nerve()
    for val in ((0,), (1,)):
        c = cech.Cochain.from_dict(tri, z2, 2, {(0, 1, 2): val})
        r = cech.solve_coboundary(c)
        ok = ok and r.solved and cech.coboundary(r.solution).sub(c).is_zero()
    # exhaustive solver-oracle agreement over Z/2 cochains, nerves <= 6 vertices
    import test_cech as tc

    agree = True
    for nerve in tc.NERVES_6:
        faces = nerve.simplices_of_dim(2)
        edges = nerve.simplices_of_dim(1)
        d1 = nerve.coboundary_matrix(1)
        image_rows = [
            [d1[r][j] % 2 for r in range(len(faces))] for j in range(len(edges))
        ]
        for bits in itertools.product((0, 1), repeat=len(faces)):
            c = cech.Cochain.from_dict(nerve, z2, 2, {s: (b,) for s, b in zip(faces, bits)})
            if not cech.is_cocycle(c):
                continue
            solved = cech.solve_coboundary(c).solved
            if solved != tc._gf2_in_rowspace(image_rows, list(bits)):
                agree = False
    ok = ok and agree
    _report(10, "cech-gluing", ok)


def test_11_hodge_decomposition():
    ok = True
    for seed in range(100):
        z = per.sample_period_point(K3, seed)
        dec = llv.hodge_decompose(K3, z)
        if dec.inertia_h11 != (1, 19) or dec.dims != (1, 20, 1):
            ok = False
            break
        g = per.gram_float(K3)
        h_sigma = float(np.real(dec.h20 @ g @ np.conj(dec.h20)))
        h_sbar = float(np.real(dec.h02 @ g @ np.conj(dec.h02)))
        if h_sigma <= 0 or h_sbar <= 0:
            ok = False
            break
    _report(11, "hodge-decomposition", ok)


def test_12_deligne_weights():
    plane = per.orient_three_plane(K3, _diag_vectors())
    closure = llv.so5_closure(RING, plane)
    z = per.period_point(
        K3,
        np.array(_diag_vectors()[0], dtype=float),
        np.array(_diag_vectors()[1], dtype=float),
    )
    x = llv.deligne_generator(closure, z)
    spec = llv.weight_spectrum(RING, x)[2]
    imag = sorted(v.imag for v in spec)
    real_ok = all(abs(v.real) < 1e-8 for v in spec)
    pattern_ok = (
        abs(imag[0] + 2) < 1e-8
        and abs(imag[-1] - 2) < 1e-8
        and all(abs(v) < 1e-8 for v in imag[1:-1])
    )
    _report(12, "deligne-weights", real_ok and pattern_ok)
