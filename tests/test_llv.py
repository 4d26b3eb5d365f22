import dataclasses
import gc
import importlib.util
import random
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgeom import exactlin as ex
from hkgeom import lattice as lat
from hkgeom import llv
from hkgeom import period as per
from hkgeom.config import DEFAULT_TOL
from hkgeom.errors import DomainError, HardLefschetzError, NumericalError

RING = llv.k3_ring()
L = RING.lattice

E1F1 = [0] * 22
E1F1[0] = E1F1[1] = 1
E2F2 = [0] * 22
E2F2[2] = E2F2[3] = 1
E3F3 = [0] * 22
E3F3[4] = E3F3[5] = 1


# -- exact ring arithmetic on coefficient vectors, the references below build on --------


def _cup_basis(ring, i: int, j: int) -> list[int]:
    """e_i e_j as a coefficient vector."""
    out = [0] * ring.dim
    for k, c in ring._table.get((i, j), {}).items():
        out[k] += c
    return out


def _cup_vector(ring, x, y) -> list:
    """Cup product of coefficient vectors, exact for int/Fraction input."""
    out = [0] * ring.dim
    for (i, j), terms in ring._table.items():
        xy = x[i] * y[j]
        if not xy:
            continue
        for k, c in terms.items():
            out[k] += xy * c
    return out


def _integrate(ring, x):
    return sum(xi * w for xi, w in zip(x, ring.integration))


def test_k3_ring_validates():
    RING.validate()
    assert RING.dim == 24
    assert RING.m == 1
    assert sorted(set(RING.degrees)) == [0, 2, 4]


def test_lefschetz_e_examples():
    e = llv.lefschetz_e(RING, E1F1)
    unit = np.zeros(24)
    unit[0] = 1.0
    image = e.matrix @ unit
    assert np.allclose(image, RING.embed_lattice_vector(E1F1))
    # eta cup eta = q(eta) pt = 2 pt
    eta_vec = RING.embed_lattice_vector(E1F1)
    assert np.allclose(e.matrix @ eta_vec, 2.0 * np.eye(24)[23])
    # pt maps to zero
    assert np.allclose(e.matrix @ np.eye(24)[23], 0.0)
    assert llv.lefschetz_e(RING, [0] * 22).matrix.sum() == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_lefschetz_e_refuses_non_finite_eta(value):
    # the CLI decoder refuses such a payload first; the library keeps its own check
    with pytest.raises(DomainError, match="eta must have finite coordinates"):
        llv.lefschetz_e(RING, [value] + [0] * 21)


def test_lefschetz_e_linearity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(-5, 6, size=22)
        b = rng.integers(-5, 6, size=22)
        ea = llv.lefschetz_e(RING, list(a)).matrix
        eb = llv.lefschetz_e(RING, list(b)).matrix
        eab = llv.lefschetz_e(RING, list(a + b)).matrix
        assert np.allclose(eab, ea + eb)


def test_grading_h():
    h = llv.grading_h(RING)
    diag = np.diag(h.matrix)
    assert diag[0] == 2.0  # H^0: eigenvalue 2m - 0
    assert all(d == 0.0 for d in diag[1:23])  # H^2
    assert diag[23] == -2.0  # H^4
    assert float(np.trace(h.matrix)) == 0.0


def test_lefschetz_f_and_sl2_relations():
    res = llv.sl2_residuals(RING, E1F1)
    assert all(v < 1e-10 for v in res.values())
    # closed form for the K3 ring: f(eta) = 2, f(pt) = (2/q) eta
    f = llv.lefschetz_f(RING, E1F1)
    eta_vec = RING.embed_lattice_vector(E1F1)
    assert np.allclose(f.matrix @ eta_vec, 2.0 * np.eye(24)[0])
    assert np.allclose(f.matrix @ np.eye(24)[23], eta_vec)


def test_lefschetz_f_isotropic_fails():
    iso = [0] * 22
    iso[0] = 1  # q = 0 in the hyperbolic block
    with pytest.raises(HardLefschetzError):
        llv.lefschetz_f(RING, iso)


def test_lefschetz_f_scaling():
    f1 = llv.lefschetz_f(RING, E1F1).matrix
    f3 = llv.lefschetz_f(RING, [3 * x for x in E1F1]).matrix
    assert np.allclose(f3, f1 / 3.0)


def random_positive_class(rng, lattice):
    """Random integer class with q > 0: hyperbolic boost plus small noise."""
    g = np.array(lattice.gram, dtype=np.int64)
    while True:
        v = rng.integers(-1, 2, size=lattice.rank)
        k = int(rng.integers(2, 7))
        block = 2 * int(rng.integers(0, 3))
        v[block] += k
        v[block + 1] += k
        if int(v @ g @ v) > 0:
            return [int(x) for x in v]


def test_sl2_residuals_random_positive_classes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        eta = random_positive_class(rng, L)
        assert L.q(eta) > 0
        res = llv.sl2_residuals(RING, eta)
        assert all(v < 1e-9 for v in res.values())


def test_single_triple_closes_to_sl2():
    e = llv.lefschetz_e(RING, E1F1)
    h = llv.grading_h(RING)
    f = llv.lefschetz_f(RING, E1F1)
    closure = llv.lie_closure([e, h, f])
    assert closure.dimension == 3
    assert closure.by_degree == {-2: 1, 0: 1, 2: 1}
    assert closure.residual < 1e-9


def test_so5_closure_dimension_ten():
    plane = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    closure = llv.so5_closure(RING, plane)
    assert closure.dimension == 10
    assert closure.by_degree == {-2: 3, 0: 4, 2: 3}
    assert closure.residual < 1e-8


def test_so5_closure_exact_oracle():
    # integer eta spanning the same positive 3-plane; exact ranks are the oracle
    gens = []
    hmat = [[int(x) for x in row] for row in llv.grading_h(RING).matrix]
    for eta in (E1F1, E2F2, E3F3):
        e_num = llv.lefschetz_e(RING, eta).matrix
        gens.append((2, [[int(x) for x in row] for row in e_num]))
        f_num = llv.lefschetz_f(RING, eta).matrix
        # exact f for the K3 ring: f(x) = (2/q) b(eta, x) unit, f(pt) = (2/q) eta
        q = L.q(eta)
        f_exact = [[Fraction(0)] * 24 for _ in range(24)]
        for j in range(22):
            f_exact[0][1 + j] = Fraction(2, q) * L.bform(eta, [int(a == j) for a in range(22)])
        for i in range(22):
            f_exact[1 + i][23] = Fraction(2, q) * eta[i]
        assert np.allclose(
            np.array([[float(x) for x in row] for row in f_exact]), f_num
        )
        gens.append((-2, f_exact))
    dim, by_degree = llv.lie_closure_exact(RING, gens)
    assert dim == 10
    assert by_degree == {-2: 3, 0: 4, 2: 3}


def test_so5_closure_stability_under_recombination():
    plane = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    base = llv.so5_closure(RING, plane)
    # permuted generators
    gens = []
    for eta in (E3F3, E1F1, E2F2):
        gens.append(llv.lefschetz_f(RING, eta))
        gens.append(llv.lefschetz_e(RING, eta))
    permuted = llv.lie_closure(gens)
    assert permuted.dimension == base.dimension == 10
    assert permuted.by_degree == base.by_degree
    # invertible recombination of the same span
    mix = [
        [1, 1, 0],
        [0, 1, 1],
        [1, 0, 1],
    ]
    gens2 = []
    for row in mix:
        eta = [row[0] * a + row[1] * b + row[2] * c for a, b, c in zip(E1F1, E2F2, E3F3)]
        gens2.append(llv.lefschetz_e(RING, eta))
        gens2.append(llv.lefschetz_f(RING, eta))
    recombined = llv.lie_closure(gens2)
    assert recombined.dimension == 10
    assert recombined.by_degree == base.by_degree


def test_so5_killing_form_signature():
    # real form certificate: Killing form of the 10-dimensional closure
    plane = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    closure = llv.so5_closure(RING, plane)
    mats = [op.matrix for op in closure.elements]
    n = len(mats)
    killing = np.zeros((n, n))
    basis_flat = np.array([m.ravel() for m in mats])
    gram = basis_flat @ basis_flat.T
    gram_inv = np.linalg.inv(gram)
    for i in range(n):
        for j in range(i, n):
            # ad(x) ad(y) traced through the orthonormalized basis coordinates
            acc = 0.0
            for k in range(n):
                xk = mats[i] @ mats[k] - mats[k] @ mats[i]
                yxk = mats[j] @ xk - xk @ mats[j]
                coords = gram_inv @ (basis_flat @ yxk.ravel())
                acc += coords[k]
            killing[i, j] = killing[j, i] = acc
    evals = np.linalg.eigvalsh(killing)
    pos = int((evals > 1e-8).sum())
    neg = int((evals < -1e-8).sum())
    assert (pos, neg) == (4, 6)  # noncompact so(4,1): 4 boosts, so(4) compact part


def test_fujiki_constant_k3():
    assert llv.fujiki_constant(RING) == 1


def test_fujiki_constant_scaled_integration():
    doubled = llv.CohomologyRing(
        m=RING.m,
        degrees=RING.degrees,
        products=RING.products,
        integration=tuple(2 * x for x in RING.integration),
        lattice_indices=RING.lattice_indices,
        lattice=RING.lattice,
    )
    assert llv.fujiki_constant(doubled) == Fraction(1, 2)


def test_fujiki_constant_detects_violation():
    # perturb one cup product pair: the relation cannot be fit
    products = list(RING.products)
    products.append((1, 2, 23, 1))  # spurious extra term
    broken = llv.CohomologyRing(
        m=RING.m,
        degrees=RING.degrees,
        products=tuple(products),
        integration=RING.integration,
        lattice_indices=RING.lattice_indices,
        lattice=RING.lattice,
    )
    with pytest.raises(NumericalError):
        llv.fujiki_constant(broken)


def _diag_point():
    return per.period_point(
        L, np.array(E1F1, dtype=float), np.array(E2F2, dtype=float)
    )


def test_deligne_generator_spectrum():
    plane = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    closure = llv.so5_closure(RING, plane)
    z = _diag_point()
    x = llv.deligne_generator(closure, z)
    spec = llv.weight_spectrum(RING, x)
    h0 = spec[0]
    assert len(h0) == 1 and abs(h0[0]) < 1e-8
    h4 = spec[4]
    assert len(h4) == 1 and abs(h4[0]) < 1e-8
    h2 = np.array(spec[2])
    imag = np.sort_complex(h2).imag
    assert abs(imag.min() + 2) < 1e-8
    assert abs(imag.max() - 2) < 1e-8
    near_zero = [v for v in h2 if abs(v) < 1e-8]
    assert len(near_zero) == 20
    # X(a + ib) = -2i (a + ib)
    sigma = RING.embed_lattice_vector(z.re) + 1j * RING.embed_lattice_vector(z.im)
    assert np.allclose(x.matrix @ sigma, -2j * sigma, atol=1e-8)


def test_deligne_generator_rejects_off_conic():
    plane = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    closure = llv.so5_closure(RING, plane)
    other = per.sample_period_point(L, 5)
    with pytest.raises(DomainError):
        llv.deligne_generator(closure, other)


def test_hodge_decompose_k3():
    z = _diag_point()
    dec = llv.hodge_decompose(L, z)
    assert dec.dims == (1, 20, 1)
    assert dec.inertia_h11 == (1, 19)
    # h_q(sigma, conj(sigma)) = 0: isotropy plus Hodge orthogonality
    g = per.gram_float(L)
    assert abs(dec.h20 @ g @ np.conj(dec.h02)) < 1e-10


def test_hodge_decompose_conjugate_swaps():
    z = _diag_point()
    dec = llv.hodge_decompose(L, z)
    dec_c = llv.hodge_decompose(L, z.conjugate())
    assert np.allclose(dec_c.h20, np.conj(dec.h20))
    assert np.allclose(dec_c.h02, np.conj(dec.h02))


def test_hodge_decompose_random_points():
    for seed in range(10):
        z = per.sample_period_point(L, seed)
        dec = llv.hodge_decompose(L, z)
        assert dec.dims == (1, 20, 1)
        assert dec.inertia_h11 == (1, 19)


def _complex_h11(lat_, z):
    """H^{1,1} built in complex arithmetic, as the oracle: the conjugated null rows of the pairings."""
    g = per.gram_float(lat_)
    sigma = z.re + 1j * z.im
    pairings = np.vstack([np.conj(sigma) @ g, sigma @ g])  # h(x, sigma) = x^T G conj(sigma)
    return np.conj(np.linalg.svd(pairings)[2][2:])


def _boosted(z, lam):
    """z moved by the isometry diag(lam, 1/lam) on the first U summand (e0, e1)."""
    scale = np.ones(z.lattice.rank)
    scale[:2] = lam, 1 / lam
    return per.period_point(z.lattice, scale * z.re, scale * z.im)


def _hodge_points():
    u3 = lat.standard_lattice("U3")
    points = [per.sample_period_point(L, s) for s in range(30)]
    points += [per.sample_period_point(u3, s) for s in range(10)]
    for lam in (10, 100, 1000):
        for s in range(5):
            try:
                points.append(_boosted(per.sample_period_point(L, s), lam))
            except DomainError:
                pass
    return points


def test_hodge_h11_is_the_real_complement_of_the_period_plane():
    points = _hodge_points()
    assert max(float(np.linalg.norm(z.plane_frame())) for z in points) > 500  # the boosts took
    for z in points:
        lattice_ = z.lattice
        n = lattice_.rank
        g = per.gram_float(lattice_)
        dec = llv.hodge_decompose(lattice_, z)
        h11 = dec.h11
        assert h11.dtype == np.float64 and h11.shape == (n - 2, n)
        assert np.allclose(h11 @ h11.T, np.eye(n - 2), rtol=0, atol=1e-12)
        sigma = z.re + 1j * z.im
        assert np.abs(h11 @ g @ np.vstack([sigma, np.conj(sigma)]).T).max() <= 1e-12
        ref = _complex_h11(lattice_, z)
        # the stacked bases have singular values sqrt(2) on the shared span; the
        # two float constructions differ by about 1e-13 at frame norm 900
        assert np.linalg.matrix_rank(np.vstack([h11, ref]), tol=1e-10) == n - 2
        herm = ref @ g @ np.conj(ref).T
        ref_evals = np.sort(np.linalg.eigvalsh((herm + np.conj(herm).T) / 2))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h11 @ g @ h11.T)), ref_evals, rtol=0, atol=1e-12)
        assert dec.inertia_h11 == (1, n - 3)
        assert dec.h20.tobytes() == sigma.tobytes()
        assert dec.h02.tobytes() == np.conj(sigma).tobytes()


@pytest.mark.parametrize(
    "re, im",
    [
        ({0: 1, 1: 1}, {0: 1, 1: -1}),  # q = 2 and -2
        ({0: 2, 1: 2}, {0: 1, 1: -1}),  # q = 8 and -2, so h_q(sigma, sigma) > 0
        ({2: 1, 3: 1}, {6: 1}),  # U + E8(-1)
        ({6: 1}, {8: 1}),  # negative definite
    ],
    ids=["split", "split-h-positive", "u-e8", "negative"],
)
def test_hodge_decompose_refuses_a_point_on_a_non_positive_plane(re, im):
    def vec(coords):
        v = np.zeros(L.rank)
        for i, x in coords.items():
            v[i] = x
        return v

    with pytest.raises(NumericalError):
        llv.hodge_decompose(L, per.PeriodPoint(L, vec(re), vec(im)))


def test_hodge_decompose_refuses_a_point_of_another_lattice():
    u3 = lat.standard_lattice("U3")
    with pytest.raises(DomainError):
        llv.hodge_decompose(lat.direct_sum(*[lat.rank_one(1)] * 3, *[lat.rank_one(-1)] * 3),
                            per.sample_period_point(u3, 0))


def test_full_llv_closure_dimension():
    closure = llv.full_llv_closure(RING)
    assert closure.dimension == 276  # dim so(24) = 24 * 23 / 2
    assert closure.by_degree == {-2: 22, 0: 232, 2: 22}
    assert closure.residual < 1e-8


def test_full_llv_closure_is_bracket_closed():
    # every pair, not the 400 sampled by lie_closure's own sweep; each degree
    # block is re-orthonormalized here, so the check does not trust the closure's basis
    closure = llv.full_llv_closure(RING)
    mats = np.array([op.matrix for op in closure.elements])
    degrees = np.array([op.degree for op in closure.elements])
    flat = mats.reshape(len(mats), -1)
    blocks = {d: np.linalg.qr(flat[degrees == d].T)[0].T for d in set(degrees.tolist())}
    worst = 0.0
    for x, dx in zip(mats, degrees):
        brackets = (x[None] @ mats - mats @ x[None]).reshape(len(mats), -1)
        for dy in blocks:
            b = brackets[degrees == dy]
            basis = blocks.get(dx + dy, np.zeros((0, flat.shape[1])))
            r = b - (b @ basis.T) @ basis
            norms = np.linalg.norm(b, axis=1)
            live = norms >= 1e-13
            if live.any():
                worst = max(worst, float((np.linalg.norm(r[live], axis=1) / norms[live]).max()))
    assert worst < 1e-8


def test_cup_vector_is_bilinear_expansion_of_cup_basis():
    rng = np.random.default_rng(5)
    n = RING.dim
    for trial in range(20):
        x = [0] * n
        y = [0] * n
        for vec in (x, y):
            for i in rng.choice(n, size=4, replace=False):
                num = int(rng.integers(-9, 10))
                vec[int(i)] = num if trial % 2 else Fraction(num, int(rng.integers(1, 8)))
        expected = [0] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k, c in enumerate(_cup_basis(RING, i, j)):
                        expected[k] += x[i] * y[j] * c
        assert _cup_vector(RING, x, y) == expected


# -- batched closure kernels against their one-at-a-time references -------------------


def _worklist_closure(generators, columns, tau=1e-8):
    """The worklist with neither screen nor pair skip: every bracket goes through the rank decision.

    An element of degree shift d is stored on the flat indices ``columns(d)``:
    the ring's support gives the support-coordinate path, every index the
    dense one. Generators are normalized as they are taken in; a bracket is
    projected as it is. Returns the elements as (degree, dense matrix) pairs.
    """
    n = generators[0].ring.dim
    stacks, elements = {}, []

    def try_add(r, degree):
        basis = stacks.get(degree)
        if basis is not None:
            r = r - basis.T @ (basis @ r)
            r -= basis.T @ (basis @ r)
        rnorm = np.linalg.norm(r)
        if rnorm <= tau:
            return False
        r = r / rnorm
        stacks[degree] = r[None] if basis is None else np.vstack([basis, r])
        mat = np.zeros(n * n)
        mat[columns(degree)] = r
        elements.append((degree, mat.reshape(n, n)))
        return True

    for g in generators:
        row = np.asarray(g.matrix, dtype=float).ravel()[columns(g.degree)]
        if np.linalg.norm(row):
            try_add(row / np.linalg.norm(row), g.degree)
    gen_degrees = [d for d, _ in elements]
    gen_mats = np.array([m for _, m in elements])
    queue = list(range(len(elements)))
    while queue:
        deg_x, x = elements[queue.pop(0)]
        brackets = (x[None, :, :] @ gen_mats - gen_mats @ x[None, :, :]).reshape(len(gen_mats), -1)
        for bracket, deg_g in zip(brackets, gen_degrees):
            if try_add(bracket[columns(deg_x + deg_g)], deg_x + deg_g):
                queue.append(len(elements) - 1)
    return elements


def _per_pair_residual(elements, blocks):
    """The residual sweep as a loop over pairs and basis rows; brackets are projected as they are."""
    count = len(elements)
    if count * (count - 1) // 2 <= llv._RESIDUAL_SAMPLES:
        pairs = [(i, j) for i in range(count) for j in range(i)]
    else:
        rng = np.random.default_rng(llv._RESIDUAL_SEED)
        a = rng.integers(0, count, llv._RESIDUAL_SAMPLES)
        b = rng.integers(0, count, llv._RESIDUAL_SAMPLES)
        pairs = list(zip(a, b))
    worst = 0.0
    for i, j in pairs:
        (di, x), (dj, y) = elements[i], elements[j]
        v = (x @ y - y @ x).ravel()
        for u in blocks.get(di + dj, []):
            v -= (u @ v) * u
        worst = max(worst, float(np.linalg.norm(v)))
    return worst


def _generic_planes(count):
    """Seeded positive 3-planes: the diagonal frame plus Gaussian noise."""
    g = per.gram_float(L)
    base = np.array([E1F1, E2F2, E3F3], dtype=float) / np.sqrt(2.0)
    planes = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        while True:
            frame = base + 0.1 * rng.standard_normal(base.shape)
            if np.linalg.eigvalsh(frame @ g @ frame.T)[0] > 0.5:
                planes.append(per.orient_three_plane(L, list(frame)))
                break
    return planes


@pytest.fixture(scope="module")
def closure_cases():
    """(generators, closure) for the K3 full closure, the diagonal so5, 5 generic so5,
    a degree-0 generator and three sl2 pairs on SQUARE."""
    seen = []
    real = llv.lie_closure

    def capture(generators, tol=DEFAULT_TOL):
        seen.append((generators, real(generators, tol)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(llv, "lie_closure", capture)
        llv.full_llv_closure(llv.k3_ring())  # a fresh ring: RING may already keep its algebra
        llv.so5_closure(RING, per.orient_three_plane(L, [E1F1, E2F2, E3F3]))
        for plane in _generic_planes(5):
            llv.so5_closure(RING, plane)
    # a degree-0 generator: one popped element yields new brackets in two degrees
    e1, f1 = llv.lefschetz_e(RING, E1F1), llv.lefschetz_f(RING, E1F1)
    f2 = llv.lefschetz_f(RING, E2F2).matrix
    mixed = llv.GradedOperator(RING, e1.matrix @ f2 - f2 @ e1.matrix, degree=0)
    capture([mixed, e1, f1])
    # an m = 2 ring, degrees 0..8
    capture([op(SQUARE, eta) for eta in ([1, 1, 1, 1], [2, 1, -1, 3], [1, -2, 5, 1]) for op in (llv.lefschetz_e, llv.lefschetz_f)])
    return seen


def test_screened_closure_is_bit_identical_to_unscreened(closure_cases):
    assert [c.dimension for _, c in closure_cases] == [276] + [10] * 6 + [6, 12]
    for generators, closure in closure_cases:
        support = closure.ring._support
        reference = _worklist_closure(generators, lambda d: support.get(d, np.arange(0)))
        assert [op.degree for op in closure.elements] == [d for d, _ in reference]
        for op, (_, m) in zip(closure.elements, reference):
            assert op.matrix.tobytes() == m.tobytes()


def test_support_coordinates_match_the_dense_path(closure_cases):
    # only the summation order of norms and projections differs from the dense worklist
    assert closure_cases[-1][1].by_degree == {-2: 4, 0: 4, 2: 4}
    for generators, closure in closure_cases:
        n = closure.ring.dim
        dense = _worklist_closure(generators, lambda d: np.arange(n * n))
        assert [op.degree for op in closure.elements] == [d for d, _ in dense]
        for op, (_, m) in zip(closure.elements, dense):
            assert np.abs(op.matrix - m).max() <= 1e-14


def _commuting_but_one_pair(count, a, b):
    """``count`` degree-0 elements on R^4 whose brackets all vanish but [x_a, x_b].

    The others are diagonal on the first two coordinates; x_a = E_23 and
    x_b = E_32 bracket to E_22 - E_33, at residual 1 against the basis
    {E_00, E_11, E_22}.
    """
    rng = np.random.default_rng(2)
    elements = [(0, np.diag([*rng.standard_normal(2), 0.0, 0.0])) for _ in range(count)]
    elements[a] = (0, np.eye(4)[:, [2]] @ np.eye(4)[[3]])
    elements[b] = (0, elements[a][1].T.copy())
    return elements, {0: np.eye(16)[[0, 5, 10]]}


def test_chunked_residual_sweep_matches_per_pair_loop(closure_cases):
    for _, closure in closure_cases:
        support = closure.ring._support
        elements = [(op.degree, op.matrix) for op in closure.elements]
        blocks = {}
        for d, m in elements:
            blocks.setdefault(d, []).append(m.ravel())
        assert abs(closure.residual - _per_pair_residual(elements, blocks)) <= 1e-14
        # without the last degree-0 row the residuals spread over [0, 2], so a
        # sweep that skips or misprojects pairs moves the maximum
        blocks[0] = blocks[0][:-1]
        rows = {d: np.array(b)[:, support[d]] for d, b in blocks.items()}
        swept = llv._residual_sweep(elements, rows, support)
        assert abs(swept - _per_pair_residual(elements, blocks)) <= 1e-14
    # the worst bracket is the last pair swept, so a sweep that stops short of
    # its last chunk reads 0 instead of 1; 28 elements give all 378 pairs in
    # tril order, whose last pair is (27, 26)
    whole = {0: np.arange(16)}
    elements, blocks = _commuting_but_one_pair(28, 27, 26)
    assert llv._residual_sweep(elements, blocks, whole) == pytest.approx(1.0, abs=1e-15)
    assert _per_pair_residual(elements, blocks) == pytest.approx(1.0, abs=1e-15)
    # past 400 pairs the sweep samples: put the bracket on the last sampled
    # pair that no earlier sample repeats
    for count in range(40, 80):
        rng = np.random.default_rng(llv._RESIDUAL_SEED)
        first = rng.integers(0, count, llv._RESIDUAL_SAMPLES)
        second = rng.integers(0, count, llv._RESIDUAL_SAMPLES)
        pairs = [{int(i), int(j)} for i, j in zip(first, second)]
        if len(pairs[-1]) == 2 and pairs[-1] not in pairs[:-1]:
            break
    else:
        raise AssertionError("no element count puts a fresh pair last")
    elements, blocks = _commuting_but_one_pair(count, int(first[-1]), int(second[-1]))
    assert llv._residual_sweep(elements, blocks, whole) == pytest.approx(1.0, abs=1e-15)
    assert _per_pair_residual(elements, blocks) == pytest.approx(1.0, abs=1e-15)


def test_full_closure_work_counters():
    closure = llv.full_llv_closure(RING)
    # 41 of the 44 generators are independent; 276 pops against them, less the
    # 41 * 42 / 2 = 861 pairs (g_p, g_j), j <= p, that a popped generator skips:
    # [g_p, g_j] = -[g_j, g_p] was formed when g_j was popped, and [g_p, g_p] = 0
    assert closure.brackets_formed == 276 * 41 - 861 == 10_455
    assert closure.brackets_tried == 238
    assert closure.brackets_accepted == 235 == closure.dimension - 41


def test_full_closure_memory_peak():
    # each element is stored once, as a support row, and the sweep brackets 32
    # pairs at a time: the dense path with its element copies peaked at 4.2 MiB
    # one-time costs stay outside the window: a first closure over another fresh
    # ring, and this ring's cached index arrays; this ring keeps no algebra yet,
    # so the call inside the window closes it instead of reading it
    llv.full_llv_closure(llv.k3_ring())
    ring = llv.k3_ring()
    for name in ("_support", "_lattice_terms", "_degree_blocks", "_h_diagonal"):
        getattr(ring, name)
    tracemalloc.start()
    try:
        llv.full_llv_closure(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * 2**20


def test_bracket_noise_below_tau_opens_no_degree():
    # [e_a, e_b] = 0; after e_a moves by 1e-12 on its own block the bracket is
    # about 1e-12, zero at tau = 1e-8 relative to the unit-norm operands. An
    # absolute 1e-13 cut accepted it and opened degrees +4 and -4.
    deg = np.array(RING.degrees)
    noise = np.where(deg[:, None] == deg[None, :] + 2, np.random.default_rng(0).standard_normal((24, 24)), 0.0)
    e1 = llv.lefschetz_e(RING, E1F1)
    e2 = llv.lefschetz_e(RING, E2F2)
    e1_moved = llv.GradedOperator(RING, e1.matrix + 1e-12 * noise, degree=2)
    bracket = e1_moved.matrix @ e2.matrix - e2.matrix @ e1_moved.matrix
    assert 1e-12 < np.linalg.norm(bracket) < 1e-11
    assert llv.lie_closure([e1_moved, e2]).by_degree == {2: 2}
    closure = llv.lie_closure([e1_moved, llv.lefschetz_f(RING, E1F1), e2, llv.lefschetz_f(RING, E2F2)])
    assert closure.by_degree == {-2: 2, 0: 2, 2: 2}
    assert closure.residual < 1e-8


def test_nearly_cancelling_bracket_is_not_amplified(closure_cases):
    # with the first full-closure generator moved by 1e-12 on its own block,
    # some brackets cancel to about 1e-12; divided by their own norm they
    # read as new directions, and the closure ran to 576
    generators = list(closure_cases[0][0])
    e0 = generators[0]
    deg = np.array(RING.degrees)
    noise = np.where(deg[:, None] == deg[None, :] + 2, np.random.default_rng(0).standard_normal((24, 24)), 0.0)
    generators[0] = llv.GradedOperator(RING, e0.matrix + 1e-12 * noise, degree=e0.degree)
    closure = llv.lie_closure(generators)
    assert closure.dimension == 276
    assert closure.by_degree == {-2: 22, 0: 232, 2: 22}
    assert closure.residual < 1e-8


def test_closure_cap_still_raises(monkeypatch):
    monkeypatch.setattr(llv, "_CLOSURE_CAP", 100)
    with pytest.raises(NumericalError):
        llv.full_llv_closure(llv.k3_ring())  # RING may keep an algebra closed under the real cap


def _u_block_ring(dim):
    """A ring of any dim >= 4: unit, dim - 2 degree-2 classes with a U block first, point class."""
    products = [(0, i, i, 1) for i in range(dim)] + [(i, 0, i, 1) for i in range(1, dim)]
    return llv.CohomologyRing(
        m=1,
        degrees=(0,) + (2,) * (dim - 2) + (4,),
        products=tuple(products) + ((1, 2, dim - 1, 1), (2, 1, dim - 1, 1)),
        integration=(0,) * (dim - 1) + (1,),
        lattice_indices=(1, 2),
        lattice=lat.hyperbolic_plane(),
    )


# 8 * 472^2 * 600 bytes is within the 2^30 budget, 8 * 473^2 * 600 is past it
LARGEST_ADMITTED_DIM = 472


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 20_000))
@example(210)
@example(324)
@example(LARGEST_ADMITTED_DIM)
@example(LARGEST_ADMITTED_DIM + 1)
def test_dense_budget_refuses_exactly_the_rings_past_it(dim):
    # OG6 (210) and K3^[2] (324) are admitted; a larger ring is refused before any dim x dim array exists
    ring = _u_block_ring(dim)
    builders = (llv.grading_h, lambda r: llv.lefschetz_e(r, [1, 0]), lambda r: llv.lefschetz_f(r, [1, 1]))
    for build in builders:
        if dim <= LARGEST_ADMITTED_DIM:
            assert build(ring).matrix.shape == (dim, dim)
        else:
            with pytest.raises(DomainError, match=f"dim {dim} .* above the budget of {2**30} bytes"):
                build(ring)


def _closure_fields(closure):
    return (
        closure.dimension,
        closure.by_degree,
        closure.residual,
        (closure.brackets_formed, closure.brackets_tried, closure.brackets_accepted),
        [(op.degree, op.matrix.tobytes()) for op in closure.elements],
    )


def test_ring_keeps_its_full_algebra_per_tolerances(monkeypatch):
    calls = []
    real = llv.lie_closure

    def counted(generators, tol=DEFAULT_TOL):
        calls.append(tol)
        return real(generators, tol)

    monkeypatch.setattr(llv, "lie_closure", counted)
    ring = llv.k3_ring()
    first = llv.full_llv_closure(ring)
    second = llv.full_llv_closure(ring)
    assert calls == [DEFAULT_TOL]
    assert _closure_fields(second) == _closure_fields(first)
    assert first.by_degree == {-2: 22, 0: 232, 2: 22}
    # another tau is another closure; the default entry stays as it was
    loose = DEFAULT_TOL.replace(lie=1e-7)
    llv.full_llv_closure(ring, loose)
    assert calls == [DEFAULT_TOL, loose]
    assert _closure_fields(llv.full_llv_closure(ring)) == _closure_fields(first)
    assert len(calls) == 2
    # a new ring with equal data starts empty and closes anew, to the same algebra
    fresh = llv.k3_ring()
    assert fresh == ring
    assert _closure_fields(llv.full_llv_closure(fresh)) == _closure_fields(first)
    assert calls == [DEFAULT_TOL, loose, DEFAULT_TOL]


def test_kept_algebra_hands_out_no_shared_mutable_state():
    ring = llv.k3_ring()
    first = llv.full_llv_closure(ring)
    for op in (first.elements[0], first.elements[-1]):
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        first.degree_zero_basis()[0] *= 2
    first.by_degree[0] = 0
    first.by_degree[4] = 1
    second = llv.full_llv_closure(ring)
    assert second.by_degree == {-2: 22, 0: 232, 2: 22}
    assert second.dimension == 276


def test_kept_algebra_does_not_pin_its_ring():
    # the memo holds no reference back to its ring, so no cycle keeps a closed ring alive
    ring = llv.k3_ring()
    assert llv.full_llv_closure(ring).dimension == 276
    alive = weakref.ref(ring)
    gc.disable()
    try:
        del ring
        assert alive() is None
    finally:
        gc.enable()


def _e_by_loop(ring, eta):
    """Cup product with eta from the structure constants, one term at a time in lattice-class order."""
    expected = np.zeros((ring.dim, ring.dim))
    for a, idx in enumerate(ring.lattice_indices):
        for j in range(ring.dim):
            for k, c in ring._table.get((idx, j), {}).items():
                expected[k, j] += eta[a] * c
    return expected


def test_lefschetz_e_matches_structure_constant_loop():
    rng = np.random.default_rng(11)
    for _ in range(10):
        eta = [int(x) for x in rng.integers(-9, 10, size=22)]
        assert np.array_equal(llv.lefschetz_e(RING, eta).matrix, _e_by_loop(RING, eta))


def test_lefschetz_f_matches_per_position_construction():
    rng = np.random.default_rng(13)
    h_op = llv.grading_h(RING).matrix
    positions = [(i, j) for j in range(24) for i in range(24) if RING.degrees[i] == RING.degrees[j] - 2]
    for eta in [E1F1] + [random_positive_class(rng, L) for _ in range(5)]:
        e_op = llv.lefschetz_e(RING, eta).matrix
        cols = []
        for i, j in positions:
            unit = np.zeros((24, 24))
            unit[i, j] = 1.0
            cols.append((e_op @ unit - unit @ e_op).ravel())
        sol, *_ = np.linalg.lstsq(np.array(cols).T, (-h_op).ravel(), rcond=None)
        expected = np.zeros((24, 24))
        for (i, j), v in zip(positions, sol):
            expected[i, j] = v
        assert np.abs(llv.lefschetz_f(RING, eta).matrix - expected).max() <= 1e-12


# -- per-degree sl2 completion against the dense Kronecker system ------------------------


def _dense_lefschetz_f(ring, eta):
    """f from one least-squares system over every degree -2 entry: (f, residual of [e, f] = -h)."""
    e_op = llv.lefschetz_e(ring, eta).matrix
    h_op = llv.grading_h(ring).matrix
    n = ring.dim
    positions = [(i, j) for j in range(n) for i in range(n) if ring.degrees[i] == ring.degrees[j] - 2]
    rows = np.array([i for i, _ in positions])
    cols = np.array([j for _, j in positions])
    # column p is [e, E_ij] flattened: e[:, i] placed in column j, minus e[j, :] placed in row i
    span = np.arange(n)[:, None]
    p = np.arange(len(positions))
    a_mat = np.zeros((n * n, len(positions)))
    a_mat[span * n + cols, p] = e_op[:, rows]
    a_mat[rows * n + span, p] -= e_op[cols, :].T
    sol, *_ = np.linalg.lstsq(a_mat, (-h_op).ravel(), rcond=None)
    f = np.zeros((n, n))
    f[rows, cols] = sol
    return f, float(np.linalg.norm(a_mat @ sol + h_op.ravel()))


def _surface_type_ring(lattice):
    """m = 1 ring like the K3 ring, on any lattice: unit, the lattice classes, point."""
    n = lattice.rank
    top = n + 1
    products = [(0, i, i, 1) for i in range(n + 2)] + [(i, 0, i, 1) for i in range(1, n + 2)]
    products += [(1 + a, 1 + b, top, g) for a, row in enumerate(lattice.gram) for b, g in enumerate(row) if g]
    return llv.CohomologyRing(
        m=1,
        degrees=(0,) + (2,) * n + (4,),
        products=tuple(products),
        integration=(0,) * top + (1,),
        lattice_indices=tuple(range(1, n + 1)),
        lattice=lattice,
    )


def _cp4_ring():
    """H*(CP^4): h^0..h^4 in degrees 0..8, q(a h) = a^2, so m = 2 and c = 1."""
    products = tuple((i, j, i + j, 1) for i in range(5) for j in range(5) if i + j <= 4)
    return llv.CohomologyRing(
        m=2,
        degrees=(0, 2, 4, 6, 8),
        products=products,
        integration=(0, 0, 0, 0, 1),
        lattice_indices=(1,),
        lattice=lat.rank_one(1),
    )


def _surface_square_ring():
    """H*(S x S) for S with H^2 = U: dim 16, degrees 0..8, lattice U + U on x1, y1, 1x, 1y."""
    deg = (0, 2, 2, 4)  # basis 1, x, y, pt of S, with x y = y x = pt
    table = {(0, s): {s: 1} for s in range(4)}
    table.update({(s, 0): {s: 1} for s in range(1, 4)})
    table[1, 2] = table[2, 1] = {3: 1}
    products = tuple(
        (4 * i1 + j1, 4 * i2 + j2, 4 * k1 + k2, c1 * c2)
        for (i1, i2), out1 in table.items()
        for (j1, j2), out2 in table.items()
        for k1, c1 in out1.items()
        for k2, c2 in out2.items()
    )
    u = lat.hyperbolic_plane()
    return llv.CohomologyRing(
        m=2,
        degrees=tuple(deg[i] + deg[j] for i in range(4) for j in range(4)),
        products=products,
        integration=(0,) * 15 + (1,),
        lattice_indices=(4, 8, 1, 2),
        lattice=lat.direct_sum(u, u),
    )


CP4 = _cp4_ring()
SQUARE = _surface_square_ring()


def test_m2_test_rings_validate():
    for ring in (CP4, SQUARE):
        ring.validate()
    assert sorted(set(SQUARE.degrees)) == [0, 2, 4, 6, 8] and SQUARE.dim == 16


def _validate_by_triples(ring):
    """The exhaustive check: every pair for commutativity, every basis triple for
    associativity, the whole pairing matrix at once."""
    n = ring.dim
    top = 4 * ring.m
    if any(ring.integration[i] and ring.degrees[i] != top for i in range(n)):
        raise DomainError("integration supported off the top degree")
    for (i, j), terms in ring._table.items():
        for k, c in terms.items():
            if c and ring.degrees[k] != ring.degrees[i] + ring.degrees[j]:
                raise DomainError("structure constants break the grading")
    for i in range(n):
        for j in range(n):
            sign = (-1) ** (ring.degrees[i] * ring.degrees[j])
            if _cup_basis(ring, i, j) != [sign * x for x in _cup_basis(ring, j, i)]:
                raise DomainError("graded commutativity fails")
    basis = [[int(a == b) for b in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(n):
            ij = _cup_basis(ring, i, j)
            for k in range(n):
                lhs = _cup_vector(ring, ij, basis[k])
                rhs = _cup_vector(ring, basis[i], _cup_basis(ring, j, k))
                if lhs != rhs:
                    raise DomainError(f"associativity fails on ({i},{j},{k})")
    pairing = [[_integrate(ring, _cup_basis(ring, i, j)) for j in range(n)] for i in range(n)]
    if ex.det(ex.frmat(pairing)) == 0:
        raise DomainError("Poincare pairing is degenerate")


def _verdict(check, ring):
    try:
        check(ring)
    except DomainError as err:
        return str(err)
    return None


def _broken_rings():
    """One ring per refusal, each valid but for one change."""
    k3_point = RING.dim - 1
    cp4_products = [(i, j, k, 2 if {i, j} == {1, 3} else c) for i, j, k, c in CP4.products]
    surface = dataclasses.replace(  # an extra degree-4 class nothing pairs with
        _surface_type_ring(lat.hyperbolic_plane()),
        degrees=(0, 2, 2, 4, 4),
        integration=(0, 0, 0, 1, 0),
    )
    return {
        "off-top integral": dataclasses.replace(RING, integration=(1,) + RING.integration[1:]),
        "grading": dataclasses.replace(RING, products=RING.products + ((1, 2, 1, 1),)),
        "commutativity": dataclasses.replace(RING, products=RING.products + ((1, 2, k3_point, 1),)),
        "associativity": dataclasses.replace(CP4, products=tuple(cp4_products)),  # h h^3 = 2 h^4, h^2 h^2 = h^4
        "null pairing": dataclasses.replace(CP4, integration=(0,) * 5),
        "unpaired class": surface,
    }


def _mutated_rings(count, seed):
    """CP4 and SQUARE with one constant changed, dropped, or added in both orders."""
    rng = random.Random(seed)
    for _ in range(count):
        base = rng.choice([CP4, SQUARE])
        products = list(base.products)
        i, j, k, c = products.pop(rng.randrange(len(products)))
        kind = rng.randrange(3)
        if kind == 0:
            products.append((i, j, k, c + rng.choice([-1, 1, 2])))
        elif kind == 1:
            a, b = rng.randrange(base.dim), rng.randrange(base.dim)
            targets = [t for t in range(base.dim) if base.degrees[t] == base.degrees[a] + base.degrees[b]]
            if targets:
                t = rng.choice(targets)
                products += [(i, j, k, c), (a, b, t, 1)] + ([(b, a, t, 1)] if a != b else [])
        yield dataclasses.replace(base, products=tuple(products))


def test_validate_agrees_with_the_triple_loop():
    for ring in (RING, CP4, SQUARE):
        assert _verdict(llv.CohomologyRing.validate, ring) is None
        assert _verdict(_validate_by_triples, ring) is None
    for ring in _mutated_rings(120, seed=3):
        assert _verdict(llv.CohomologyRing.validate, ring) == _verdict(_validate_by_triples, ring)
    verdicts = {}
    for name, ring in _broken_rings().items():
        verdicts[name] = _verdict(llv.CohomologyRing.validate, ring)
        assert verdicts[name] == _verdict(_validate_by_triples, ring), name
    assert verdicts == {
        "off-top integral": "integration supported off the top degree",
        "grading": "structure constants break the grading",
        "commutativity": "graded commutativity fails",
        "associativity": "associativity fails on (1,1,2)",
        "null pairing": "Poincare pairing is degenerate",
        "unpaired class": "Poincare pairing is degenerate",
    }


def test_rank_200_surface_type_ring_validates():
    # the ring of the rank-200 memory test: 202 basis elements, 603 constants
    ring = _surface_type_ring(lat.direct_sum(*[lat.hyperbolic_plane()] * 100))
    assert (ring.dim, len(ring.products)) == (202, 603)
    ring.validate()


@pytest.mark.parametrize("ring", [RING, CP4], ids=["k3", "cp4"])
@pytest.mark.parametrize("shift", [-2, 0, 2])
def test_graded_operator_refuses_wrong_shape_and_off_block_entries(ring, shift):
    n = ring.dim
    for shape in [(n, n + 1), (n - 1, n - 1), (n,)]:
        with pytest.raises(DomainError):
            llv.GradedOperator(ring, np.zeros(shape), degree=shift)
    deg = np.array(ring.degrees)
    on_block = deg[:, None] == deg[None, :] + shift
    llv.GradedOperator(ring, on_block.astype(float), degree=shift)  # every block entry may be nonzero
    off = np.argwhere(~on_block)
    assert len(off)
    for (i, j), value in zip(off, [1.0, np.nan, -1e-300] * len(off)):
        bad = on_block.astype(float)
        bad[i, j] = value
        with pytest.raises(DomainError):
            llv.GradedOperator(ring, bad, degree=shift)


PLANTED_VALUES = [1.0, -2.5, -1e-300, np.inf, np.nan, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["k3", "cp4", "square"]),
    st.integers(-9, 9),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(PLANTED_VALUES)), max_size=4),
)
def test_graded_operator_off_support_check_is_the_nonzero_rule(name, shift, seed, planted):
    # the rule written out: some nonzero entry (i, j), NaN included, has deg i != deg j + shift
    ring = {"k3": RING, "cp4": CP4, "square": SQUARE}[name]
    n = ring.dim
    deg = np.array(ring.degrees)
    on_block = deg[:, None] == deg[None, :] + shift
    mat = np.where(on_block, np.random.default_rng(seed).standard_normal((n, n)), 0.0) if seed else np.zeros((n, n))
    for position, value in planted:
        mat.flat[position % (n * n)] = value
    rows, cols = mat.nonzero()
    if (deg[rows] != deg[cols] + shift).any():
        with pytest.raises(DomainError, match="matrix entries off the degree-shift blocks"):
            llv.GradedOperator(ring, mat, degree=shift)
    else:
        assert llv.GradedOperator(ring, mat, degree=shift).degree == shift


def test_graded_operator_stores_its_validated_float_array():
    triple = [llv.lefschetz_e(RING, E1F1), llv.grading_h(RING), llv.lefschetz_f(RING, E1F1)]
    listed = [llv.GradedOperator(RING, op.matrix.tolist(), degree=op.degree) for op in triple]
    for op, from_list in zip(triple, listed):
        assert type(from_list.matrix) is np.ndarray and from_list.matrix.dtype == np.float64
        assert np.array_equal(from_list.matrix, op.matrix)
    assert llv.bracket_residuals(*listed) == llv.bracket_residuals(*triple)
    as_array = np.zeros((RING.dim, RING.dim))
    assert llv.GradedOperator(RING, as_array, degree=0).matrix is as_array


def test_lefschetz_e_float_classes_match_loop_on_all_rings():
    # the scatter adds each entry's terms in lattice-class order, as the loop does, so float classes agree exactly
    rng = np.random.default_rng(19)
    for ring in (RING, CP4, SQUARE):
        for _ in range(5):
            eta = list(rng.standard_normal(ring.lattice.rank))
            assert np.array_equal(llv.lefschetz_e(ring, eta).matrix, _e_by_loop(ring, eta))


def test_lefschetz_f_per_degree_matches_dense_oracle():
    rng = np.random.default_rng(17)
    cases = [(RING, E1F1)] + [(RING, random_positive_class(rng, L)) for _ in range(4)]
    cases += [(CP4, [1]), (CP4, [-3]), (SQUARE, [1, 1, 1, 1]), (SQUARE, [2, 1, -1, 3]), (SQUARE, [1, -2, 5, 1])]
    for ring, eta in cases:
        expected, residual = _dense_lefschetz_f(ring, eta)
        assert residual < 1e-9
        f = llv.lefschetz_f(ring, eta).matrix
        assert np.abs(f - expected).max() <= 1e-12
        e, h = llv.lefschetz_e(ring, eta).matrix, llv.grading_h(ring).matrix
        assert np.abs(e @ f - f @ e + h).max() < 1e-10
        assert np.abs(h @ f - f @ h - 2 * f).max() < 1e-10


def test_lefschetz_f_degenerate_class_on_product_fails():
    # eta = x + y on the first factor only: e^4 kills H^0, so hard Lefschetz fails
    assert _dense_lefschetz_f(SQUARE, [1, 1, 0, 0])[1] > 1e-3
    with pytest.raises(HardLefschetzError):
        llv.lefschetz_f(SQUARE, [1, 1, 0, 0])
    with pytest.raises(HardLefschetzError):
        llv.lefschetz_f(CP4, [0])


def test_lefschetz_f_memory_stays_per_degree_at_rank_200():
    ring = _surface_type_ring(lat.direct_sum(*[lat.hyperbolic_plane()] * 100))
    eta = [1, 1] + [0] * 198
    n = ring.dim
    dense_bytes = n * n * (2 * ring.lattice.rank) * 8  # the 40,804 x 400 float system alone
    cap = 4 * 2**20  # the ring's first e and the per-degree solve peak near 2.7 MiB
    assert dense_bytes > 30 * cap
    tracemalloc.start()
    try:
        llv.lefschetz_e(ring, eta)  # the first call builds the ring's cached index arrays
        f = llv.lefschetz_f(ring, eta).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap
    # closed form, as on the K3 ring: f(eta) = 2 unit, f(pt) = (2 / q(eta)) eta
    assert np.allclose(f @ ring.embed_lattice_vector(eta), 2.0 * np.eye(n)[0])
    assert np.allclose(f @ np.eye(n)[n - 1], ring.embed_lattice_vector(eta))


# -- stacked sl2 completion ---------------------------------------------------------------


def _surface_f(ring, eta):
    """Closed form of f on a surface-type ring: f(x) = (2 q(eta, x) / q(eta)) unit on H^2, f(pt) = (2 / q(eta)) eta."""
    g = np.array(ring.lattice.gram, dtype=float)
    eta = np.array(eta, dtype=float)
    q = eta @ g @ eta
    f = np.zeros((ring.dim, ring.dim))
    f[0, 1:-1] = 2 * (g @ eta) / q
    f[1:-1, -1] = 2 * eta / q
    return f


def _stack_f(ring, classes):
    return llv._lefschetz_f(ring, np.array([llv.lefschetz_e(ring, eta).matrix for eta in classes]))


def test_stacked_lefschetz_f_matches_the_dense_oracle():
    rng = np.random.default_rng(23)
    k3_classes = [E1F1] + [random_positive_class(rng, L) for _ in range(21)]
    cases = [(RING, k3_classes[:1]), (RING, k3_classes[:3]), (RING, k3_classes)]
    cases += [(CP4, [[1]]), (CP4, [[1], [-3], [2]])]
    cases += [(SQUARE, [[2, 1, -1, 3]]), (SQUARE, [[1, 1, 1, 1], [2, 1, -1, 3], [1, -2, 5, 1]])]
    assert [len(c) for _, c in cases[:3]] == [1, 3, 22]
    for ring, classes in cases:
        stacked = _stack_f(ring, classes)
        assert stacked.shape == (len(classes), ring.dim, ring.dim)
        for eta, f in zip(classes, stacked):
            expected, residual = _dense_lefschetz_f(ring, eta)
            assert residual < 1e-9
            assert np.abs(f - expected).max() <= 1e-12
            assert np.array_equal(llv.lefschetz_f(ring, eta).matrix, _stack_f(ring, [eta])[0])
    # the closed form the dense oracle agrees with on K3 stands in for it at rank 200,
    # where its 40,804 x 400 system would take 130 MB
    for eta in k3_classes[:3]:
        assert np.abs(_surface_f(RING, eta) - _dense_lefschetz_f(RING, eta)[0]).max() <= 1e-12
    big = _surface_type_ring(lat.direct_sum(*[lat.hyperbolic_plane()] * 100))
    classes = [[1, 1] + [0] * 198, [3, 1] + [0] * 196 + [1, -1], list(rng.integers(1, 4, size=200))]
    for eta, f in zip(classes, _stack_f(big, classes)):
        assert np.abs(f - _surface_f(big, eta)).max() <= 1e-12


def test_stacked_lefschetz_f_raises_on_one_degenerate_member():
    # [1, 1, 0, 0] lives on the first factor only, so e^4 kills H^0 (see above)
    good = [[1, 1, 1, 1], [2, 1, -1, 3]]
    _stack_f(SQUARE, good)
    for at in range(3):
        classes = good[:at] + [[1, 1, 0, 0]] + good[at:]
        with pytest.raises(HardLefschetzError, match="hard Lefschetz fails"):
            _stack_f(SQUARE, classes)


def _unbalanced_ring(m, degrees):
    """An unvalidated ring on U, the lattice at the first two degree-2 indices: only the unit and U's cup product."""
    n = len(degrees)
    a = degrees.index(2)
    products = [(0, i, i, 1) for i in range(n)] + [(i, 0, i, 1) for i in range(1, n)]
    products += [(a, a + 1, degrees.index(4), 1), (a + 1, a, degrees.index(4), 1)]
    return llv.CohomologyRing(
        m=m,
        degrees=degrees,
        products=tuple(products),
        integration=tuple(int(d == 4 * m) for d in degrees),
        lattice_indices=(a, a + 1),
        lattice=lat.hyperbolic_plane(),
    )


@pytest.mark.parametrize(
    "m,degrees",
    [(1, (0, 2, 2, 4, 4)), (1, (0, 0, 2, 2, 4)), (2, (0, 2, 2, 4, 6, 6, 8))],
    ids=["H4-larger-than-H0", "H0-larger-than-H4", "H4-smaller-than-H2"],
)
def test_block_sizes_without_an_sl2_raise_hard_lefschetz(m, degrees):
    # |H^{4m-k+2}| != |H^{k-2}|, or H^k smaller than H^{k-2} below the middle: no f exists
    ring = _unbalanced_ring(m, degrees)
    sizes = [len(b) for b in ring._degree_blocks]
    with pytest.raises(HardLefschetzError, match=re.escape(f"sizes {sizes} admit no sl2")):
        llv.lefschetz_f(ring, [1, 1])


# -- so(5) closures on the stacked f against the per-class f ----------------------------


def _per_class_f(ring, eta):
    """f_eta one class at a time, as the unstacked completion built it: per degree one
    least-squares solve against [e | ker e^(2m-k+1)], the kernel rank at matrix_rank's tolerance."""
    e_op = llv.lefschetz_e(ring, eta).matrix
    h_op = llv.grading_h(ring).matrix
    blocks = ring._degree_blocks
    f = np.zeros_like(e_op)
    for k in range(2, len(blocks)):
        lo, hi = blocks[k - 2], blocks[k]
        if not (len(lo) and len(hi)):
            continue
        b = e_op[hi[:, None], lo]
        r = e_op[lo] @ f[:, lo] + h_op[lo[:, None], lo]
        if k <= 2 * ring.m:
            power = e_op[:, hi]
            for _ in range(2 * ring.m - k):
                power = e_op @ power
            _, s, vt = np.linalg.svd(power)
            rank = int((s > s.max(initial=0) * max(power.shape) * np.finfo(float).eps).sum())
            b = np.hstack([b, vt[rank:].T])
            r = np.hstack([r, np.zeros((len(lo), len(hi) - rank))])
        f[lo[:, None], hi] = np.linalg.lstsq(b.T, r.T, rcond=None)[0].T
    return f


def test_so5_closures_on_the_stacked_f_match_the_per_class_f():
    diagonal = per.orient_three_plane(L, [E1F1, E2F2, E3F3])
    for plane in [diagonal] + _generic_planes(20):
        gens = []
        for eta in plane.frame:
            gens += [llv.lefschetz_e(RING, eta), llv.GradedOperator(RING, _per_class_f(RING, eta), degree=-2)]
        reference = llv.lie_closure(gens)
        closure = llv.so5_closure(RING, plane)
        assert closure.dimension == 10
        assert closure.by_degree == {-2: 3, 0: 4, 2: 3}
        counters = (closure.brackets_formed, closure.brackets_tried, closure.brackets_accepted)
        assert counters == (reference.brackets_formed, reference.brackets_tried, reference.brackets_accepted)
        if plane is diagonal:
            assert counters == (39, 4, 4)
        assert [op.degree for op in closure.elements] == [op.degree for op in reference.elements]
        for op, ref in zip(closure.elements, reference.elements):
            assert np.abs(op.matrix - ref.matrix).max() <= 1e-14


# -- batched Fujiki fit against the per-sample loop ----------------------------------------


def _fujiki_loop(ring, samples=None, seed=0):
    """The Fujiki fit one sample at a time with cup_vector: the constant, or the error message."""
    n = ring.lattice.rank
    count = samples if samples is not None else max(2 * n * n, 32)
    rng = np.random.default_rng(seed)
    c_val = witness = None
    for _ in range(count):
        a = [int(x) for x in rng.integers(-9, 10, size=n)]
        if not any(a):
            continue
        vec = [0] * ring.dim
        for i, idx in enumerate(ring.lattice_indices):
            vec[idx] = a[i]
        power = vec
        for _k in range(2 * ring.m - 1):
            power = _cup_vector(ring, power, vec)
        integral = _integrate(ring, power)
        qm = Fraction(ring.lattice.q(a)) ** ring.m
        if integral == 0:
            if qm != 0:
                return f"Fujiki relation violated on {a}"
            continue
        c_here = qm / integral
        if c_val is None:
            c_val, witness = c_here, a
        elif c_here != c_val:
            return f"Fujiki relation violated: {witness} gives {c_val}, {a} gives {c_here}"
    return c_val if c_val is not None else "no informative samples for the Fujiki fit"


def _fujiki_batched(ring, samples=None, seed=0):
    try:
        return llv.fujiki_constant(ring, samples, seed)
    except NumericalError as err:
        return str(err)


def test_fujiki_batched_matches_loop_on_k3_seeds():
    for seed in range(10):
        assert _fujiki_batched(RING, seed=seed) == _fujiki_loop(RING, seed=seed) == 1


def test_fujiki_batched_matches_loop_on_other_rings():
    broken = dataclasses.replace(RING, products=RING.products + ((1, 2, 23, 1),))
    cases = [
        (dataclasses.replace(RING, integration=tuple(2 * x for x in RING.integration)), Fraction(1, 2)),
        (CP4, 1),
        (broken, None),
        (SQUARE, None),  # not hyperkaehler: integral(a^4) = 6 q1 q2 is not a multiple of (q1 + q2)^2
        (dataclasses.replace(RING, integration=(0,) * 24), None),  # every integral 0 while q(a) is not
    ]
    for ring, expected in cases:
        for seed in (0, 1, 2):
            got = _fujiki_batched(ring, samples=300, seed=seed)
            assert got == _fujiki_loop(ring, samples=300, seed=seed)
            if expected is None:
                assert got.startswith("Fujiki relation violated")
            else:
                assert got == expected
    assert _fujiki_batched(broken).startswith("Fujiki relation violated: [")
    for samples in (0, -1):
        assert _fujiki_batched(RING, samples=samples) == _fujiki_loop(RING, samples=samples)
        assert _fujiki_loop(RING, samples=samples) == "no informative samples for the Fujiki fit"


def test_fujiki_batched_takes_exact_ints_past_int64():
    # structure constants of size 2^70 on the point class: every integral exceeds
    # int64, so only the dtype=object columns can return c = 2^-70 exactly
    big = 2**70
    products = tuple((i, j, k, c * big if k == 23 and i and j else c) for i, j, k, c in RING.products)
    huge = dataclasses.replace(RING, products=products)
    assert _fujiki_batched(huge, samples=200) == _fujiki_loop(huge, samples=200) == Fraction(1, big)
    broken = dataclasses.replace(huge, products=products + ((1, 2, 23, big + 1),))
    message = _fujiki_batched(broken, samples=200, seed=4)
    assert message == _fujiki_loop(broken, samples=200, seed=4)
    assert message.startswith("Fujiki relation violated")


# -- the demo script -----------------------------------------------------------------------


def test_llv_demo_prints_dimensions_and_work_counters(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "llv_demo.py"
    spec = importlib.util.spec_from_file_location("llv_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    out = capsys.readouterr().out
    assert "3-plane closure : dim 10, by degree {-2: 3, 0: 4, 2: 3}" in out
    # 10 pops against 6 generators, less the 6 * 7 / 2 skipped generator pairs
    assert "brackets formed 39, screened into the rank test 4, accepted 4" in out
    assert "Killing form    : signature (4, 6)" in out
    assert "full closure    : dim 276, by degree {-2: 22, 0: 232, 2: 22}" in out
    assert "brackets formed 10455, screened into the rank test 238, accepted 235" in out
