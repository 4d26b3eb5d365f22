import math
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeom import exactlin as ex
from hkgeom import lattice as lat
from hkgeom import period as per
from hkgeom.errors import DomainError


U = lat.hyperbolic_plane()
U3 = lat.standard_lattice("U3")
K3 = lat.k3_lattice()


def test_signature_examples():
    assert lat.signature(U) == (1, 1)
    assert lat.signature(lat.QuadLattice.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, -2]])) == (1, 2)
    assert lat.signature(K3) == (3, 19)
    assert lat.signature(lat.e8_lattice()) == (8, 0)
    assert lat.signature(U3) == (3, 3)


def test_standard_lattices():
    assert lat.rank_one(-2).gram == ((-2,),)
    assert U3.rank == 6
    assert K3.rank == 22
    assert K3.det == -1  # U contributes -1 three times, E8(-1) is unimodular
    assert lat.e8_lattice().det == 1
    with pytest.raises(DomainError):
        lat.rescale(U, 0)
    with pytest.raises(DomainError):
        lat.standard_lattice("nope")
    assert [lat.standard_lattice(n).rank for n in ("U", "e8", "K3", "u3")] == [2, 8, 22, 6]
    # parameterized lattices are built by rank_one / rescale / direct_sum, not by name
    for name in ("rank1", "rescale", "direct_sum"):
        with pytest.raises(DomainError):
            lat.standard_lattice(name)


def test_degenerate_rejected():
    with pytest.raises(DomainError):
        lat.QuadLattice.from_rows([[1, 1], [1, 1]])


@pytest.mark.parametrize("rows", [[[1.5]], [[2.0]], [["3/2"]], [[None]], [1]])
def test_non_integral_gram_rejected(rows):
    with pytest.raises(DomainError):
        lat.QuadLattice.from_rows(rows)
    assert lat.QuadLattice.from_rows([["4/2"]]).gram == ((2,),)


def test_signature_random_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 7)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        evals = np.linalg.eigvalsh(np.array(sym, dtype=float))
        if min(abs(evals)) < 1e-6:
            continue
        try:
            L = lat.QuadLattice.from_rows(sym)
        except DomainError:
            continue
        assert L.signature == (int((evals > 0).sum()), int((evals < 0).sum()))
        checked += 1


def test_dual_value_examples():
    # gram of U is self-inverse: (-1,1) G (-1,1)^T = -2
    assert lat.dual_value(U, [-1, 1]) == -2
    assert lat.dual_value(U3, [-1, 1, 0, 0, 0, 0]) == -2
    assert lat.dual_value(lat.rank_one(2), [1]) == Fraction(1, 2)
    # rational coordinates agree with c . gram^{-1} . c computed by inversion
    rng = random.Random(9)
    for L in (U3, K3, lat.rank_one(-6), lat.rescale(U3, 3)):
        det, adj = ex.det_adjugate([list(row) for row in L.gram])
        for _ in range(5):
            c = [Fraction(rng.randint(-7, 7), rng.randint(1, 12)) for _ in range(L.rank)]
            assert lat.dual_value(L, c) == ex.dot(c, ex.mat_vec(adj, c)) / det
    with pytest.raises(DomainError):
        lat.dual_value(U3, [1, 0])


def test_det_signature_and_spinor_sign_never_build_the_adjugate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("det_adjugate called")

    u100 = [list(row) for row in lat.direct_sum(*[U] * 100).gram]
    twisted = [list(row) for row in lat.direct_sum(lat.rank_one(-6), lat.rescale(U3, 3)).gram]
    r_pos = lat.reflection_matrix(U3, [1, 1, 0, 0, 0, 0])
    monkeypatch.setattr(ex, "det_adjugate", forbidden)
    big, small = lat.QuadLattice.from_rows(u100), lat.QuadLattice.from_rows(twisted)
    assert type(big.det) is int and big.det == 1
    assert big.signature == (100, 100)
    assert type(small.det) is int and small.det == -6 * (-9) ** 3
    assert small.signature == (3, 4)
    assert lat.spinor_norm_sign(lat.QuadLattice.from_rows(U3.gram), r_pos) == -1
    monkeypatch.undo()
    # the adjugate is built on first use by dual values, which keep their values
    v = [(-1) ** i * (i % 7) for i in range(200)]
    assert lat.dual_value(big, v) == big.q(v)  # the gram of U^100 is its own inverse
    assert lat.dual_value(small, [1, 0, 0, 0, 0, 0, 1]) == Fraction(-1, 6)
    assert lat.dual_value(small, [0, -1, 1, 0, 0, 0, 0]) == Fraction(-2, 3)


def test_one_elimination_per_lattice_and_no_fractions_for_int_rows(monkeypatch):
    calls = {"kernel": 0, "fr": 0}
    kernel, fr = ex._inertia_det_int, ex.fr

    def counted_kernel(s):
        calls["kernel"] += 1
        return kernel(s)

    def counted_fr(x):
        calls["fr"] += 1
        return fr(x)

    def forbidden(*args, **kwargs):
        raise AssertionError("_bareiss called")

    monkeypatch.setattr(ex, "_inertia_det_int", counted_kernel)
    monkeypatch.setattr(ex, "fr", counted_fr)
    monkeypatch.setattr(ex, "_bareiss", forbidden)
    forms = [[list(row) for row in L.gram] for L in (K3, U3, lat.e8_lattice())]
    forms += [[[3, 1, -2], [1, -5, 4], [-2, 4, 7]], [[0, 2, 1], [2, 0, 0], [1, 0, -3]]]
    for f in forms:
        calls["kernel"] = 0
        L = lat.QuadLattice.from_rows(f)
        assert L.det != 0 and sum(L.signature) == L.rank
        assert calls == {"kernel": 1, "fr": 0}
    with pytest.raises(DomainError, match="degenerate form"):
        lat.QuadLattice.from_rows([[1, 1], [1, 1]])
    assert calls["fr"] == 0


def test_spinor_sign_scales_g_once(monkeypatch):
    scale = ex.scale_matrix_to_integers
    seen = []

    def counted(a):
        seen.append(a)
        return scale(a)

    monkeypatch.setattr(ex, "scale_matrix_to_integers", counted)
    r_pos = lat.reflection_matrix(U3, [1, 1, 0, 0, 0, 0])  # Fraction entries
    for g in (r_pos, [[int(x) for x in row] for row in r_pos]):
        seen.clear()
        assert lat.spinor_norm_sign(U3, g) == -1
        assert sum(a == g for a in seen) == 1  # g as the exact rule hands it over, equal entry by entry


def test_from_rows_decodes_every_exact_spelling_to_one_int_lattice():
    base = lat.QuadLattice.from_rows([[2, 1, 0], [1, -2, 1], [0, 1, 4]])
    spellings = [
        [[2, 1, 0], [1, -2, 1], [0, 1, 4]],
        ((Fraction(4, 2), 1, 0), (1, -2, 1), (0, 1, 4)),
        [["4/2", "1", 0], [1, "-2", 1], [0, 1, "8/2"]],
        [[2, True, False], [True, -2, True], [False, True, 4]],
        [[np.int64(2), np.int64(1), 0], [1, np.int64(-2), 1], [0, 1, np.int64(4)]],
    ]
    for rows in spellings:
        L = lat.QuadLattice.from_rows(rows)
        assert L == base and hash(L) == hash(base)
        assert all(type(x) is int for row in L.gram for x in row)
        assert (L.det, L.signature) == (base.det, base.signature) == (-22, (2, 1))
    refused = {
        "gram entries must be integers": [[1, "1/2"], ["1/2", 1]],
        "exact arithmetic rejects floats": [[1.5, 0], [0, 1]],
        "gram matrix must be square": [[1, 0]],
        "gram must be a list of rows of integers, Fractions or 'p/q' strings that share": [[1, 0], [0]],
        "gram must be a list of rows of integers": [1],
    }
    for message, rows in refused.items():
        with pytest.raises(DomainError, match=message):
            lat.QuadLattice.from_rows(rows)
    with pytest.raises(DomainError, match="gram must be a list of rows of integers"):
        lat.QuadLattice.from_rows([[1, 2], 3])


def test_det_and_signature_of_standard_and_twisted_lattices():
    twisted = lat.direct_sum(lat.rank_one(-6), lat.rescale(U3, 3))
    expected = {
        "K3": (K3, -1, (3, 19)),
        "U3": (U3, -1, (3, 3)),
        "E8": (lat.e8_lattice(), 1, (8, 0)),
        "U+<-2>": (lat.direct_sum(U, lat.rank_one(-2)), 2, (1, 2)),
        "U^100": (lat.direct_sum(*[U] * 100), 1, (100, 100)),
        "twisted": (twisted, -6 * (-9) ** 3, (3, 4)),
    }
    for name, (L, det, sig) in expected.items():
        assert (L.det, L.signature) == (det, sig), name
        assert type(L.det) is int and L.det == ex.det(L.gram), name
        assert "det" not in repr(L) and "signature" not in repr(L)


def test_bform_rejects_wrong_length():
    with pytest.raises(DomainError):
        K3.q([1, 1])
    with pytest.raises(DomainError):
        U3.bform([1] * 6, [1] * 7)


def test_bform_rejects_float_entries():
    with pytest.raises(DomainError):
        U3.q([1.0, 0, 0, 0, 0, 0])
    with pytest.raises(DomainError):
        U3.bform([1, 0, 0, 0, 0, 0], [0, 0.5, 0, 0, 0, 0])


def test_bform_fraction_matches_direct_double_sum():
    rng = random.Random(11)
    for L in (U3, K3, lat.rescale(U3, -5)):
        n = L.rank
        for _ in range(5):
            u = [Fraction(rng.randint(-9, 9), rng.randint(1, 10)) for _ in range(n)]
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 10)) for _ in range(n)]
            direct = sum(u[i] * L.gram[i][j] * v[j] for i in range(n) for j in range(n))
            assert L.bform(u, v) == direct
            assert L.bform(u, v) == L.bform(v, u)


def test_q_returns_fraction():
    for v in ([1, 1, 0, 0, 0, 0], [0] * 6, ["1/2", 1, 0, 0, 0, 0]):
        assert isinstance(U3.q(v), Fraction)
    assert U3.q([1, 1, 0, 0, 0, 0]) == 2
    assert U3.q(["1/2", 1, 0, 0, 0, 0]) == 1


def test_equal_lattices_hash_once_and_share_caches():
    a = lat.k3_lattice()
    b = lat.k3_lattice()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != U3
    assert per.gram_float(a) is per.gram_float(b)


def test_is_negative_form_examples():
    # delta dual to e1 - f1 has coords b(e1-f1, .) = (-1, 1, 0, ...)
    coords = [-1, 1, 0, 0, 0, 0]
    assert lat.is_negative_form(U3, coords) is True
    assert lat.kernel_signature(U3, coords) == (3, 2)
    with pytest.raises(DomainError):
        lat.kernel_signature(U3, coords[:5])
    # dual to e1 + f1: q^vee = 2 > 0
    assert lat.is_negative_form(U3, [1, 1, 0, 0, 0, 0]) is False
    # dual to e1: isotropic
    assert lat.is_negative_form(U3, [0, 1, 0, 0, 0, 0]) is False
    with pytest.raises(DomainError):
        lat.is_negative_form(U3, [0] * 6)


def test_negative_form_sweep_agrees_with_kernel_inertia():
    # brute sweep of primitive U3 dual vectors, one of each +- pair (the first nonzero
    # coordinate positive): the dual-value sign that is_negative_form decides agrees
    # with the kernel inertia (3, 2)
    import itertools

    count = 0
    for coords in itertools.product(range(-3, 4), repeat=6):
        if math.gcd(*coords) != 1 or next(x for x in coords if x) < 0:
            continue
        prim = list(coords)
        verdict = lat.is_negative_form(U3, prim)
        assert verdict == (lat.dual_value(U3, prim) < 0)
        assert verdict == (lat.kernel_signature(U3, prim) == (3, 2))
        count += 1
    assert count == 58096


def test_negative_form_agrees_with_kernel_inertia_on_k3_sample():
    # seeded K3 dual vectors, some with denominators, every other one inside U3 (where
    # both signs occur): negative iff ker delta has signature (3, 18)
    rng = random.Random(17)
    verdicts = set()
    for trial in range(300):
        den = rng.choice([1, 1, 2, 3, 6])
        support = 6 if trial % 2 else 22
        coords = [Fraction(rng.randint(-3, 3), den) if i < support else 0 for i in range(22)]
        if not any(coords):
            continue
        verdict = lat.is_negative_form(K3, coords)
        assert verdict == (lat.kernel_signature(K3, coords) == (3, 18))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_wall_form_indivisibility():
    w = lat.WallForm.from_coords(U3, [-1, 1, 0, 0, 0, 0])
    assert w.indivisible
    assert w.negative
    assert lat.WallForm.from_coords(U3, [-2, 2, 0, 0, 0, 0]).indivisible is False
    assert lat.WallForm.from_coords(U3, ["1/2", "3/2", 0, 0, 0, 0]).indivisible


def test_reflection_examples():
    r = lat.reflection(U, [1, -1])  # e - f swaps e and f
    assert r.matrix == ((0, 1), (1, 0))
    assert r.integral
    assert lat.reflection(lat.rank_one(2), [1]).matrix == ((-1,),)
    with pytest.raises(DomainError):
        lat.reflection(U, [1, 0])


def _is_isometry(L, g):
    """g is rank x rank and g^T gram g == gram, in exact rationals."""
    if len(g) != L.rank or any(len(row) != L.rank for row in g):
        return False
    g = ex.frmat(g)
    return ex.mat_mul(ex.mat_mul(ex.transpose(g), ex.frmat(L.gram)), g) == ex.frmat(L.gram)


@settings(max_examples=40)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_reflection_properties(vec):
    if U3.q(vec) == 0:
        return
    r = lat.reflection(U3, vec)
    m = ex.frmat([list(row) for row in r.matrix])
    # involution and isometry, exactly
    assert ex.mat_mul(m, m) == ex.identity(6)
    assert _is_isometry(U3, m)
    assert ex.mat_vec(m, vec) == [-x for x in vec]


def _random_pm2_vector(rng, L, want_sign=None):
    while True:
        v = [rng.randint(-2, 2) for _ in range(L.rank)]
        q = L.q(v)
        if q == 0:
            continue
        if want_sign is None and q in (-2, 2, -1, 1):
            return v, q
        if want_sign is not None and q == want_sign:
            return v, q


def _product_of_reflections(L, vectors):
    m = ex.identity(L.rank)
    for v in vectors:
        m = ex.mat_mul(lat.reflection_matrix(L, v), m)
    return m


def _cartan_dieudonne_sign(L, g, order=None):
    """The oracle's spinor sign: the product of the signs of -q(w) over the mirrors of ``reflection_vectors``."""
    sign = 1
    for w in lat.reflection_vectors(L, g, order=order):
        sign *= 1 if L.q(w) < 0 else -1
    return sign


def test_spinor_norm_basic():
    assert lat.spinor_norm_sign(U3, ex.identity(6)) == +1
    # reflection in q = -2 vector: sign(-(-2)) = +1
    r_neg = lat.reflection_matrix(U3, [1, -1, 0, 0, 0, 0])
    assert lat.spinor_norm_sign(U3, r_neg) == +1
    assert lat.in_o_sharp(U3, r_neg)
    # reflection in q = +2 vector: sign(-2) = -1
    r_pos = lat.reflection_matrix(U3, [1, 1, 0, 0, 0, 0])
    assert lat.spinor_norm_sign(U3, r_pos) == -1
    assert not lat.in_o_sharp(U3, r_pos)
    both = ex.mat_mul(r_neg, r_pos)
    assert lat.spinor_norm_sign(U3, both) == -1


def test_spinor_norm_known_products_and_homomorphism():
    rng = random.Random(11)
    for _ in range(50):
        vs_g = [_random_pm2_vector(rng, U3)[0] for _ in range(rng.randint(1, 4))]
        vs_h = [_random_pm2_vector(rng, U3)[0] for _ in range(rng.randint(1, 4))]
        g = _product_of_reflections(U3, vs_g)
        h = _product_of_reflections(U3, vs_h)
        expected_g = 1
        for v in vs_g:
            expected_g *= 1 if -U3.q(v) > 0 else -1
        expected_h = 1
        for v in vs_h:
            expected_h *= 1 if -U3.q(v) > 0 else -1
        sg = lat.spinor_norm_sign(U3, g)
        sh = lat.spinor_norm_sign(U3, h)
        assert sg == expected_g
        assert sh == expected_h
        assert lat.spinor_norm_sign(U3, ex.mat_mul(g, h)) == sg * sh


def test_spinor_norm_decomposition_independence():
    rng = random.Random(5)
    orders = [None, [5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3]]
    for _ in range(10):
        vs = [_random_pm2_vector(rng, U3)[0] for _ in range(rng.randint(1, 5))]
        g = _product_of_reflections(U3, vs)
        signs = {lat.spinor_norm_sign(U3, g)} | {_cartan_dieudonne_sign(U3, g, o) for o in orders}
        assert len(signs) == 1


def test_reflection_decomposition_reconstructs():
    rng = random.Random(3)
    for _ in range(10):
        vs = [_random_pm2_vector(rng, U3)[0] for _ in range(rng.randint(1, 4))]
        g = _product_of_reflections(U3, vs)
        ws = lat.reflection_vectors(U3, g)
        recon = _product_of_reflections(U3, list(reversed(ws)))
        # g = r_{w_1} ... r_{w_k} applied left to right
        recon = ex.identity(6)
        for w in ws:
            recon = ex.mat_mul(recon, lat.reflection_matrix(U3, w))
        assert recon == g
        assert len(ws) <= 12


def _k3_vector(coords):
    v = [0] * 22
    for i, x in coords.items():
        v[i] = x
    return v


@pytest.mark.parametrize(
    "L, vectors",
    [
        (K3, [_k3_vector({0: 1, 1: 1}), _k3_vector({6: 1}), _k3_vector({0: 1, 1: -1, 7: 1}),
              _k3_vector({2: 1, 3: 2, 14: 1})]),
        (U3, [[1, 1, 1, 1, 0, 0], [1, 2, 0, 0, 1, -1]]),  # q = 4 and 2: g has denominator 2
        (U3, [[1, 2, 0, 0, 0, 0], [0, 0, 1, -2, 1, 1], [2, 1, 0, 1, 0, 0]]),
        (lat.QuadLattice.from_rows([[1, 0, 0, 0], [0, -3, 0, 0], [0, 0, 5, 0], [0, 0, 0, -7]]),
         [[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 0, 1]]),
    ],
    ids=["k3", "u3-rational-4", "u3-rational-mixed", "diag-1-3-5-7"],
)
def test_reflection_decomposition_is_integral_and_reconstructs(L, vectors):
    g = _product_of_reflections(L, vectors)
    for order in (None, list(range(L.rank))[::-1]):
        ws = lat.reflection_vectors(L, g, order=order)
        assert all(type(x) is int for w in ws for x in w)
        assert all(ex.content(w) == 1 for w in ws)
        recon = ex.identity(L.rank)
        for w in ws:
            recon = ex.mat_mul(recon, lat.reflection_matrix(L, w))
        assert recon == g
        assert len(ws) <= 2 * L.rank


def test_spinor_norm_rejects_non_isometry():
    bad = ex.frmat([[1, 1], [0, 1]])
    with pytest.raises(DomainError):
        lat.spinor_norm_sign(U, bad)
    for wrong_shape in ([[1, 0], [0, 1], [5, 7]], [[1, 0, 9], [0, 1, 9]], [[1, 0], [0]]):
        assert not _is_isometry(U, wrong_shape)
        with pytest.raises(DomainError):
            lat.spinor_norm_sign(U, wrong_shape)


def _random_anisotropic(rng, L, norms):
    norm = rng.choice(norms)
    while True:
        v = [rng.choice((-1, 0, 0, 0, 1)) for _ in range(L.rank)]
        if sum(x * sum(map(mul, row, v)) for x, row in zip(v, L.gram) if x) == norm:  # q(v), in ints
            return v


def _cd_and_product_signs(L, vs):
    g = _product_of_reflections(L, vs)
    by_product = 1
    for v in vs:
        by_product *= 1 if -L.q(v) > 0 else -1
    return g, by_product, _cartan_dieudonne_sign(L, g, order=list(range(L.rank))[::-1])


@pytest.mark.parametrize(
    "L, norms, trials",
    [
        (K3, (-2, 2), 3),
        (lat.direct_sum(U, U, lat.rank_one(-2)), (-4, -2, 2, 4), 20),
        (lat.QuadLattice.from_rows([[1, 0, 0, 0], [0, -3, 0, 0], [0, 0, 5, 0], [0, 0, 0, -7]]),
         (1, -2, 2, -3, 5, -6, 6, -7), 20),
        (U3, (-4, 4), 20),
        (lat.direct_sum(lat.rescale(lat.e8_lattice(), -1), U), (-4, -2, 2), 20),  # q <= 2 on these draws
    ],
    ids=["k3", "u2-plus-minus2", "diag-1-3-5-7", "u3-rational-4", "e8m-plus-u"],
)
def test_spinor_sign_matches_cartan_dieudonne_and_product(L, norms, trials):
    rng = random.Random(17)
    for _ in range(trials):
        vs = [_random_anisotropic(rng, L, norms) for _ in range(rng.randint(1, 4))]
        g, by_product, by_cd = _cd_and_product_signs(L, vs)
        assert lat.spinor_norm_sign(L, g) == by_product == by_cd


@pytest.mark.parametrize("s", [1, -1], ids=["positive-definite", "negative-definite"])
def test_spinor_sign_on_definite_lattices(s):
    L = lat.rescale(lat.e8_lattice(), s)
    rng = random.Random(23)
    for _ in range(10):
        vs = [_random_anisotropic(rng, L, (2 * s, 4 * s)) for _ in range(rng.randint(1, 4))]
        g, by_product, by_cd = _cd_and_product_signs(L, vs)
        expected = int(ex.det(g)) if s > 0 else 1
        assert lat.spinor_norm_sign(L, g) == by_product == by_cd == expected


def test_isometry_test_refuses_every_one_entry_change():
    # adding 1 at (i, j) changes b(g e_j, g e_k) by (gram g)_ik for k != j, and b(g e_j, g e_j) by
    # 2 (gram g)_ij on U3's zero diagonal; row i of gram g is not zero, so each such matrix is refused
    g = _product_of_reflections(U3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [1, 0, 1, 1, 0, 1]])
    assert lat.spinor_norm_sign(U3, g) == 1  # mirrors of q = 2, -2, 2
    for i in range(6):
        for j in range(6):
            bad = [list(row) for row in g]
            bad[i][j] += 1
            for refuse in (lat.spinor_norm_sign, lat.reflection_vectors):
                with pytest.raises(DomainError, match="matrix does not preserve the form"):
                    refuse(U3, bad)


@pytest.mark.parametrize(
    "vectors, sign",
    [([[1, 2, 0, 0, 0, 0]], -1), ([[1, -2, 0, 0, 0, 0]], 1), ([[1, 3, 0, 0, 0, 0], [0, 0, 1, 1, 1, -2]], -1),
     ([[1, 1, 1, 1, 0, 0], [1, 2, 0, 0, 1, -1], [0, 0, 1, -3, 0, 0]], 1)],
    ids=["q4", "q-4", "q6-q-2", "q4-q2-q-6"],
)
def test_spinor_sign_of_a_rational_isometry(vectors, sign):
    g = _product_of_reflections(U3, vectors)
    assert lat._scaled_isometry(U3, g)[1] > 1  # D > 1: g has a denominator
    assert lat.spinor_norm_sign(U3, g) == sign == _cartan_dieudonne_sign(U3, g)


def test_spinor_sign_without_order_runs_no_cartan_dieudonne(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("reflection_vectors called")

    monkeypatch.setattr(lat, "reflection_vectors", forbidden)
    r_pos = lat.reflection_matrix(U3, [1, 1, 0, 0, 0, 0])
    assert lat.spinor_norm_sign(U3, r_pos) == -1
    assert not lat.in_o_sharp(U3, r_pos)
    v = [0] * 22
    v[6] = 1
    assert lat.in_o_sharp(K3, lat.reflection_matrix(K3, v))


def _random_nondegenerate_forms(rng, count):
    forms = []
    while len(forms) < count:
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] if i != j else rng.choice((0, 0, a[i][i])) for j in range(n)]
               for i in range(n)]
        if ex.det(sym) != 0:
            forms.append(lat.QuadLattice.from_rows(sym))
    return forms


def test_positive_plane_is_pairwise_orthogonal_and_positive():
    standard = [U, U3, K3, lat.e8_lattice(), lat.rescale(lat.e8_lattice(), -1), lat.rank_one(-2),
                lat.direct_sum(U, U, lat.rank_one(-2))]
    for L in standard + _random_nondegenerate_forms(random.Random(31), 60):
        w = L.positive_plane
        assert len(w) == L.signature[0]
        assert all(isinstance(x, int) for row in w for x in row)
        for i, u in enumerate(w):
            assert L.q(u) > 0
            assert all(L.bform(u, w[j]) == 0 for j in range(i))


def test_k3_spinor_reflection():
    # -2 vectors exist in the E8(-1) blocks of the K3 lattice
    v = [0] * 22
    v[6] = 1  # first E8(-1) root has q = -2
    assert K3.q(v) == -2
    r = lat.reflection(K3, v)
    assert r.integral
    assert lat.spinor_norm_sign(K3, [list(row) for row in r.matrix]) == +1
