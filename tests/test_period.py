import numpy as np
import pytest

from hkgeom import lattice as lat
from hkgeom import period as per
from hkgeom.config import DEFAULT_TOL
from hkgeom.errors import ChainConnectError, DomainError

U3 = lat.standard_lattice("U3")
K3 = lat.k3_lattice()

E1F1 = np.array([1, 1, 0, 0, 0, 0], dtype=float)
E2F2 = np.array([0, 0, 1, 1, 0, 0], dtype=float)
E3F3 = np.array([0, 0, 0, 0, 1, 1], dtype=float)


def diag_point():
    return per.period_point(U3, E1F1, E2F2)


def test_period_point_normalization():
    z = diag_point()
    assert np.allclose(z.re, E1F1 / np.sqrt(2))
    assert np.allclose(z.im, E2F2 / np.sqrt(2))
    assert abs(per.qform(U3, z.re) - 1) < 1e-12
    assert abs(per.qform(U3, z.im) - 1) < 1e-12
    assert abs(per.bform(U3, z.re, z.im)) < 1e-12


def test_period_point_scaling_invariance():
    z1 = diag_point()
    z2 = per.period_point(U3, 5 * E1F1, 5 * E2F2)
    assert np.allclose(z1.re, z2.re)
    assert np.allclose(z1.im, z2.im)
    assert per.same_period_point(z1, z2)


def test_period_point_validation():
    with pytest.raises(DomainError):
        per.period_point(U3, E1F1, 2 * E2F2)  # q(a) != q(b)
    with pytest.raises(DomainError):
        per.period_point(U3, E1F1, E1F1)  # b(a, b) != 0
    neg = np.array([1, -1, 0, 0, 0, 0], dtype=float)
    with pytest.raises(DomainError):
        per.period_point(U3, neg, E2F2)  # h_q not positive


def test_point_plane_round_trip():
    z = diag_point()
    plane = per.point_to_plane(z)
    back = per.plane_to_point(plane)
    assert np.allclose(back.re, z.re, atol=1e-12)
    assert np.allclose(back.im, z.im, atol=1e-12)


def test_conjugate_same_plane_opposite_orientation():
    z = diag_point()
    zc = z.conjugate()
    f1 = z.plane_frame()
    m = f1 @ per.gram_float(U3) @ zc.plane_frame().T
    assert np.linalg.det(m) < 0  # same plane, reversed orientation
    assert not per.same_period_point(z, zc)


def test_round_trip_random_points():
    for seed in range(1000):
        z = per.sample_period_point(K3, seed)
        back = per.plane_to_point(per.point_to_plane(z))
        # residual relative to the representative scale (q-unit vectors can
        # have large Euclidean norm when the plane is hyperbolically boosted)
        assert np.linalg.norm(back.re - z.re) < 1e-12 * max(1, np.linalg.norm(z.re))
        assert np.linalg.norm(back.im - z.im) < 1e-12 * max(1, np.linalg.norm(z.im))
        # defining conditions of the period domain
        qa = per.qform(K3, z.re)
        qb = per.qform(K3, z.im)
        ab = per.bform(K3, z.re, z.im)
        assert abs(qa - qb) < 1e-9 and abs(ab) < 1e-9
        assert qa + qb > 0


def test_sample_determinism():
    z1 = per.sample_period_point(K3, 42)
    z2 = per.sample_period_point(K3, 42)
    assert z1.re.tobytes() == z2.re.tobytes()
    assert z1.im.tobytes() == z2.im.tobytes()


def test_orient_three_plane_reference_cases():
    ref = per.reference_plane(U3)
    p = per.orient_three_plane(U3, list(ref))
    assert p.spin_positive
    swapped = per.orient_three_plane(U3, [ref[1], ref[0], ref[2]])
    assert not swapped.spin_positive


def test_orient_three_plane_diagonals_stable():
    vs22 = []
    for v in (E1F1, E2F2, E3F3):
        w = np.zeros(22)
        w[:6] = v
        vs22.append(w)
    p1 = per.orient_three_plane(K3, vs22)
    p2 = per.orient_three_plane(K3, [3.0 * v for v in vs22])
    assert p1.spin_positive == p2.spin_positive


def test_orient_three_plane_rejects_bad_spans():
    with pytest.raises(DomainError):
        per.orient_three_plane(U3, [E1F1, E2F2, E1F1 + E2F2])  # degenerate
    neg = np.array([1, -1, 0, 0, 0, 0], dtype=float)
    with pytest.raises(DomainError) as err:
        per.orient_three_plane(U3, [E1F1, E2F2, neg])
    assert "eigenvalue" in str(err.value)


def test_positive_cone_dichotomy_and_errors():
    z = diag_point()
    accepted = per.positive_cone_contains(z, E3F3)
    rejected = per.positive_cone_contains(z, -E3F3)
    assert accepted != rejected  # exactly one of the antipodal pair
    # stability across runs
    assert per.positive_cone_contains(z, E3F3) == accepted
    assert per.positive_cone_contains(z, np.array([0, 0, 0, 0, 1, -1.0])) is False
    with pytest.raises(DomainError):
        per.positive_cone_contains(z, np.array([1, 0, 0, 0, 0, 0.0]))


def test_positive_cone_random_dichotomy():
    for seed in range(20):
        z = per.sample_period_point(K3, seed)
        ell = per._perp_positive_direction(z)
        assert per.positive_cone_contains(z, ell) != per.positive_cone_contains(z, -ell)


def test_twistor_plane_examples():
    z = diag_point()
    p = per.twistor_plane(z, E3F3)
    assert per.conic_contains(p, z)
    gram3 = p.frame @ per.gram_float(U3) @ p.frame.T
    assert np.allclose(gram3, np.eye(3), atol=1e-12)
    with pytest.raises(DomainError):
        per.twistor_plane(z, E1F1)  # in the plane, not orthogonal
    with pytest.raises(DomainError):
        per.twistor_plane(z, np.array([0, 0, 0, 0, 1, -1.0]))  # negative line


def test_conic_point_construction():
    z = diag_point()
    p = per.twistor_plane(z, E3F3)
    u = p.frame[2]
    w = per.conic_point(p, u)
    # the period plane of w is spanned by the first two frame vectors
    assert per.span_residual(U3, p.frame[:2], w.re) < 1e-10
    assert per.span_residual(U3, p.frame[:2], w.im) < 1e-10
    wc = per.conic_point(p, -u)
    assert per.same_period_point(wc, w.conjugate())


def test_conic_point_completion_independent():
    z = diag_point()
    p = per.twistor_plane(z, E3F3)
    rng = np.random.default_rng(5)
    for _ in range(25):
        coeff = rng.standard_normal(3)
        u = coeff @ p.frame
        u = u / np.sqrt(per.qform(U3, u))
        pts = [
            per.conic_point(p, u, index_order=order)
            for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0))
        ]
        for w in pts[1:]:
            assert per.same_period_point(pts[0], w, tol=1e-10)
        assert per.conic_contains(p, pts[0])


def test_conic_point_lands_on_conic_100_random():
    z = diag_point()
    p = per.twistor_plane(z, E3F3)
    rng = np.random.default_rng(6)
    for _ in range(100):
        u = rng.standard_normal(3) @ p.frame
        u = u / np.sqrt(per.qform(U3, u))
        assert per.conic_contains(p, per.conic_point(p, u))


def test_conic_contains_rejects():
    z = diag_point()
    p = per.twistor_plane(z, E3F3)
    # q(b) = (4 * 2 - 2) / 6 = 1; the e3 - f3 component leaves the 3-plane
    b = (2 * E2F2 + np.array([0, 0, 0, 0, 1, -1.0])) / np.sqrt(6)
    other = per.period_point(U3, E1F1 / np.sqrt(2), b)
    assert not per.conic_contains(p, other)
    # perturbation in a normal direction by 10x the tolerance
    normal = np.array([1, -1, 0, 0, 0, 0], dtype=float)
    eps = 10 * DEFAULT_TOL.orth
    zp = per.PeriodPoint(U3, z.re + eps * normal, z.im)
    assert not per.conic_contains(p, zp)


def test_chain_same_point_empty():
    z = diag_point()
    chain = per.chain_connect(z, z)
    assert len(chain) == 0
    per.verify_chain(chain, z, z)


def test_chain_shared_vector_single_link():
    x1 = E1F1 / np.sqrt(2)
    x2 = E2F2 / np.sqrt(2)
    x3 = E3F3 / np.sqrt(2)
    z1 = per.period_point(U3, x1, x2)
    z2 = per.period_point(U3, x2, x3)
    chain = per.chain_connect(z1, z2)
    assert len(chain) == 1
    per.verify_chain(chain, z1, z2)
    frame = chain.links[0].plane.frame
    for v in (x1, x2, x3):
        assert per.span_residual(U3, frame, v) < 1e-9


def test_chain_conjugate_pair():
    z = diag_point()
    chain = per.chain_connect(z, z.conjugate())
    per.verify_chain(chain, z, z.conjugate())
    assert len(chain) >= 1


def test_chain_random_pairs_k3():
    connected = 0
    for seed in range(15):
        z1 = per.sample_period_point(K3, 2 * seed)
        z2 = per.sample_period_point(K3, 2 * seed + 1)
        chain = per.chain_connect(z1, z2)
        per.verify_chain(chain, z1, z2)
        connected += 1
    assert connected == 15


def test_chain_stress_small_lattices():
    # minimal n = 1 case with hyperbolically boosted pairs, and U3 pairs
    L31 = lat.QuadLattice.from_rows(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]]
    )
    for L, pairs in ((L31, 30), (U3, 30)):
        for seed in range(pairs):
            z1 = per.sample_period_point(L, 3 * seed)
            z2 = per.sample_period_point(L, 3 * seed + 1)
            chain = per.chain_connect(z1, z2, max_links=128)
            per.verify_chain(chain, z1, z2)


def test_chain_rotated_frame_is_same_point():
    z = diag_point()
    # (b, -a) spans the same plane with the same orientation: same point
    rotated = per.PeriodPoint(U3, z.im, per._readonly(-z.re))
    assert per.same_period_point(z, rotated)
    chain = per.chain_connect(z, rotated)
    assert len(chain) == 0


def test_chain_rejects_rank_three():
    L = lat.QuadLattice.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    z = per.period_point(
        L, np.array([1.0, 0, 0]) / np.sqrt(2), np.array([0, 1.0, 0]) / np.sqrt(2)
    )
    with pytest.raises(DomainError):
        per.chain_connect(z, z.conjugate())


def test_chain_max_links():
    z1 = per.sample_period_point(K3, 100)
    z2 = per.sample_period_point(K3, 101)
    if not per.same_period_point(z1, z2):
        with pytest.raises(ChainConnectError):
            per.chain_connect(z1, z2, max_links=0)
    assert len(per.chain_connect(z1, z1, max_links=0)) == 0
    with pytest.raises(DomainError):
        per.chain_connect(z1, z2, max_links=-1)


def test_sampled_line_feeds_twistor_plane():
    z = per.sample_period_point(U3, 3)
    ell = per.sample_irrational_line(z, height=50, relation_tol=1e-9, seed=7)
    p = per.twistor_plane(z, ell)
    assert per.conic_contains(p, z)
