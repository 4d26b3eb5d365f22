import copy
import dataclasses
import importlib.util
import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hkgeom import exactlin as ex
from hkgeom import lattice as lat
from hkgeom import period as per
from hkgeom.config import DEFAULT_TOL
from hkgeom.errors import DomainError, NumericalError

U3 = lat.standard_lattice("U3")
K3 = lat.k3_lattice()
# the minimal signature (3, 1)
L31 = lat.QuadLattice.from_rows([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -2]])
CHAIN_TOL = DEFAULT_TOL.replace(orth=1e-8, pos=1e-6)  # acceptance 07

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
        ell = per._perp_positive_direction(per.gram_float(K3), z.plane_frame())
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
        # other completions: the same plane with its frame rows permuted, and one
        # row negated for the odd permutation so that the orientation is kept
        pts = []
        for order, sign in (((0, 1, 2), 1), ((2, 1, 0), -1), ((1, 2, 0), 1)):
            frame = p.frame[list(order)]
            frame[0] *= sign
            pts.append(per.conic_point(dataclasses.replace(p, frame=frame), u))
        f0 = pts[0].plane_frame()
        for w in pts[1:]:
            # the frame of w rebuilt from its q-projection onto pts[0]
            m = f0 @ per.gram_float(U3) @ w.plane_frame().T
            assert np.linalg.norm(m.T @ f0 - w.plane_frame()) < 1e-10
            assert np.linalg.det(m) > 0
            assert per.same_period_point(pts[0], w)
        assert per.conic_contains(p, pts[0])


def test_conic_point_refuses_u_of_the_wrong_length():
    p = per.twistor_plane(diag_point(), E3F3)
    for u in ([], p.frame[2][:5]):
        with pytest.raises(DomainError, match="u must have length 6"):
            per.conic_point(p, u)


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
        assert len(chain) <= 3
        connected += 1
    assert connected == 15


def test_chain_stress_small_lattices():
    # minimal n = 1 case with hyperbolically boosted pairs, and U3 pairs
    for L, pairs in ((L31, 30), (U3, 30)):
        for seed in range(pairs):
            z1 = per.sample_period_point(L, 3 * seed)
            z2 = per.sample_period_point(L, 3 * seed + 1)
            chain = per.chain_connect(z1, z2)
            per.verify_chain(chain, z1, z2)
            assert len(chain) <= 3


def test_chain_k3_pairs_that_exhausted_max_links():
    # the waypoint search that preceded the closed-form chains cycled past
    # its 64-link budget on these two seeded pairs
    for s1, s2 in ((3170, 3171), (10132, 10133)):
        z1 = per.sample_period_point(K3, s1)
        z2 = per.sample_period_point(K3, s2)
        chain = per.chain_connect(z1, z2)
        assert len(chain) <= 3
        per.verify_chain(chain, z1, z2, tol=CHAIN_TOL)


def _positive_index_of_union(L, z1, z2) -> int:
    # eigenvalues of the form on P + Q in a QR basis, independent of the SVD
    # of the correlation that chain_connect reads the case from
    basis = np.linalg.qr(np.vstack([z1.plane_frame(), z2.plane_frame()]).T)[0].T
    return int((np.linalg.eigvalsh(basis @ per.gram_float(L) @ basis.T) > 0).sum())


def test_chain_link_count_follows_the_inertia_of_the_union():
    # signature (3, 1) unions take 2 links, positive index 2 takes 3; on these
    # seeds every s_1 is at least 0.014 away from 1, where the rule switches
    counts = {2: 0, 3: 0}
    for seed in range(60):
        z1 = per.sample_period_point(K3, 2 * seed)
        z2 = per.sample_period_point(K3, 2 * seed + 1)
        chain = per.chain_connect(z1, z2)
        expected = 2 if _positive_index_of_union(K3, z1, z2) == 3 else 3
        assert len(chain) == expected
        counts[expected] += 1
    assert counts[2] and counts[3]
    # on L31 every 4-dimensional union is the whole space, of signature (3, 1)
    for seed in range(20):
        z1 = per.sample_period_point(L31, 2 * seed)
        z2 = per.sample_period_point(L31, 2 * seed + 1)
        assert len(per.chain_connect(z1, z2)) == 2


def test_chain_shared_line_with_indefinite_union_takes_three_links():
    # P = span(x1, x2) and Q = span(x2 + delta e3, y) share x2 up to delta;
    # b(x1, y) = beta > 1 makes P + Q of signature (2, 1), so no single conic
    # holds both. At delta = 3e-9 the union still counts as 3-dimensional.
    x1, x2, e3 = E1F1 / np.sqrt(2), E2F2 / np.sqrt(2), E3F3 / np.sqrt(2)
    n = np.array([1, -1, 0, 0, 0, 0], dtype=float) / np.sqrt(2)  # q(n) = -1
    for beta in (1 + 1e-6, 2.0, 50.0):
        for delta in (0.0, 1e-10, 3e-9):
            y = beta * x1 + np.sqrt(beta**2 - 1) * n
            z1 = per.period_point(U3, x1, x2)
            z2 = per.period_point(U3, *per.orthonormal_pair(U3, x2 + delta * e3, y))
            chain = per.chain_connect(z1, z2)
            assert len(chain) == 3
            per.verify_chain(chain, z1, z2, tol=CHAIN_TOL)


def _integer_point(L, a, b):
    return per.period_point(L, *per.orthonormal_pair(L, np.array(a, float), np.array(b, float)))


def test_chain_degenerate_integer_unions_take_three_links():
    # P + Q degenerate: a shared line plus a null direction, signature
    # (2, 0, 1), on U3 (coordinates e1, f1, e2, f2, e3, f3) and on L31, and a
    # (2, 1, 1) union on U3. No positive vector is q-orthogonal to P + Q.
    pairs = [
        (U3, ([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]), ([0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 0])),
        (L31, ([1, 0, 0, 0], [0, 1, 0, 0]), ([0, 1, 0, 0], [1, 0, 1, 1])),
        (L31, ([2, 0, 2, 2], [2, -1, 2, 2]), ([2, 0, -2, 2], [0, -2, 0, 0])),
        (U3, ([2, 2, 0, 1, 1, 0], [1, -1, 0, 1, 2, 1]), ([2, 2, 0, -2, 1, 0], [1, 0, 0, 0, 1, 1])),
    ]
    for L, p, q in pairs:
        rows = ex.frmat([*p, *q])
        gram = ex.mat_mul(ex.mat_mul(rows, ex.frmat(L.gram)), ex.transpose(rows))
        assert ex.rank(gram) < ex.rank(rows) and ex.inertia(gram)[0] == 2
        z1, z2 = _integer_point(L, *p), _integer_point(L, *q)
        chain = per.chain_connect(z1, z2)
        assert len(chain) == 3
        per.verify_chain(chain, z1, z2, tol=CHAIN_TOL)


def test_chain_small_integer_pairs_connect():
    # planes spanned by vectors in {-2..2}^n; about 1 pair in 80 has a
    # degenerate union
    rng = np.random.default_rng(0)
    for i in range(600):
        L = (U3, L31)[i % 2]
        zs = []
        while len(zs) < 2:
            try:
                zs.append(_integer_point(L, rng.integers(-2, 3, L.rank), rng.integers(-2, 3, L.rank)))
            except DomainError:
                pass
        chain = per.chain_connect(*zs)
        assert len(chain) <= 3
        per.verify_chain(chain, *zs, tol=CHAIN_TOL)


def _q_orthonormal_basis(L, boost):
    # rows e1, e2, e3 (q = 1) and f1.. (q = -1), with e1 boosted against f1
    evals, evecs = np.linalg.eigh(per.gram_float(L))
    rows = evecs.T / np.sqrt(np.abs(evals))[:, None]
    pos, neg = rows[evals > 0], rows[evals < 0]
    e1, f1 = pos[0].copy(), neg[0].copy()
    pos[0] = math.cosh(boost) * e1 + math.sinh(boost) * f1
    neg[0] = math.sinh(boost) * e1 + math.cosh(boost) * f1
    return pos, neg


@pytest.mark.parametrize("lattice", [L31, K3], ids=["L31", "K3"])
def test_same_period_point_on_boosted_frames(lattice):
    # boosting e1 against f1 by b gives frames of Euclidean norm ~cosh(b), out
    # to ~1000 where period_point stops admitting them (q(a) = 1 <= tol.pos |a|^2);
    # every admitted point equals itself and its in-plane rotations, never its
    # conjugate
    rng = np.random.default_rng(3)
    norms = []
    for boost in np.linspace(0, 8, 321):
        pos, _ = _q_orthonormal_basis(lattice, boost)
        try:
            z = per.period_point(lattice, pos[0], pos[1])
        except DomainError:
            continue
        t = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(t), math.sin(t)
        turned = per.PeriodPoint(lattice, c * z.re + s * z.im, c * z.im - s * z.re)
        assert per.same_period_point(z, z)
        assert per.same_period_point(z, turned) and per.same_period_point(turned, z)
        assert not per.same_period_point(z, z.conjugate())
        norms.append(np.linalg.norm(z.plane_frame()))
    assert len(norms) > 250 and max(norms) > 900


def _near_degenerate_pair(lattice, boost, phi, psi, s, t, conjugate):
    # P = span(e1, e2) and Q = span(e1 + s w1, e2 + t w2), with w1 and w2 in
    # span(e3, f_a, f_b). That covers P close to Q, P + Q close to degenerate or
    # of positive index 3 with a tiny negative part (w nearly null) and, on U3
    # with psi = pi/2, a nearly isotropic c in (P + Q)^perp. None when Q is not
    # a positive plane.
    pos, neg = _q_orthonormal_basis(lattice, boost)
    e1, e2, e3 = pos
    f_a, f_b = (neg[1], neg[2]) if len(neg) == 3 else (neg[0], neg[0])
    w1 = math.cos(phi) * e3 + math.sin(phi) * f_a
    w2 = math.cos(psi) * e3 + math.sin(psi) * f_b
    z1 = per.period_point(lattice, e1, e2)
    try:
        z2 = per.period_point(lattice, *per.orthonormal_pair(lattice, e1 + s * w1, e2 + t * w2))
    except DomainError:
        return None
    if conjugate:
        z2 = z2.conjugate()
    return z1, z2


def _connect_and_verify(z1, z2):
    chain = per.chain_connect(z1, z2)
    assert len(chain) <= 3
    per.verify_chain(chain, z1, z2)
    per.verify_chain(chain, z1, z2, tol=CHAIN_TOL)


# angles near pi/4 make cos(a) e3 + sin(a) f nearly null; scales near 0 make Q
# nearly equal to P
_ANGLES = st.one_of(
    st.floats(0, math.pi / 2),
    st.tuples(st.sampled_from([-1, 1]), st.floats(-12, -2)).map(
        lambda t: math.pi / 4 + t[0] * 10 ** t[1]
    ),
)
_SCALES = st.one_of(st.floats(0.01, 10), st.floats(-12, -2).map(lambda k: 10**k))


@settings(max_examples=400, deadline=None)
# pairs whose junctions are easy to get wrong: on U3 no positive c in
# (P + Q)^perp is far from isotropic; on L31 a junction through a nearly
# null direction lands far out or off its second conic
@example(lattice=U3, boost=0.13487786618405218, phi=0.38499283520925237, psi=math.pi / 2,
         s=3.544278092044795e-08, t=2.029314134071224e-06, conjugate=False)
@example(lattice=L31, boost=1.1191958290069863, phi=0.7853981567546028, psi=0.8718998972874098,
         s=2.927832886464482e-06, t=8.978203313449174e-09, conjugate=False)
@example(lattice=L31, boost=0.9540482201398184, phi=0.4521985439701441, psi=math.pi / 2,
         s=9.662438823268369e-08, t=0.0006706967510231372, conjugate=True)
@given(
    lattice=st.sampled_from([U3, L31]),
    boost=st.floats(0, 2),
    phi=_ANGLES,
    psi=_ANGLES,
    s=_SCALES,
    t=_SCALES,
    conjugate=st.booleans(),
)
def test_chain_near_degenerate_pairs_connect_or_raise(lattice, boost, phi, psi, s, t, conjugate):
    # away from degeneracy every pair connects; in the degenerate tails a
    # pair may also raise DomainError or NumericalError, never anything else
    pair = _near_degenerate_pair(lattice, boost, phi, psi, s, t, conjugate)
    assume(pair is not None)
    separated = min(s, t) >= 0.01 and min(abs(phi - math.pi / 4), abs(psi - math.pi / 4)) >= 0.01
    try:
        _connect_and_verify(*pair)
    except (DomainError, NumericalError) as err:
        assert not separated


def test_chain_near_degenerate_sweep_connects():
    # seeded draws from the same family, tails included: every pair connects
    rng = np.random.default_rng(7)
    tails = 0
    for i in range(300):
        angles = [rng.uniform(0, math.pi / 2) if rng.random() < 0.5
                  else math.pi / 4 + rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -2) for _ in range(2)]
        scales = [rng.uniform(0.01, 10) if rng.random() < 0.5 else 10 ** rng.uniform(-12, -2) for _ in range(2)]
        pair = _near_degenerate_pair((U3, L31)[i % 2], rng.uniform(0, 2), *angles, *scales, rng.random() < 0.5)
        if pair is not None:
            _connect_and_verify(*pair)
            tails += min(scales) < 0.01 or min(abs(a - math.pi / 4) for a in angles) < 0.01
    assert tails >= 100


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


def test_chain_same_point_k3_has_no_links():
    z1 = per.sample_period_point(K3, 100)
    assert len(per.chain_connect(z1, z1)) == 0


def test_sampled_line_feeds_twistor_plane():
    z = per.sample_period_point(U3, 3)
    ell = per.sample_irrational_line(z, height=50, relation_tol=1e-9, seed=7)
    p = per.twistor_plane(z, ell)
    assert per.conic_contains(p, z)


# -- cached derived arrays and read-only period objects --------------------------------


def test_period_objects_hold_read_only_arrays():
    z = per.sample_period_point(U3, 3)
    plane = per.orient_three_plane(U3, [E1F1, E2F2, E3F3])
    src = z.re + 0.0
    built = per.PeriodPoint(U3, src, [float(x) for x in z.im])  # writable and list inputs
    replaced = dataclasses.replace(plane, frame=plane.frame[[1, 0, 2]])  # a fancy-indexed copy
    arrays = [z.re, z.im, z.plane_frame(), built.re, built.im, built.plane_frame()]
    arrays += [plane.frame, replaced.frame, z.conjugate().im, per.point_to_plane(z).a]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # a writable input is stored as a copy, so writing to it later moves nothing
    src[0] += 1.0
    assert built.re[0] == z.re[0] and per.same_period_point(built, z)
    # arrays that are already read-only are kept as they are
    assert per.PeriodPoint(U3, z.re, z.im).re is z.re


def test_copied_and_unpickled_period_objects_are_rebuilt():
    z = per.sample_period_point(K3, 3)
    plane = per.orient_three_plane(U3, [E1F1, E2F2, E3F3])
    assert per.same_period_point(z, z) and plane._frame_g.shape == (3, 6)  # fills every cache
    assert {"_frame", "_frame_g", "_frame_norm"} <= set(vars(z)) and "_frame_g" in vars(plane)
    for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        w, p = copy_of(z), copy_of(plane)
        assert not {"_frame", "_frame_g", "_frame_norm"} & set(vars(w)) and "_frame_g" not in vars(p)
        for arr in (w.re, w.im, p.frame):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1.0
        assert w.lattice == z.lattice and per.same_period_point(w, z)
        assert w.re.tobytes() == z.re.tobytes() and w.im.tobytes() == z.im.tobytes()
        assert p.lattice == plane.lattice and p.frame.tobytes() == plane.frame.tobytes()
        assert p.spin_positive == plane.spin_positive


def test_norm_kernel_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 22))
    cases = [m[0], m, m.T, m[:, ::3], m.T[::2], 1e-160 * m, 1e150 * m.T, np.zeros(22), np.zeros((2, 5))]
    for a in cases:
        want = np.linalg.norm(a)
        got = per._norm(a)
        assert type(got) is type(want) is np.float64
        assert got.tobytes() == want.tobytes()


def test_spectrum_is_computed_once_per_lattice(monkeypatch):
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a.shape) or eigh(a, *args))
    for cache in (per._spectrum, per.reference_plane, per._reference_image):
        cache.cache_clear()
    for seed in range(50):
        per.sample_period_point(K3, seed)
    per.reference_plane(K3)
    assert calls == [(22, 22)]


def _uncached_span_residual(L, frame, v):
    """span_residual as the uncached expressions: the frame's G-image rebuilt on every call."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    return float(np.linalg.norm(v - (frame @ per.gram_float(L) @ v) @ frame) / nv)


def _uncached_conic_contains(P, z, tol):
    return all(_uncached_span_residual(P.lattice, P.frame, v) < tol.orth for v in (z.re, z.im))


def _uncached_same_point(z1, z2):
    f1, f2 = np.vstack([z1.re, z1.im]), np.vstack([z2.re, z2.im])
    m = f1 @ per.gram_float(z1.lattice) @ f2.T
    res = np.linalg.norm(m.T @ f1 - f2)
    return bool(res < per._POINT_TOL * max(np.linalg.norm(f1), np.linalg.norm(f2)) and np.linalg.det(m) > 0)


def _uncached_orientation_det(L, frame):
    return float(np.linalg.det(per.reference_plane(L) @ per.gram_float(L) @ frame.T))


def _uncached_verify(chain, source, target, tol):
    """verify_chain's checks on the uncached expressions: the failure message, or None."""
    g = per.gram_float(source.lattice)
    prev = source
    for link in chain.links:
        mineig = float(np.linalg.eigvalsh(link.plane.frame @ g @ link.plane.frame.T)[0])
        if mineig <= tol.pos:
            return f"chain plane fails positivity ({mineig:.3e})"
        for end, where in ((link.entry, "entry"), (link.exit, "exit")):
            if not _uncached_conic_contains(link.plane, end, tol):
                return f"chain {where} point is off its conic"
        if not _uncached_same_point(prev, link.entry):
            return "chain links do not share junction points"
        prev = link.exit
    return None if _uncached_same_point(prev, target) else "chain does not end at the target"


def _verdict(chain, source, target, tol):
    try:
        per.verify_chain(chain, source, target, tol)
    except NumericalError as err:
        return str(err)
    return None


def test_cached_predicates_agree_with_the_uncached_expressions():
    tight = DEFAULT_TOL.replace(orth=1e-15)  # fails some conic checks, so both verdicts occur
    verdicts = set()
    for lattice in (K3, U3):
        for s in range(100):
            z1, z2, z3 = (per.sample_period_point(lattice, 3 * s + i) for i in range(3))
            chain = per.chain_connect(z1, z2)
            for P in [link.plane for link in chain.links]:
                d = _uncached_orientation_det(lattice, P.frame)
                assert float(np.linalg.det(per._reference_image(lattice) @ P.frame.T)) == d
                assert per.orientation_flag(lattice, P.frame) == (1 if d > 0 else -1)
                gram3 = P.frame @ per.gram_float(lattice) @ P.frame.T
                assert (P._frame_g @ P.frame.T).tobytes() == gram3.tobytes()
                for z in (z1, z2, z3, chain.links[0].exit):
                    for v in (z.re, z.im):
                        want = _uncached_span_residual(lattice, P.frame, v)
                        assert per._span_residual(P.frame, P._frame_g, v) == want
                        assert per.span_residual(lattice, P.frame, v) == want
                    for tol in (DEFAULT_TOL, CHAIN_TOL, tight):
                        assert per.conic_contains(P, z, tol) == _uncached_conic_contains(P, z, tol)
            for a, b in ((z1, z2), (z1, z1), (z2, z2.conjugate()), (chain.links[-1].exit, z2)):
                assert per.same_period_point(a, b) == _uncached_same_point(a, b)
            for target in (z2, z3):
                for tol in (DEFAULT_TOL, CHAIN_TOL, tight):
                    verdict = _verdict(chain, z1, target, tol)
                    assert verdict == _uncached_verify(chain, z1, target, tol)
                    verdicts.add(verdict)
    assert None in verdicts and "chain does not end at the target" in verdicts
    assert len(verdicts) >= 3


def test_chain_demo_connects_every_pair(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "chain_demo.py"
    spec = importlib.util.spec_from_file_location("chain_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", ["chain_demo.py", "--pairs", "12", "--seed", "5"])
    assert demo.main() == 0
    out = capsys.readouterr().out
    assert re.search(r"^pairs connected : 12$", out, re.M)
    counts = {int(k): int(n) for k, n in re.findall(r"^(\d+) links\s*: (\d+)$", out, re.M)}
    assert set(counts) <= {1, 2, 3} and sum(counts.values()) == 12


# -- closed-form small algebra --------------------------------------------------
# References for the closed forms, as plain loops: q-Gram-Schmidt with an
# eigenvalue positivity test for orient_three_plane, and the sampling loop
# that sends every candidate to orthonormal_pair.

# the minimal signature (3, 0): no negative part to mix in
L30 = lat.QuadLattice.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]])


def _gram_schmidt_three_plane(L, vectors, tol=DEFAULT_TOL):
    """orient_three_plane as q-Gram-Schmidt with an eigenvalue positivity test."""
    g = per.gram_float(L)
    normalized = []
    for v in (np.asarray(v, dtype=float) for v in vectors):
        nv = np.linalg.norm(v)
        if nv == 0:
            raise DomainError("zero vector in span")
        normalized.append(v / nv)
    unit = np.array(normalized)
    mineig = float(np.linalg.eigvalsh(unit @ g @ unit.T)[0])
    if mineig <= tol.pos:
        raise DomainError(f"span is not a positive 3-plane (min Gram eigenvalue {mineig:.3e})")
    rows = []
    for v in normalized:
        w = v.copy()
        for u in rows:
            w = w - (u @ g @ w) * u
        qw = float(w @ g @ w)
        if qw <= tol.pos:
            raise DomainError(f"span is numerically degenerate (residual q-norm {qw:.3e})")
        rows.append(w / np.sqrt(qw))
    frame = np.array(rows)
    d = float(np.linalg.det(per.reference_plane(L) @ g @ frame.T))
    return frame, d > 0


def _outcome(build, L, vectors, tol):
    """(frame, spin flag) of a successful build, or the error type and message head."""
    try:
        out = build(L, vectors, tol)
    except DomainError as err:
        return type(err), str(err).split(" (")[0]
    return (out.frame, out.spin_positive) if isinstance(out, per.PositiveThreePlane) else out


def _positive_span(L, rng, mix):
    """Three seeded vectors of the positive eigenspace, each with a negative part of size ``mix``."""
    _, _, pos, neg = per._spectrum(L)
    return [pos @ rng.standard_normal(3) + mix * (neg @ rng.standard_normal(neg.shape[1])) for _ in range(3)]


def _matches_gram_schmidt(L, vectors, tol=DEFAULT_TOL):
    """orient_three_plane against the reference: the same error type and message head, or
    the same spin flag and a frame within 8 eps / lambda relative, for lambda the least
    eigenvalue of the unit rows' q-gram (below 1e-13 once lambda > 0.02), and q-orthonormal
    to 1e-12 per unit of |frame|^2 however small lambda is. Returns which of the two it was."""
    want = _outcome(_gram_schmidt_three_plane, L, vectors, tol)
    got = _outcome(per.orient_three_plane, L, vectors, tol)
    if isinstance(want[0], type):
        assert got == want
        return "error"
    unit = np.array([v / np.linalg.norm(v) for v in vectors])
    lam = np.linalg.eigvalsh(unit @ per.gram_float(L) @ unit.T)[0]
    assert np.abs(got[0] - want[0]).max() <= 8 * np.finfo(float).eps / lam * np.abs(want[0]).max()
    assert got[1] == want[1]
    assert np.abs(got[0] @ per.gram_float(L) @ got[0].T - np.eye(3)).max() <= 1e-12 * np.sum(got[0] ** 2)
    return "frame"


def test_orient_three_plane_matches_gram_schmidt(monkeypatch):
    rng = np.random.default_rng(28)
    outcomes = []
    for L in (K3, U3, L31, L30):
        for mix in (0.0, 0.05, 0.2):
            for _ in range(60):
                outcomes.append(_matches_gram_schmidt(L, _positive_span(L, rng, mix) * rng.uniform(0.01, 100, (3, 1))))
    assert outcomes.count("frame") > 500 and "error" in outcomes
    # the spans chain_connect hands orient_three_plane on seeded pairs: within 1e-13
    orient, built = per.orient_three_plane, []
    monkeypatch.setattr(per, "orient_three_plane", lambda L, vs, tol: built.append((L, vs, orient(L, vs, tol))) or built[-1][2])
    for L in (K3, U3):
        for s in range(100):
            per.chain_connect(per.sample_period_point(L, 2 * s), per.sample_period_point(L, 2 * s + 1))
    assert len(built) > 400
    for L, vectors, got in built:
        want = _gram_schmidt_three_plane(L, vectors)
        assert np.abs(got.frame - want[0]).max() <= 1e-13 * np.abs(want[0]).max()
        assert got.spin_positive == want[1]


def test_orient_three_plane_fails_like_gram_schmidt():
    ref = per.reference_plane(U3)
    neg = np.array([1, -1, 0, 0, 0, 0], dtype=float)
    cases = [
        [E1F1, np.zeros(6), E3F3],  # zero vector
        [E1F1, E2F2, E1F1 + E2F2],  # degenerate
        [E1F1, 2 * E1F1, E3F3],  # a repeated line
        [E1F1, E2F2, neg],  # indefinite
        [neg, -neg, 3 * neg],  # negative
        [ref[0], ref[1], ref[0] + 1e-12 * ref[2]],  # positive only below tol.pos
    ]
    for vectors in cases:
        assert _matches_gram_schmidt(U3, vectors) == "error"


def test_orient_three_plane_on_near_degenerate_spans():
    # the third vector delta off span(first two), under tol.pos from the
    # default down to below the spans' least eigenvalue ~ delta^2: the
    # substitution cancels, so frames take the second pass
    rng = np.random.default_rng(7)
    outcomes = set()
    for L in (K3, U3):
        g = per.gram_float(L)
        for delta in np.logspace(-7, -3, 41):
            a, b, c = _positive_span(L, rng, 0.1)
            c = c - (c @ g @ a) / (a @ g @ a) * a
            w = rng.uniform(-1, 1) * a + rng.uniform(-1, 1) * b
            vectors = [a, b, w / np.linalg.norm(w) + delta * c / np.linalg.norm(c)]
            for pos in (1e-6, 1e-12, 1e-16):
                outcomes.add(_matches_gram_schmidt(L, vectors, DEFAULT_TOL.replace(pos=pos)))
    assert outcomes == {"error", "frame"}


def test_closed_form_determinant_signs_match_lapack():
    rng = np.random.default_rng(5)
    mats = []
    for L in (K3, U3, L31):
        for s in range(40):
            try:
                frame = per.orient_three_plane(L, _positive_span(L, rng, 0.05)).frame
            except DomainError:
                continue
            turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]  # a rotation or a reflection
            for f in (frame, frame[[1, 0, 2]], turn @ frame):
                mats.append(per._reference_image(L) @ f.T)
                mats.append(frame @ per.gram_float(L) @ f.T)  # conic_point's transition matrix
    mats += [rng.standard_normal((3, 3)) for _ in range(200)]
    for m in mats:
        assert (per._det3(m.tolist()) > 0) == (np.linalg.det(m) > 0)
    # the 2 x 2 sign in same_period_point: conjugates have det -1, rotations det +1
    for L in (K3, U3, L31):
        for s in range(100):
            z = per.sample_period_point(L, s)
            t = rng.uniform(0, 2 * math.pi)
            turned = per.PeriodPoint(L, math.cos(t) * z.re + math.sin(t) * z.im, math.cos(t) * z.im - math.sin(t) * z.re)
            for w, same in ((z, True), (turned, True), (z.conjugate(), False), (turned.conjugate(), False)):
                assert per.same_period_point(z, w) == same == _uncached_same_point(z, w)


def _unscreened_sample(L, seed, tol=DEFAULT_TOL):
    """sample_period_point's loop with every candidate sent to orthonormal_pair."""
    rng = np.random.default_rng(seed)
    _, _, pos, neg = per._spectrum(L)
    a_pos = pos @ rng.standard_normal(pos.shape[1])
    b_pos = pos @ rng.standard_normal(pos.shape[1])
    a_neg = neg @ rng.standard_normal(neg.shape[1]) if neg.shape[1] else 0.0
    b_neg = neg @ rng.standard_normal(neg.shape[1]) if neg.shape[1] else 0.0
    eps = 0.6
    for _ in range(40):
        try:
            a1, b1 = per.orthonormal_pair(L, a_pos + eps * a_neg, b_pos + eps * b_neg, tol)
            return per.period_point(L, a1, b1, tol)
        except DomainError:
            eps *= 0.5
    raise NumericalError("failed to sample a positive 2-plane")


def test_screened_sampling_is_bit_identical_to_the_unscreened_loop():
    for L in (K3, U3, L31, L30):
        for seed in range(2000):
            want, got = _unscreened_sample(L, seed), per.sample_period_point(L, seed)
            assert got.re.tobytes() == want.re.tobytes() and got.im.tobytes() == want.im.tobytes()


def test_sampling_calls_orthonormal_pair_only_for_the_accepted_candidate(monkeypatch):
    pair, calls = per.orthonormal_pair, []
    monkeypatch.setattr(per, "orthonormal_pair", lambda *args: calls.append(1) or pair(*args))
    for L in (K3, U3):
        for seed in range(1000):
            calls.clear()
            per.sample_period_point(L, seed)
            assert len(calls) == 2  # the accepted pair, and period_point's own


@pytest.mark.parametrize("seeds, links, most", [((0, 1), 2, 4), ((8, 9), 3, 7)])
def test_chain_job_makes_few_lapack_calls(monkeypatch, seeds, links, most):
    # a job as the period-chains workload runs it; LAPACK is left to the
    # union and correlation SVDs, the complement's svd and eigh, and
    # verify_chain's independent eigvalsh per link
    z1, z2 = (per.sample_period_point(K3, s) for s in seeds)  # fills the per-lattice caches
    calls = []
    for name in ("svd", "eigvalsh", "eigh", "det"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    z1, z2 = (per.sample_period_point(K3, s) for s in seeds)
    chain = per.chain_connect(z1, z2)
    per.verify_chain(chain, z1, z2, tol=CHAIN_TOL)
    assert len(chain) == links
    assert len(calls) <= most, calls
