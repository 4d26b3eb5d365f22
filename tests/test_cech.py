import copy
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeom import cech
from hkgeom import exactlin as ex
from hkgeom.cech import Cochain, FiniteAbelianGroup, Nerve
from hkgeom.errors import DomainError

Z2 = FiniteAbelianGroup((2,))
Z6 = FiniteAbelianGroup((2, 3))


def test_nerve_face_closure_and_validation():
    n = Nerve.from_simplices([(0, 1, 2)])
    assert (0, 1) in n.simplices
    assert (2,) in n.simplices
    assert n.dimension() == 2
    with pytest.raises(DomainError):
        Nerve(vertices=(0, 1, 2), simplices=frozenset({(0, 1, 2)}))  # faces missing
    with pytest.raises(DomainError):
        Nerve.from_simplices([(0, 1, 2, 3, 4)])  # dimension cap


def test_octahedron_counts():
    n = cech.octahedron_nerve()
    assert len(n.vertices) == 6
    assert len(n.simplices_of_dim(1)) == 12
    assert len(n.simplices_of_dim(2)) == 8
    assert n.simplices_of_dim(3) == []


def test_group_arithmetic():
    assert Z6.reduce((5, 7)) == (1, 1)
    assert Z6.add((1, 2), (1, 2)) == (0, 1)
    assert Z6.neg((1, 1)) == (1, 2)
    assert Z6.order == 6
    with pytest.raises(DomainError):
        FiniteAbelianGroup((0,))


def test_alternation_sign():
    n = cech.full_triangle_nerve()
    g = FiniteAbelianGroup((5,))
    c = Cochain.from_dict(n, g, 1, {(0, 1): (2,)})
    assert c.value((0, 1)) == (2,)
    assert c.value((1, 0)) == (3,)
    assert c.value((0, 0)) == (0,)


def test_coboundary_examples():
    n = cech.full_triangle_nerve()
    c0 = Cochain.from_dict(n, Z2, 0, {(0,): (1,), (1,): (1,), (2,): (1,)})
    assert cech.coboundary(c0).is_zero()  # constant 0-cochain
    c1 = Cochain.from_dict(n, Z2, 1, {(0, 1): (1,)})
    d1 = cech.coboundary(c1)
    assert cech.is_cocycle(d1)
    hollow = Nerve.from_simplices([(0, 1), (1, 2), (0, 2)])
    ch = Cochain.from_dict(hollow, Z2, 1, {(0, 1): (1,)})
    assert cech.coboundary(ch).values == ()  # no 2-simplices
    two = Cochain.from_dict(n, Z2, 2, {(0, 1, 2): (1,)})
    with pytest.raises(DomainError):
        cech.coboundary(two)  # degree overflow


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 1),
    st.randoms(use_true_random=False),
)
def test_d_squared_zero_random_nerves(gens, degree, rnd):
    nerve = Nerve.from_simplices([tuple(sorted(g)) for g in gens])
    group = FiniteAbelianGroup((2, 9))
    data = {
        s: (rnd.randrange(2), rnd.randrange(9))
        for s in nerve.simplices_of_dim(degree)
    }
    c = Cochain.from_dict(nerve, group, degree, data)
    dc = cech.coboundary(c)
    if degree == 0:
        assert cech.coboundary(dc).is_zero() or not nerve.simplices_of_dim(2)
    else:
        assert cech.is_cocycle(dc)


def test_is_cocycle_planted_failure():
    n = Nerve.from_simplices([(0, 1, 2, 3)])  # solid tetrahedron: one 3-simplex
    c = Cochain.from_dict(n, Z2, 2, {(0, 1, 2): (1,)})
    assert not cech.is_cocycle(c)
    z = Cochain.zero(n, Z2, 2)
    assert cech.is_cocycle(z)


def test_cohomology_examples():
    assert cech.cohomology(cech.full_triangle_nerve(), Z2, 2) == ()
    octa = cech.octahedron_nerve()
    assert cech.cohomology(octa, Z2, 0) == (2,)
    assert cech.cohomology(octa, Z2, 1) == ()
    assert cech.cohomology(octa, Z2, 2) == (2,)
    two_points = Nerve.from_simplices([(0,), (1,)])
    assert cech.cohomology(two_points, Z2, 0) == (2, 2)
    assert cech.cohomology(two_points, Z6, 0) == (6, 6)


def test_cohomology_octahedron_various_groups():
    octa = cech.octahedron_nerve()
    assert cech.cohomology(octa, Z6, 2) == (6,)
    assert cech.cohomology(octa, FiniteAbelianGroup((4,)), 2) == (4,)


def test_solve_full_triangle_all_cocycles():
    n = cech.full_triangle_nerve()
    for val in [(0,), (1,)]:
        c = Cochain.from_dict(n, Z2, 2, {(0, 1, 2): val})
        assert cech.is_cocycle(c)  # vacuous: no 3-simplices
        res = cech.solve_coboundary(c)
        assert res.solved
        assert cech.coboundary(res.solution).sub(c).is_zero()


def test_solve_zero_cocycle_gives_zero():
    # the second nerve has edges and no faces: the solution is the zero 1-cochain
    for n in (cech.octahedron_nerve(), Nerve.from_simplices([(0, 1), (1, 2)])):
        res = cech.solve_coboundary(Cochain.zero(n, Z2, 2))
        assert res.solved
        assert res.solution.is_zero()


def test_octahedron_fundamental_cocycle_obstructed():
    n = cech.octahedron_nerve()
    faces = n.simplices_of_dim(2)
    c = Cochain.from_dict(n, Z2, 2, {faces[0]: (1,)})  # total sum over faces = 1
    res = cech.solve_coboundary(c)
    assert not res.solved
    assert res.presentation == (2,)
    assert res.obstruction == (1,)


def _gf2_in_rowspace(rows, target):
    """Membership of target in the GF(2) span of rows (independent oracle)."""
    rows = [list(r) for r in rows]
    target = list(target)
    piv = 0
    ncols = len(target)
    for col in range(ncols):
        hit = next((i for i in range(piv, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        for i in range(len(rows)):
            if i != piv and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[piv])]
        if target[col]:
            target = [(a + b) % 2 for a, b in zip(target, rows[piv])]
        piv += 1
    return not any(target)


NERVES_6 = [
    cech.octahedron_nerve(),
    cech.full_triangle_nerve(),
    Nerve.from_simplices([(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)]),  # S^2 tetra
    Nerve.from_simplices([(0, 1, 2), (2, 3, 4), (4, 5, 0)]),
    Nerve.from_simplices([(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]),  # cone over square
]


def test_solver_matches_gf2_oracle_exhaustively():
    for nerve in NERVES_6:
        assert len(nerve.vertices) <= 6
        faces = nerve.simplices_of_dim(2)
        edges = nerve.simplices_of_dim(1)
        d1 = nerve.coboundary_matrix(1)
        # rows of the GF(2) coboundary image, one per edge generator
        image_rows = [
            [d1[r][j] % 2 for r in range(len(faces))] for j in range(len(edges))
        ]
        for bits in itertools.product((0, 1), repeat=len(faces)):
            c = Cochain.from_dict(
                nerve, Z2, 2, {s: (b,) for s, b in zip(faces, bits)}
            )
            if not cech.is_cocycle(c):
                continue
            res = cech.solve_coboundary(c)
            assert res.solved == _gf2_in_rowspace(image_rows, list(bits))
            if res.solved:
                assert cech.coboundary(res.solution).sub(c).is_zero()


def test_solution_translation_consistency():
    # translating a solvable cocycle by d(y) changes the solution by y up to a 1-cocycle
    n = cech.full_triangle_nerve()
    g = FiniteAbelianGroup((4,))
    rng = random.Random(9)
    for _ in range(10):
        y = Cochain.from_dict(
            n, g, 1, {s: (rng.randrange(4),) for s in n.simplices_of_dim(1)}
        )
        c = cech.coboundary(y)
        res = cech.solve_coboundary(c)
        assert res.solved
        diff = res.solution.sub(y)
        # d(diff) = c - c = 0: diff is a 1-cocycle
        assert cech.coboundary(diff).is_zero()


def test_gluing_replay():
    # arbitrary transition data f has defect cocycle c = d(f); correcting by a
    # solution x of d(x) = c makes the recomputed defect identically zero
    rng = random.Random(21)
    for nerve in NERVES_6:
        g = Z6
        f = Cochain.from_dict(
            nerve,
            g,
            1,
            {s: (rng.randrange(2), rng.randrange(3)) for s in nerve.simplices_of_dim(1)},
        )
        defect = cech.coboundary(f)
        assert cech.is_cocycle(defect)
        res = cech.solve_coboundary(defect)
        assert res.solved
        corrected = f.sub(res.solution)
        assert cech.coboundary(corrected).is_zero()


def test_solve_rejects_non_cocycle():
    n = Nerve.from_simplices([(0, 1, 2, 3)])
    c = Cochain.from_dict(n, Z2, 2, {(0, 1, 2): (1,)})
    with pytest.raises(DomainError):
        cech.solve_coboundary(c)


def test_solve_multi_factor_group():
    octa = cech.octahedron_nerve()
    faces = octa.simplices_of_dim(2)
    # obstructed in the Z/2 part, solvable in the Z/3 part
    c = Cochain.from_dict(octa, Z6, 2, {faces[0]: (1, 0)})
    res = cech.solve_coboundary(c)
    assert not res.solved
    assert res.presentation == (2,)
    assert res.obstruction == (1,)
    # coboundary data is solvable in both parts
    rng = random.Random(3)
    y = Cochain.from_dict(
        octa, Z6, 1, {s: (rng.randrange(2), rng.randrange(3)) for s in octa.simplices_of_dim(1)}
    )
    res2 = cech.solve_coboundary(cech.coboundary(y))
    assert res2.solved


# closed surfaces: the octahedral S^2, the 7-vertex (Moebius-Csaszar) torus and
# the 6-vertex (hemi-icosahedral) RP^2
SURFACES = {
    "sphere": cech.octahedron_nerve(),
    "torus": Nerve.from_simplices(
        [tuple(sorted((i + a) % 7 for a in tri)) for i in range(7) for tri in ((0, 1, 3), (0, 2, 3))]
    ),
    "rp2": Nerve.from_simplices(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
         (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    ),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_integer_v_inverse_on_surfaces(name):
    nerve = SURFACES[name]
    for degree in (0, 1, 2):
        a_mat = nerve.coboundary_matrix(degree)
        n = len(nerve.simplices_of_dim(degree))
        v = ex.smith_normal_form(a_mat)[2] if a_mat else [[int(i == j) for j in range(n)] for i in range(n)]
        vinv = cech._cohomology_data(nerve, 4, degree)[0]
        assert ex.mat_mul(v, vinv) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_surface_cohomology_by_universal_coefficients():
    z4 = FiniteAbelianGroup((4,))
    assert [cech.cohomology(SURFACES["torus"], z4, d) for d in (0, 1, 2)] == [(4,), (4, 4), (4,)]
    assert [cech.cohomology(SURFACES["rp2"], z4, d) for d in (0, 1, 2)] == [(4,), (2,), (2,)]
    assert [cech.cohomology(SURFACES["rp2"], Z2, d) for d in (0, 1, 2)] == [(2,), (2,), (2,)]


def _rational_obstruction(nerve, k, rhs):
    """Obstruction coordinates by the rational formula K^-1 = (V diag(scales))^-1 over Q."""
    n = len(nerve.simplices_of_dim(2))
    a_mat = nerve.coboundary_matrix(2)
    if a_mat:
        s, _, v = ex.smith_normal_form(a_mat)
        scales = [k // math.gcd(s[i][i] if i < min(len(s), n) else 0, k) for i in range(n)]
        kv = [[v[r][i] * scales[i] for i in range(n)] for r in range(n)]
    else:
        kv = [[int(i == j) for j in range(n)] for i in range(n)]
    kinv = ex.inverse(ex.frmat(kv))
    b_mat = nerve.coboundary_matrix(1)
    rel_cols = [[row[j] for row in b_mat] for j in range(len(b_mat[0]))]
    rel_cols += [[k * int(i == j) for i in range(n)] for j in range(n)]
    r_mat = [[ex.dot(kinv[i], col) for col in rel_cols] for i in range(n)]
    assert all(x.denominator == 1 for row in r_mat for x in row)
    s_r, u_r, _ = ex.smith_normal_form([[int(x) for x in row] for row in r_mat])
    factors = [s_r[i][i] for i in range(n)]
    y = [ex.dot(row, rhs) for row in kinv]
    assert all(x.denominator == 1 for x in y)
    coords = [sum(a * int(b) for a, b in zip(row, y)) for row in u_r]
    kept = [(f, c % f if f else c) for f, c in zip(factors, coords) if f != 1]
    return tuple(f for f, _ in kept), tuple(c for _, c in kept)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_obstruction_coordinates_match_rational_formula(name):
    nerve = SURFACES[name]
    faces, edges = nerve.simplices_of_dim(2), nerve.simplices_of_dim(1)
    rng = random.Random(len(faces))
    obstructed = 0
    for k in (2, 4, 6):
        group = FiniteAbelianGroup((k,))
        for _ in range(6):
            x0 = Cochain.from_dict(nerve, group, 1, {e: (rng.randrange(k),) for e in edges})
            data = dict(cech.coboundary(x0).as_dict())
            f = rng.choice(faces)
            data[f] = ((data[f][0] + rng.randrange(1, k)) % k,)
            c = Cochain.from_dict(nerve, group, 2, data)
            res = cech.solve_coboundary(c)
            if res.solved:
                continue
            obstructed += 1
            rhs = [c.as_dict()[s][0] for s in faces]
            assert (res.presentation, res.obstruction) == _rational_obstruction(nerve, k, rhs)
    assert obstructed >= 6


def _fresh(nerve):
    return Nerve(nerve.vertices, nerve.simplices)


def _cech_results(nerve, group, cochains):
    """Cohomology in degrees 0..2 and the solutions of the cochains, moved to ``nerve``."""
    solved = [cech.solve_coboundary(Cochain(nerve, group, 2, c.values)) for c in cochains]
    return [cech.cohomology(nerve, group, d) for d in (0, 1, 2)], solved


@pytest.mark.parametrize("factors", [(2,), (4,), (2, 3, 4)])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_smith_forms_kept_by_a_nerve_change_no_result(name, factors, monkeypatch):
    group = FiniteAbelianGroup(factors)
    nerve = _fresh(SURFACES[name])
    faces, edges = nerve.simplices_of_dim(2), nerve.simplices_of_dim(1)
    rng = random.Random(7)
    x0 = Cochain.from_dict(nerve, group, 1, {e: tuple(rng.randrange(k) for k in factors) for e in edges})
    bumped = dict(cech.coboundary(x0).as_dict())
    bumped[faces[0]] = group.add(bumped[faces[0]], (1,) * len(factors))
    cochains = [cech.coboundary(x0), Cochain.from_dict(nerve, group, 2, bumped)]
    snf_calls = []
    snf = ex.smith_normal_form
    monkeypatch.setattr(ex, "smith_normal_form", lambda a: snf_calls.append(a) or snf(a))
    first = [cech.cohomology(nerve, group, d) for d in (0, 1, 2)], [cech.solve_coboundary(c) for c in cochains]
    assert [c.solved for c in first[1]] == [True, False]
    assert _cech_results(nerve, group, cochains) == first
    assert _cech_results(_fresh(nerve), group, cochains) == first
    # each nerve reduces its coboundary matrices of degree 0 and 1 once (degree 2 has no rows)
    coboundaries = [nerve.coboundary_matrix(d) for d in (0, 1)]
    assert [sum(a == c for a in snf_calls) for c in coboundaries] == [2, 2]


def test_cohomology_data_hands_out_no_shared_mutable_state():
    nerve = _fresh(SURFACES["torus"])
    for degree in (0, 1, 2):
        first = cech._cohomology_data(nerve, 4, degree)
        expected = copy.deepcopy(first)
        vinv, scales, u_r, factors = first
        with pytest.raises(TypeError):
            vinv[0][0] += 1
        with pytest.raises(TypeError):
            vinv[0] = vinv[1]
        for row in (scales, factors, *u_r):
            row[:] = [x + 1 for x in row]
        assert cech._cohomology_data(nerve, 4, degree) == expected
        assert nerve.coboundary_smith_form(degree) == _fresh(nerve).coboundary_smith_form(degree)
    assert [cech.cohomology(nerve, FiniteAbelianGroup((4,)), d) for d in (0, 1, 2)] == [(4,), (4, 4), (4,)]


def _bumped_cocycles(nerve, ks, seed):
    """Per k: d(x0) for a random 1-cochain x0 with one face moved by 1 (obstructed iff H^2 sees the face)."""
    faces, edges = nerve.simplices_of_dim(2), nerve.simplices_of_dim(1)
    rng = random.Random(seed)
    out = []
    for k in ks:
        group = FiniteAbelianGroup((k,))
        x0 = Cochain.from_dict(nerve, group, 1, {e: (rng.randrange(k),) for e in edges})
        data = dict(cech.coboundary(x0).as_dict())
        data[faces[0]] = ((data[faces[0]][0] + 1) % k,)
        out.append(Cochain.from_dict(nerve, group, 2, data))
    return out


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_second_round_over_a_nerve_makes_no_smith_form(name, monkeypatch):
    ks = (2, 3, 4, 6)
    nerve = _fresh(SURFACES[name])
    cochains = _bumped_cocycles(nerve, ks, 5)

    def one_round():
        groups = [FiniteAbelianGroup((k,)) for k in ks]
        return [cech.cohomology(nerve, g, d) for g in groups for d in (0, 1, 2)], [
            cech.solve_coboundary(c) for c in cochains
        ]

    first = one_round()
    assert not all(res.solved for res in first[1])
    snf_calls = []
    snf = ex.smith_normal_form
    monkeypatch.setattr(ex, "smith_normal_form", lambda a: snf_calls.append(a) or snf(a))
    assert one_round() == first
    assert snf_calls == []


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_presentations_interleaved_over_k_and_degree_match_fresh_nerves(name):
    # a key that dropped k or degree would hand one pair's presentation to another
    ks = (2, 3, 4, 6)
    nerve = _fresh(SURFACES[name])
    pairs = [(k, d) for k in ks for d in (0, 1, 2)]
    random.Random(len(name)).shuffle(pairs)
    cochains = dict(zip(ks, _bumped_cocycles(nerve, ks, 11)))
    for k, degree in pairs + pairs[::-1]:
        assert cech._cohomology_data(nerve, k, degree) == cech._cohomology_data(_fresh(nerve), k, degree)
        group = FiniteAbelianGroup((k,))
        assert cech.cohomology(nerve, group, degree) == cech.cohomology(_fresh(nerve), group, degree)
        c = cochains[k]
        assert cech.solve_coboundary(c) == cech.solve_coboundary(Cochain(_fresh(nerve), group, 2, c.values))
