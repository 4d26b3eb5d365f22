import copy
import itertools
import json
import math
import random
import re
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgeom import cech, cli
from hkgeom import exactlin as ex
from hkgeom.cech import Cochain, FiniteAbelianGroup, Nerve
from hkgeom.errors import DomainError, InternalInconsistencyError

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


def test_groups_refuse_bools_and_non_integers():
    for factor in (2.5, 2.0, True, np.bool_(True)):
        with pytest.raises(DomainError):
            FiniteAbelianGroup((factor,))
    octa = cech.octahedron_nerve()
    face = octa.simplices_of_dim(2)[0]
    for entry in (1.7, 1.0, True):
        with pytest.raises(DomainError):
            Cochain.from_dict(octa, Z2, 2, {face: (entry,)})
        with pytest.raises(DomainError):
            Z2.reduce((entry,))
    z4 = FiniteAbelianGroup((np.int64(4),))
    assert z4 == FiniteAbelianGroup((4,)) and type(z4.factors[0]) is int
    assert cech.cohomology(octa, z4, 2) == (4,)
    value = Cochain.from_dict(octa, z4, 2, {face: (np.int32(7),)}).as_dict()[face]
    assert value == (3,) and type(value[0]) is int


def test_direct_construction_validates_and_reduces_elements():
    tri = cech.full_triangle_nerve()
    face = (0, 1, 2)
    c = Cochain(tri, Z2, 2, ((face, (2,)),))
    assert c.is_zero() and c == Cochain.zero(tri, Z2, 2)
    for element in ((1.5,), (1, 1), (True,)):
        with pytest.raises(DomainError):
            Cochain(tri, Z2, 2, ((face, element),))
    values = Cochain(tri, FiniteAbelianGroup((4,)), 2, [(face, (np.int64(-1),))]).values
    assert values == ((face, (3,)),) and type(values[0][1][0]) is int
    # from_dict reports a bad element before values on unknown simplices
    with pytest.raises(DomainError, match="wrong number of coordinates"):
        Cochain.from_dict(tri, Z2, 2, {face: (1, 1), (0, 1, 3): (1,)})
    with pytest.raises(DomainError, match="must be an integer"):
        Cochain.from_dict(tri, Z2, 2, {face: (1.5,), (0, 1, 3): (1,)})
    with pytest.raises(DomainError, match="unknown simplices"):
        Cochain.from_dict(tri, Z2, 2, {face: (1,), (0, 1, 3): (1,)})


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


def test_coboundary_matrix_refuses_degrees_outside_the_nerve():
    n = cech.full_triangle_nerve()
    for d in (-1, -2, cech.MAX_DIM + 1):
        with pytest.raises(DomainError, match=rf"coboundary degree must be in 0\.\.{cech.MAX_DIM}, got {d}"):
            n.coboundary_matrix(d)
    assert n.coboundary_matrix(cech.MAX_DIM) == []
    assert n.coboundary_matrix(0) == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]


def test_cochain_value_refuses_simplices_outside_the_nerve():
    hollow = Nerve.from_simplices([(0, 1), (1, 2), (0, 2)])
    c = Cochain.from_dict(hollow, Z6, 1, {(0, 1): (1, 2)})
    assert c.value((1, 0)) == (1, 1) and c.value((1, 1)) == (0, 0)
    # a repeated vertex gives zero only on a simplex of the right length whose vertices are in the nerve
    assert c.value((0, 0)) == (0, 0)
    for simplex in ((0, 3), (0, 1, 2), (2,), (9, 9), (0, 0, 0)):
        with pytest.raises(DomainError, match=rf"^{re.escape(str(simplex))} is not a 1-simplex of the nerve$"):
            c.value(simplex)


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


def _d_by_definition(c):
    """(dc)(s) = sum_i (-1)^i c(s minus vertex i), reduced per factor: the definition, written out."""
    values = c.as_dict()
    out = []
    for s in c.nerve.simplices_of_dim(c.degree + 1):
        total = [0] * c.group.rank
        for i in range(len(s)):
            for f, x in enumerate(values[s[:i] + s[i + 1 :]]):
                total[f] += (-1) ** i * x
        out.append((s, tuple(t % k for t, k in zip(total, c.group.factors))))
    return tuple(out)


NO_FACES = [[0, 1], [1, 2], [0, 2], [2, 3], [4]]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=7,
    ),
    st.sampled_from([(), (2,), (6,), (2, 9), (2, 3, 4), (5, 5)]),
    st.randoms(use_true_random=False),
)
@example([*map(list, cech.octahedron_nerve().simplices_of_dim(2)), [6, 7, 8, 9]], (2, 3, 4), random.Random(1))
@example([[0, 1, 2, 3], [1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4]], (4, 6), random.Random(2))
@example(NO_FACES, (2, 3), random.Random(3))
def test_coboundary_matches_its_definition(gens, factors, rnd):
    # d, the degree-2 cocycle test and coboundary_matrix (d) c mod k all read the face table
    nerve = Nerve.from_simplices([tuple(sorted(g)) for g in gens])
    group = FiniteAbelianGroup(factors)
    for degree in (0, 1, 2):
        data = {s: tuple(rnd.randrange(-k, 2 * k) for k in factors) for s in nerve.simplices_of_dim(degree)}
        c = Cochain.from_dict(nerve, group, degree, data)
        expected = _d_by_definition(c)
        mat = nerve.coboundary_matrix(degree)
        for f, k in enumerate(factors):
            column = [v[f] for _, v in c.values]
            assert [sum(map(mul, row, column)) % k for row in mat] == [v[f] for _, v in expected]
        if degree < 2:
            assert cech.coboundary(c).values == expected
        else:
            assert cech.is_cocycle(c) == all(v == group.zero() for _, v in expected)
            edges = nerve.simplices_of_dim(1)
            x = Cochain.from_dict(nerve, group, 1, {e: tuple(rnd.randrange(k) for k in factors) for e in edges})
            dx = cech.coboundary(x)
            assert cech.is_cocycle(dx) and all(v == group.zero() for _, v in _d_by_definition(dx))


def test_trivial_coefficients_and_nerves_without_faces():
    trivial = FiniteAbelianGroup(())
    for nerve in (cech.octahedron_nerve(), OCTA_TETRA, Nerve.from_simplices(NO_FACES)):
        assert [cech.cohomology(nerve, trivial, d) for d in (0, 1, 2)] == [(), (), ()]
        res = cech.solve_coboundary(Cochain.zero(nerve, trivial, 2))
        assert res.solved and res.obstruction is None and res.presentation == ()
        assert res.solution.values == tuple((e, ()) for e in nerve.simplices_of_dim(1))
    no_faces = Nerve.from_simplices(NO_FACES)
    assert no_faces.coboundary_matrix(1) == [] and no_faces.coboundary_matrix(2) == []
    assert [cech.cohomology(no_faces, Z6, d) for d in (0, 1, 2)] == [(6, 6), (6,), ()]
    res = cech.solve_coboundary(Cochain.zero(no_faces, Z6, 2))
    assert res.solved and res.solution.is_zero() and len(res.solution.values) == 4


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


def test_a_failed_solver_check_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # a zeroed V passes the solvability pass, so only the final d(x) = c check sees it
    kept = Nerve.coboundary_smith_form

    def corrupted(nerve, d):
        diagonal, u, v = kept(nerve, d)
        return (diagonal, u, tuple((0,) * len(row) for row in v)) if d == 1 else (diagonal, u, v)

    monkeypatch.setattr(Nerve, "coboundary_smith_form", corrupted)
    c = Cochain.from_dict(_fresh(cech.full_triangle_nerve()), FiniteAbelianGroup((5,)), 2, {(0, 1, 2): (1,)})
    with pytest.raises(InternalInconsistencyError, match=r"d\(x\) != c"):
        cech.solve_coboundary(c)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "nerve": {"simplices": [[0, 1, 2]]},
        "group": {"factors": [5]},
        "cochain": {"degree": 2, "values": {"0,1,2": [1]}},
    }))
    assert cli.main(["cech", "solve", "-i", str(job)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "internal"


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


def test_surface_cohomology_by_universal_coefficients():
    z4 = FiniteAbelianGroup((4,))
    assert [cech.cohomology(SURFACES["torus"], z4, d) for d in (0, 1, 2)] == [(4,), (4, 4), (4,)]
    assert [cech.cohomology(SURFACES["rp2"], z4, d) for d in (0, 1, 2)] == [(4,), (2,), (2,)]
    assert [cech.cohomology(SURFACES["rp2"], Z2, d) for d in (0, 1, 2)] == [(2,), (2,), (2,)]


def _relation_oracle(nerve, k, degree, rhs=()):
    """H^degree(nerve; Z/k) by a relation matrix over Q: (nontrivial orders, coordinates of rhs in them).

    K = V diag(scales), scales_i = k / gcd(s_i, k), spans the mod-k cocycles
    {x : A x = 0 mod k} for the Smith form U A V = S of A =
    ``coboundary_matrix(degree)``. R writes the columns of B =
    ``coboundary_matrix(degree - 1)`` and k I in K-coordinates K^-1 c, and the
    Smith form of R presents the group. Without rhs the coordinates are zero.
    """
    n = len(nerve.simplices_of_dim(degree))
    if not n:
        return (), ()
    a_mat = nerve.coboundary_matrix(degree)
    if a_mat:
        s, _, v = ex.smith_normal_form(a_mat)
        scales = [k // math.gcd(s[i][i] if i < min(len(s), n) else 0, k) for i in range(n)]
        kv = [[v[r][i] * scales[i] for i in range(n)] for r in range(n)]
    else:
        kv = [[int(i == j) for j in range(n)] for i in range(n)]
    det, kadj = ex.det_adjugate(kv)
    kinv = [[Fraction(x, det) for x in row] for row in kadj]
    rel_cols = [list(col) for col in zip(*nerve.coboundary_matrix(degree - 1))] if degree else []
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


def _oracle_cohomology(nerve, group, degree):
    return tuple(ex.invariant_factors([f for k in group.factors for f in _relation_oracle(nerve, k, degree)[0]]))


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_obstruction_coordinates_match_rational_formula(name):
    # the solver and the oracle take coordinates in different bases, so classes are compared:
    # the same orders, zero exactly on the solvable cocycles, equal exactly when the oracle's are
    nerve = SURFACES[name]
    faces, edges = nerve.simplices_of_dim(2), nerve.simplices_of_dim(1)
    rng = random.Random(len(faces))
    shift = random.Random(len(edges))
    obstructed = 0
    for k in (2, 4, 6):
        group = FiniteAbelianGroup((k,))
        classes = []
        for _ in range(6):
            x0 = Cochain.from_dict(nerve, group, 1, {e: (rng.randrange(k),) for e in edges})
            data = dict(cech.coboundary(x0).as_dict())
            f = rng.choice(faces)
            data[f] = ((data[f][0] + rng.randrange(1, k)) % k,)
            c = Cochain.from_dict(nerve, group, 2, data)
            y = Cochain.from_dict(nerve, group, 1, {e: (shift.randrange(k),) for e in edges})
            for cocycle in (c, c.add(cech.coboundary(y))):
                res = cech.solve_coboundary(cocycle)
                factors, coords = _relation_oracle(nerve, k, 2, [cocycle.as_dict()[s][0] for s in faces])
                assert res.solved == (not any(coords))
                if not res.solved:
                    obstructed += 1
                    assert res.presentation == factors
                    assert any(res.obstruction)
                classes.append((res.obstruction, coords))
        for (a, oracle_a), (b, oracle_b) in itertools.combinations(classes, 2):
            assert (a == b) == (oracle_a == oracle_b)
    assert obstructed >= 6


# the octahedral S^2 beside a solid tetrahedron: coker(d^1 (x) Z/k) holds H^2 and the tetrahedron's boundary
OCTA_TETRA = Nerve.from_simplices([*cech.octahedron_nerve().simplices_of_dim(2), (6, 7, 8, 9)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=7,
    ),
    st.sampled_from([(2,), (4,), (6,), (9,), (2, 3, 4)]),
)
@example([list(s) for s in OCTA_TETRA.simplices_of_dim(2) + OCTA_TETRA.simplices_of_dim(3)], (2, 3, 4))
@example([[0, 1, 2, 3], [1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4]], (4,))  # the 3-sphere
@example([[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 0], [5, 6, 1, 3]], (6,))
def test_cohomology_matches_relation_matrix_oracle(gens, factors):
    nerve = Nerve.from_simplices([tuple(sorted(g)) for g in gens])
    group = FiniteAbelianGroup(factors)
    for degree in (0, 1, 2):
        assert cech.cohomology(nerve, group, degree) == _oracle_cohomology(nerve, group, degree)


def test_obstruction_lives_in_the_cokernel_of_d1():
    # H^2(Z/2) = Z/2 from the octahedron; coker(d^1 (x) Z/2) adds a Z/2 from the tetrahedron's boundary
    faces, edges = OCTA_TETRA.simplices_of_dim(2), OCTA_TETRA.simplices_of_dim(1)
    assert cech.cohomology(OCTA_TETRA, Z2, 2) == (2,)
    c = Cochain.from_dict(OCTA_TETRA, Z2, 2, {faces[0]: (1,)})
    res = cech.solve_coboundary(c)
    assert res.presentation == (2, 2)
    assert any(res.obstruction)
    rng = random.Random(13)
    for _ in range(8):
        y = Cochain.from_dict(OCTA_TETRA, Z2, 1, {e: (rng.randrange(2),) for e in edges})
        assert cech.solve_coboundary(c.add(cech.coboundary(y))) == res


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


def test_coboundary_smith_form_hands_out_no_shared_mutable_state():
    nerve = _fresh(SURFACES["torus"])
    for degree in (0, 1, 2):
        first = nerve.coboundary_smith_form(degree)
        expected = copy.deepcopy(first)
        diagonal, u, v = first
        assert type(diagonal) is tuple
        assert all(type(m) is tuple and all(type(row) is tuple for row in m) for m in (u, v))
        with pytest.raises(TypeError):
            v[0][0] += 1
        with pytest.raises(TypeError):
            v[0] = v[1]
        assert [cech.cohomology(nerve, FiniteAbelianGroup((4,)), d) for d in (0, 1, 2)] == [(4,), (4, 4), (4,)]
        assert nerve.coboundary_smith_form(degree) == expected == _fresh(nerve).coboundary_smith_form(degree)


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


@pytest.mark.parametrize("name", ["octa_tetra", *sorted(SURFACES)])
def test_fresh_nerve_reduces_each_coboundary_at_most_once(name, monkeypatch):
    nerve = _fresh(OCTA_TETRA if name == "octa_tetra" else SURFACES[name])
    cochains = _bumped_cocycles(nerve, (2, 3, 4, 6), 3)
    snf_calls = []
    snf = ex.smith_normal_form
    monkeypatch.setattr(ex, "smith_normal_form", lambda a: snf_calls.append(a) or snf(a))
    for factors in ((2,), (4,), (2, 3, 4)):
        for d in (0, 1, 2):
            cech.cohomology(nerve, FiniteAbelianGroup(factors), d)
    assert not all(cech.solve_coboundary(c).solved for c in cochains)
    coboundaries = [nerve.coboundary_matrix(d) for d in (0, 1, 2)]
    assert all(a in coboundaries for a in snf_calls)
    assert all(sum(a == c for a in snf_calls) <= 1 for c in coboundaries)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_presentations_interleaved_over_k_and_degree_match_fresh_nerves(name):
    # a key that dropped k or degree would hand one pair's presentation to another
    ks = (2, 3, 4, 6)
    nerve = _fresh(SURFACES[name])
    pairs = [(k, d) for k in ks for d in (0, 1, 2)]
    random.Random(len(name)).shuffle(pairs)
    cochains = dict(zip(ks, _bumped_cocycles(nerve, ks, 11)))
    for k, degree in pairs + pairs[::-1]:
        group = FiniteAbelianGroup((k,))
        assert cech.cohomology(nerve, group, degree) == cech.cohomology(_fresh(nerve), group, degree)
        c = cochains[k]
        assert cech.solve_coboundary(c) == cech.solve_coboundary(Cochain(_fresh(nerve), group, 2, c.values))
