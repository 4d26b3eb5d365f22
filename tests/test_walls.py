import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeom import exactlin as ex
from hkgeom import lattice as lat
from hkgeom import period as per
from hkgeom import serialize as ser
from hkgeom import walls as wl
from hkgeom.config import Tolerances
from hkgeom.errors import DomainError

U3 = lat.standard_lattice("U3")
U2M2 = lat.direct_sum(lat.hyperbolic_plane(), lat.hyperbolic_plane(), lat.rank_one(-2))

DIAG_SPAN_U3 = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
DIAG_SPAN_U2M2 = [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]]

E1F1 = np.array([1, 1, 0, 0, 0, 0], dtype=float)
E2F2 = np.array([0, 0, 1, 1, 0, 0], dtype=float)
E3F3 = np.array([0, 0, 0, 0, 1, 1], dtype=float)


def test_majorant_u3_diagonals_is_identity():
    mj = wl.majorant(U3, DIAG_SPAN_U3)
    assert all(isinstance(x, Fraction) for row in mj.matrix for x in row)
    assert [[int(x) for x in row] for row in mj.matrix] == [
        [int(i == j) for j in range(6)] for i in range(6)
    ]
    # the same span in floats is refused: the majorant and the walls are exact-only
    float_span = [[float(x) for x in row] for row in DIAG_SPAN_U3]
    with pytest.raises(DomainError):
        wl.majorant(U3, float_span)
    with pytest.raises(DomainError):
        wl.enumerate_walls_near(U3, float_span, -2, 2)


def test_majorant_values_on_p_and_perp():
    mj = wl.majorant(U3, DIAG_SPAN_U3)
    v_in = [1, 1, 0, 0, 0, 0]
    v_perp = [1, -1, 0, 0, 0, 0]
    assert mj.value(v_in) == U3.q(v_in)
    assert mj.value(v_perp) == -U3.q(v_perp)


def test_majorant_dominates_q():
    mj = wl.majorant(U3, DIAG_SPAN_U3)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        v = rng.standard_normal(6)
        assert mj.value(v) >= abs(per.qform(U3, v)) - 1e-9
    # equality only on P and P-perp: a genuinely mixed vector is strict
    mixed = E1F1 + np.array([1, -1, 0, 0, 0, 0], dtype=float)
    assert mj.value(mixed) > abs(per.qform(U3, mixed)) + 0.5


def test_majorant_rejects_non_maximal_span():
    with pytest.raises(DomainError):
        wl.majorant(U3, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    with pytest.raises(DomainError):
        wl.majorant(U3, [[1, -1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]])


def test_majorant_refuses_span_rows_of_the_wrong_length():
    # a row of 5 or 7 coordinates on U3 is refused before any product, naming the rank
    for span in ([row + [1] for row in DIAG_SPAN_U3], [row[:5] for row in DIAG_SPAN_U3]):
        for call in (lambda: wl.majorant(U3, span), lambda: wl.enumerate_walls_near(U3, span, -2, 4)):
            with pytest.raises(DomainError, match="span rows must have 6 coordinates"):
                call()


def _seeded_nondegenerate_lattices(rng, count):
    found = []
    while len(found) < count:
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] if i != j else rng.choice((0, a[i][i])) for j in range(n)] for i in range(n)]
        if ex.det(sym):
            found.append(lat.QuadLattice.from_rows(sym))
    return found


def test_dual_majorant_is_the_inverse_of_the_majorant():
    # adj M adj / det^2 against the Gauss-Jordan inverse of M, on every positive plane
    lattices = [U3, U2M2, lat.standard_lattice("K3")] + _seeded_nondegenerate_lattices(random.Random(34), 80)
    assert any(L.signature[0] == 0 for L in lattices) and any(L.signature[1] == 0 for L in lattices)
    for L in lattices:
        mj = wl.majorant(L, L.positive_plane)
        assert all(isinstance(x, Fraction) for row in mj.matrix for x in row)
        num, den = mj.dual_matrix()
        assert den > 0 and all(type(x) is int for row in num for x in row)
        # num / den is the inverse of the majorant
        assert ex.mat_mul(num, mj.matrix) == [[den * int(i == j) for j in range(L.rank)] for i in range(L.rank)]
        assert ex.inertia(mj.matrix) == (L.rank, 0, 0)
    thirds = [[Fraction(x, 3) for x in row] for row in DIAG_SPAN_U3]
    assert wl.majorant(U3, thirds) == wl.majorant(U3, DIAG_SPAN_U3)


def test_in_u_eps_examples():
    span = DIAG_SPAN_U3
    # v in P-perp with q(v) < 0: true for every eps
    v_perp = np.array([1, -1, 0, 0, 0, 0], dtype=float)
    for eps in (0.1, 0.5, 0.9):
        assert wl.in_u_eps(U3, span, v_perp, eps)
    # v in P, nonzero: false
    assert not wl.in_u_eps(U3, span, E1F1, 0.5)
    # mixed example: q(v_P) = 0.02, q(v_perp) = -2, condition 0.02 < 1
    v = v_perp + 0.1 * E1F1
    assert wl.in_u_eps(U3, span, v, 0.5)
    with pytest.raises(DomainError):
        wl.in_u_eps(U3, span, v, 1.5)


def test_in_u_eps_refuses_wrong_lengths_and_a_singular_span():
    v = [1, -1, 0, 0, 0, 0]
    for span, vec, message in (
        (DIAG_SPAN_U3[:2], v, "in_u_eps needs 3 span vectors"),
        (DIAG_SPAN_U3, v[:5], "v must have length 6"),
        ([row[:5] for row in DIAG_SPAN_U3], v, "span must have length 6"),
    ):
        with pytest.raises(DomainError, match=message):
            wl.in_u_eps(U3, span, vec, 0.5)
    repeated = [DIAG_SPAN_U3[0], DIAG_SPAN_U3[0], DIAG_SPAN_U3[2]]
    with pytest.raises(DomainError, match="singular gram matrix"):
        wl.in_u_eps(U3, repeated, v, 0.5)


def test_u_eps_monotonicity():
    # q(v_P) >= 0 and q(v_perp) <= 0, so the neighborhoods grow with eps:
    # membership at a smaller eps implies membership at any larger one
    rng = np.random.default_rng(12)
    span = DIAG_SPAN_U3
    for _ in range(200):
        v = rng.standard_normal(6) * 2
        for eps_small, eps_large in ((0.1, 0.5), (0.5, 0.9)):
            if wl.in_u_eps(U3, span, v, eps_small):
                assert wl.in_u_eps(U3, span, v, eps_large)


def test_u_eps_members_are_negative():
    # every member of U_eps is a negative vector, for every eps in (0,1)
    rng = np.random.default_rng(13)
    span = DIAG_SPAN_U3
    hits = 0
    for _ in range(300):
        v = rng.standard_normal(6) * 2
        if wl.in_u_eps(U3, span, v, 0.25):
            assert per.qform(U3, v) < 0
            hits += 1
    assert hits > 5


@pytest.mark.parametrize("d", [-2, -4])
@pytest.mark.parametrize("radius", [2, 4, 8])
def test_enumeration_matches_brute_force_u3(d, radius):
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, d, radius)
    oracle = wl.brute_force_walls(U3, DIAG_SPAN_U3, d, radius, box=6)
    assert [w.coords for w in walls] == [w.coords for w in oracle]
    for w in walls:
        assert w.indivisible
        assert w.dual_value == d


@pytest.mark.parametrize("d", [-2, -4])
@pytest.mark.parametrize("radius", [2, 4, 8])
def test_enumeration_matches_brute_force_u2m2(d, radius):
    walls = wl.enumerate_walls_near(U2M2, DIAG_SPAN_U2M2, d, radius)
    oracle = wl.brute_force_walls(U2M2, DIAG_SPAN_U2M2, d, radius, box=6)
    assert [w.coords for w in walls] == [w.coords for w in oracle]


def test_enumeration_empty_below_minimum():
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -2, "1/2")
    assert walls == []


def test_enumeration_radius_with_a_denominator_past_int64():
    # only the origin is inside; its block once took int64 and overflowed on the denominator
    assert wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -2, Fraction(1, 2**64)) == []


def test_enumeration_sign_symmetric_representatives():
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -2, 8)
    coords = {w.coords for w in walls}
    for c in coords:
        assert tuple(-x for x in c) not in coords
        assert next(x for x in c if x) > 0


def test_enumerated_walls_keep_int_coordinates_and_match_rational_input():
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -2, 8)
    assert walls and all(type(c) is int for w in walls for c in w.coords)
    for w in walls:
        for given in ([Fraction(c) for c in w.coords], [f"{2 * c}/2" for c in w.coords]):
            same = lat.WallForm.from_coords(U3, given)
            assert same == w and hash(same) == hash(w) and same.coords == w.coords
            assert all(type(c) is int for c in same.coords)
            assert ser.encode_wall(same) == ser.encode_wall(w)
    half = lat.WallForm.from_coords(U3, [Fraction(1, 2), "-2/4", 3, 0, 0, 0])
    assert half.coords == (Fraction(1, 2), Fraction(-1, 2), 3, 0, 0, 0)
    assert [type(c) for c in half.coords[:3]] == [Fraction, Fraction, int]
    with pytest.raises(DomainError, match="proportional"):
        wl.WallSet(U3, (walls[0], lat.WallForm.from_coords(U3, [-Fraction(c) for c in walls[0].coords])))


K3_DIAG_SPAN = [[int(j in (2 * i, 2 * i + 1)) for j in range(22)] for i in range(3)]


def _canonical(v):
    return tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)


def _e8_root_functionals():
    """The 240 roots of E8 as dual functionals c = C v, up to sign.

    The roots are the Weyl orbit of the simple roots (the Cartan basis),
    closed under the simple reflections v -> v - (C v)_i e_i.
    """
    cartan = lat.e8_lattice().gram
    roots = {tuple(int(i == j) for j in range(8)) for i in range(8)}
    todo = list(roots)
    while todo:
        v = todo.pop()
        cv = [sum(a * b for a, b in zip(row, v)) for row in cartan]
        for i in range(8):
            w = list(v)
            w[i] -= cv[i]
            if tuple(w) not in roots:
                roots.add(tuple(w))
                todo.append(tuple(w))
    assert len(roots) == 240
    return {_canonical([sum(a * b for a, b in zip(row, v)) for row in cartan]) for v in roots}


def test_k3_walls_at_radius_2_are_u3_walls_and_e8_roots():
    # K3 = U3 + E8(-1)^2 with the span inside U3: a wall of majorant norm <= 2
    # is a U3 wall or, as the E8 part alone has norm >= 2, a root of one E8(-1)
    walls = wl.enumerate_walls_near(lat.k3_lattice(), K3_DIAG_SPAN, -2, 2)
    oracle = wl.brute_force_walls(U3, DIAG_SPAN_U3, -2, 2, box=6)
    roots = _e8_root_functionals()
    zeros6, zeros8 = (0,) * 6, (0,) * 8
    expected = [w.coords + (0,) * 16 for w in oracle]
    expected += [zeros6 + r + zeros8 for r in roots] + [zeros6 + zeros8 + r for r in roots]
    assert len(oracle) == 3 and len(roots) == 120
    assert len(walls) == 243
    assert [w.coords for w in walls] == sorted(expected)
    assert len(wl.WallSet(lat.k3_lattice(), tuple(walls))) == 243


@pytest.mark.parametrize(
    "L,span,d,radius",
    [(U3, DIAG_SPAN_U3, -2, 8), (U3, DIAG_SPAN_U3, -4, 6), (lat.k3_lattice(), K3_DIAG_SPAN, -2, 2)],
    ids=["U3 d=-2", "U3 d=-4", "K3 d=-2"],
)
def test_enumerated_walls_are_the_forms_the_checked_constructor_builds(L, span, d, radius):
    walls = wl.enumerate_walls_near(L, span, d, radius)
    assert walls
    for w in walls:
        checked = lat.WallForm(L, w.coords)
        assert w == checked and hash(w) == hash(checked)
        assert type(w.coords) is tuple and len(w.coords) == L.rank
        assert list(map(type, w.coords)) == list(map(type, checked.coords)) == [int] * L.rank
        assert w.indivisible and w.dual_value == d and w.negative


def test_k3_wall_search_memory_stays_bounded_by_the_block():
    # about 97,000 ellipsoid points at radius 4; the search holds at most rank * _BLOCK nodes at a time
    tracemalloc.start()
    try:
        walls = wl.enumerate_walls_near(lat.k3_lattice(), K3_DIAG_SPAN, -2, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(walls) == 14_715
    assert peak < 11 * 10**6


def test_k3_wall_search_past_the_point_budget_fails_fast():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="budget"):
        wl.enumerate_walls_near(lat.k3_lattice(), K3_DIAG_SPAN, -2, 8)
    assert time.perf_counter() - start < 1.0


def test_wall_avoidance_on_wall():
    p = per.orient_three_plane(U3, [E1F1, E2F2, E3F3])
    walls = wl.WallSet.from_coords(U3, [[-1, 1, 0, 0, 0, 0]])
    report = wl.wall_avoidance(p, walls)
    assert not report.avoided
    assert report.min_restriction_norm < 1e-12
    assert report.nearest is walls.walls[0]


def test_wall_avoidance_empty_and_clear():
    p = per.orient_three_plane(U3, [E1F1, E2F2, E3F3])
    assert wl.wall_avoidance(p, wl.WallSet(U3, ())).avoided
    walls = wl.WallSet.from_coords(U3, [[-1, 1, 1, 0, 0, 0]])
    report = wl.wall_avoidance(p, walls)
    assert report.avoided
    assert report.min_restriction_norm > 0.5


def test_wall_avoidance_open_condition():
    # an avoided plane stays avoided under small perturbations
    rng = np.random.default_rng(3)
    walls = wl.WallSet.from_coords(U3, [[-1, 1, 1, 0, 0, 0]])
    base = [E1F1, E2F2, E3F3]
    p0 = per.orient_three_plane(U3, base)
    r0 = wl.wall_avoidance(p0, walls, Tolerances(wall=1e-8))
    assert r0.avoided
    for _ in range(20):
        pert = [v + 1e-4 * rng.standard_normal(6) for v in base]
        p = per.orient_three_plane(U3, pert)
        assert wl.wall_avoidance(p, walls, Tolerances(wall=1e-8)).avoided


def test_relevant_walls_examples():
    z = per.period_point(U3, E1F1, E2F2)
    # b(e3 - f3, .) has coords (0,0,0,0,-1,1): kills the plane
    relevant = wl.WallForm.from_coords(U3, [0, 0, 0, 0, -1, 1])
    # -1 + coords of e2 dual: nonzero pairing with e2 + f2
    irrelevant = wl.WallForm.from_coords(U3, [-1, 1, 0, 1, 0, 0])
    ws = wl.WallSet(U3, (relevant, irrelevant))
    rel = wl.relevant_walls(z, ws)
    assert rel == [relevant]


def test_relevant_walls_generic_plane_empty():
    ws = wl.WallSet.from_coords(U3, [[-1, 1, 0, 0, 0, 0], [0, 0, -1, 1, 0, 0]])
    for seed in range(10):
        z = per.sample_period_point(U3, seed)
        assert wl.relevant_walls(z, ws) == []


def test_kahler_chamber_examples():
    z = per.period_point(U3, E1F1, E2F2)
    cone_sign = 1 if per.positive_cone_contains(z, E3F3) else -1
    e3_minus_f3 = np.array([0, 0, 0, 0, 1, -1], dtype=float)
    kappa = cone_sign * E3F3 + 0.3 * e3_minus_f3  # inside the cone, off the wall
    assert per.qform(U3, kappa) > 0
    # empty wall set: chamber = full positive cone
    assert wl.kahler_chamber_contains(z, wl.WallSet(U3, ()), kappa)
    # delta = (0,0,0,0,1,-1) vanishes on the period plane, pairs 0.6 with kappa
    delta = wl.WallForm.from_coords(U3, [0, 0, 0, 0, 1, -1])
    ws = wl.WallSet(U3, (delta,))
    side = float(np.array([float(c) for c in delta.coords]) @ kappa)
    assert abs(side) > 0.1
    if side > 0:
        assert wl.kahler_chamber_contains(z, ws, kappa)
        flipped = wl.WallSet.from_coords(U3, [[0, 0, 0, 0, -1, 1]])
        assert not wl.kahler_chamber_contains(z, flipped, kappa)
    else:
        assert not wl.kahler_chamber_contains(z, ws, kappa)
    # boundary point: delta(kappa) = 0 fails the strict (open half space) test
    boundary = cone_sign * E3F3
    assert per.positive_cone_contains(z, boundary)
    assert not wl.kahler_chamber_contains(z, ws, boundary)
    with pytest.raises(DomainError):
        wl.kahler_chamber_contains(z, ws, E1F1)  # not orthogonal to the plane


def test_kahler_chamber_is_a_cone():
    z = per.period_point(U3, E1F1, E2F2)
    cone_sign = 1 if per.positive_cone_contains(z, E3F3) else -1
    ws = wl.WallSet(U3, ())
    rng = np.random.default_rng(4)
    members = []
    for _ in range(20):
        c = cone_sign * E3F3 + 0.2 * rng.standard_normal() * np.array([0, 0, 0, 0, 1, -1.0])
        if per.qform(U3, c) > 0 and wl.kahler_chamber_contains(z, ws, c):
            members.append(c)
    for i in range(len(members) - 1):
        scaled = 3.7 * members[i]
        assert wl.kahler_chamber_contains(z, ws, scaled)
        mix = 0.5 * members[i] + 0.5 * members[i + 1]
        assert wl.kahler_chamber_contains(z, ws, mix)


def test_wallset_validation():
    with pytest.raises(DomainError):
        wl.WallSet.from_coords(U3, [[2, -2, 0, 0, 0, 0]])  # divisible
    with pytest.raises(DomainError):
        wl.WallSet.from_coords(U3, [[1, 1, 0, 0, 0, 0]])  # positive
    with pytest.raises(DomainError):
        wl.WallSet.from_coords(U3, [[-1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]])


@pytest.mark.parametrize(
    "second",
    [[-1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0], ["-1/2", "1/2", 0, 0, 0, 0], ["1/3", "-1/3", 0, 0, 0, 0]],
    ids=["same", "sign-flipped", "half", "minus-third"],
)
def test_wallset_refuses_proportional_walls_apart_in_the_list(second):
    ws = [[-1, 1, 0, 0, 0, 0], [0, 0, -1, 1, 0, 0], [0, 0, 0, 0, -1, 1], second]
    with pytest.raises(DomainError, match="proportional"):
        wl.WallSet.from_coords(U3, ws)
    assert len(wl.WallSet.from_coords(U3, ws[:3])) == 3


def test_wallset_refusal_messages():
    with pytest.raises(DomainError, match="is divisible"):
        wl.WallSet.from_coords(U3, [[-1, 1, 0, 0, 0, 0], [2, -2, 0, 0, 0, 0]])
    with pytest.raises(DomainError, match="is not negative"):
        wl.WallSet.from_coords(U3, [[0, 1, 0, 0, 0, 0]])  # isotropic
    with pytest.raises(DomainError, match="different lattice"):
        wl.WallSet(U3, (lat.WallForm.from_coords(U2M2, [-1, 1, 0, 0, 0]),))


def _random_definite_form(rng, n):
    """Positive definite G^T G / den + I with Fraction entries (eigenvalues >= 1)."""
    g = rng.integers(-2, 3, size=(n, n))
    den = int(rng.integers(1, 7))
    return [
        [Fraction(int(g[:, i] @ g[:, j]), den) + int(i == j) for j in range(n)]
        for i in range(n)
    ]


def _box_scan_ellipsoid(a, radius):
    """Every integer x with x A x <= radius: the whole bounding box, one exact test each."""
    n = len(a)
    rows, scale = ex.scale_matrix_to_integers(a)
    det, adj = ex.det_adjugate(rows)  # the inverse of a is scale adj / det
    box = [math.isqrt(math.floor(radius * Fraction(scale * adj[i][i], det))) + 1 for i in range(n)]
    m = np.array(rows, dtype=np.int64)
    grid = np.array(list(itertools.product(*(range(-b, b + 1) for b in box))), dtype=np.int64)
    inside = np.einsum("vi,ij,vj->v", grid, m, grid) * radius.denominator <= radius.numerator * scale
    return sorted(map(tuple, grid[inside].tolist()))


def _negated(p):
    return tuple(-x for x in p)


def _enumerated(a, radius):
    """The yielded points plus their negatives, once the yield is checked to be one of each +- pair."""
    blocks = wl._enumerate_ellipsoid_int(a, radius)
    half = [tuple(x) for block in blocks for x in block.tolist()]
    nonzero = [p for p in half if any(p)]
    assert len(set(half)) == len(half)
    assert not set(map(_negated, nonzero)) & set(half)
    assert all(next(x for x in reversed(p) if x) > 0 for p in nonzero)
    return sorted(set(half) | set(map(_negated, half)))


@pytest.mark.parametrize("seed", range(12))
def test_ellipsoid_enumeration_matches_box_scan(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 4
    a = _random_definite_form(rng, n)
    # radius a_ii = q(e_i): e_i and -e_i lie exactly on the boundary
    i = int(rng.integers(n))
    unit = tuple(int(j == i) for j in range(n))
    for radius in (a[i][i], Fraction(33, 2), Fraction(7, 3)):
        got = _enumerated(a, radius)
        assert got == _box_scan_ellipsoid(a, radius)
    assert unit in _enumerated(a, a[i][i])
    assert _enumerated(a, "33/2") == _enumerated(a, Fraction(33, 2))


def test_ellipsoid_enumeration_python_int_fallback():
    # scaling form and radius by 10^18 keeps the ellipsoid but pushes
    # max|x|^2 * sum|M_ij| past 2^62, so the exact test runs on Python ints
    rng = np.random.default_rng(5)
    a = _random_definite_form(rng, 4)
    radius = Fraction(33, 2)
    big = [[x * 10**18 for x in row] for row in a]
    blocks = list(wl._enumerate_ellipsoid_int(big, radius * 10**18))
    assert blocks and all(b.dtype == object for b in blocks)
    expected = _box_scan_ellipsoid(a, radius)
    assert _enumerated(big, radius * 10**18) == _enumerated(a, radius) == expected


@pytest.mark.parametrize("k", [10, 13, 30])
def test_ellipsoid_enumeration_on_ill_conditioned_form(k):
    # [[1, 1 - e], [1 - e, 1]] with e = 10^-k has condition ~2 / e, past any
    # float factorization at k = 30. x A x = (x0 + x1)^2 - 2 e x0 x1 >= (x0 + x1)^2 (1 - e / 2),
    # so below radius 1 only x = (t, -t) with 2 e t^2 <= radius remain: at most 45 points.
    e = Fraction(1, 10**k)
    radius = min(Fraction(1, 10**10), 1000 * e)
    got = _enumerated([[1, 1 - e], [1 - e, 1]], radius)
    t_max = math.isqrt(math.floor(radius / (2 * e)))
    assert got == sorted((t, -t) for t in range(-t_max, t_max + 1))


@st.composite
def _definite_forms(draw):
    """G^T G / den + I for a random integer G of rank 1-5: positive definite, eigenvalues >= 1."""
    n = draw(st.integers(1, 5))
    g = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    den = draw(st.integers(1, 6))
    return [
        [Fraction(sum(g[k * n + i] * g[k * n + j] for k in range(n)), den) + int(i == j) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=80, deadline=None)
@given(_definite_forms(), st.fractions(0, 10, max_denominator=12))
def test_ellipsoid_enumeration_matches_box_scan_on_random_forms(a, radius):
    expected = _box_scan_ellipsoid(a, radius)
    assert _enumerated(a, radius) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "_exact_dtype", lambda *_: object)
        assert all(block.dtype == object for block in wl._enumerate_ellipsoid_int(a, radius))
        assert _enumerated(a, radius) == expected


def test_enumeration_in_blocks_of_seven_matches_the_default(monkeypatch):
    # blocks of 7 split single intervals (the thin form's 1001 values of x_0) and chunk every level
    forms = [([[Fraction(1, 10**6), 0], [0, 10**6]], 1), (_random_definite_form(np.random.default_rng(3), 5), Fraction(33, 2))]
    expected = [_enumerated(a, radius) for a, radius in forms]
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -4, 8)
    monkeypatch.setattr(wl, "_BLOCK", 7)
    assert all(len(block) <= 7 for a, radius in forms for block in wl._enumerate_ellipsoid_int(a, radius))
    assert [_enumerated(a, radius) for a, radius in forms] == expected
    assert wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -4, 8) == walls


def test_isqrt_is_exact_where_the_float_seed_is_not():
    # the float square root of (2^31 - 1)^2 - 1 rounds up to 2^31 - 1, and 2^62 - 1 converts to the
    # float 2^62: both seeds' floors are one too large
    near = [(2**31 - 1) ** 2 - 1, (2**31 - 1) ** 2, 2**62 - 1, 10**18 - 1, 10**18]
    values = near + list(range(200))
    expected = [math.isqrt(v) for v in values]
    assert wl._isqrt(np.array(values, dtype=np.int64)).tolist() == expected
    assert wl._isqrt(np.array(values + [10**40], dtype=object)).tolist() == expected + [10**20]


def test_exact_dtype_guard():
    assert wl._exact_dtype(10, 10**6, 10**18) is np.int64
    assert wl._exact_dtype(2**31, 1, 0) is object
    assert wl._exact_dtype(1, 1, 2**62) is object


def test_ellipsoid_rejects_indefinite_or_unrepresentable_form():
    with pytest.raises(DomainError):
        list(wl._enumerate_ellipsoid_int([[1, 0], [0, -1]], 4))
    with pytest.raises(DomainError):
        list(wl._enumerate_ellipsoid_int([[1, 2], [2, 1]], 4))
    # positive pivots after a row exchange: x = (-6, 1) has x A x = -7
    with pytest.raises(DomainError, match="not positive definite"):
        list(wl._enumerate_ellipsoid_int([[0, 1], [1, 5]], 4))
    # far past float range, and exact: no float enters the search
    for radius, half in ((1, [[0]]), (10**400, [[0], [1]])):
        assert [p for block in wl._enumerate_ellipsoid_int([[10**400]], radius) for p in block.tolist()] == half


def test_ellipsoid_volume_estimate_fails_fast():
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    start = time.perf_counter()
    with pytest.raises(DomainError, match="budget"):
        next(wl._enumerate_ellipsoid_int(identity, 100000))
    assert time.perf_counter() - start < 1.0


def test_ellipsoid_candidate_budget_catches_thin_ellipsoids(monkeypatch):
    # volume pi / sqrt(det) = pi, but x_0 alone runs over 2001 values
    thin = [[Fraction(1, 10**6), 0], [0, 10**6]]
    assert len(_enumerated(thin, 1)) == 2001  # the search yields 1001, the budget counts 2001
    monkeypatch.setattr(wl, "_MAX_POINTS", 1000)
    with pytest.raises(DomainError, match="budget"):
        _enumerated(thin, 1)
    monkeypatch.setattr(wl, "_MAX_POINTS", 2000)
    with pytest.raises(DomainError, match="budget"):
        _enumerated(thin, 1)
    monkeypatch.setattr(wl, "_MAX_POINTS", 2001)
    assert len(_enumerated(thin, 1)) == 2001
    # x_0 alone runs over 2 * 10^20 + 1 values, past int64: the budget refuses it
    with pytest.raises(DomainError, match="budget"):
        _enumerated([[Fraction(1, 10**40), 0], [0, 10**40]], 1)


def test_walls_filter_in_blocks_matches_oracle_beyond_one_block():
    # U3 at radius 16 runs over ~2.4e4 ellipsoid points, several exact-test blocks
    walls = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -4, 16)
    oracle = wl.brute_force_walls(U3, DIAG_SPAN_U3, -4, 16, box=5)
    assert [w.coords for w in walls] == [w.coords for w in oracle]


def test_walls_filter_on_python_ints_matches_the_int64_path(monkeypatch):
    # the sign flip to the leading-positive representative runs on object arrays too
    expected = wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -4, 8)
    monkeypatch.setattr(wl, "_exact_dtype", lambda *_: object)
    assert wl.enumerate_walls_near(U3, DIAG_SPAN_U3, -4, 8) == expected


def _walls_by_point(L, span, d, radius, box):
    """Every box point, one at a time, on Python ints and Fractions."""
    num, den = wl.majorant(L, span).dual_matrix()
    dual = [[Fraction(x, den) for x in row] for row in num]
    radius = Fraction(radius)
    found = []
    for v in itertools.product(range(-box, box + 1), repeat=L.rank):
        if not any(v) or next(x for x in v if x) < 0 or math.gcd(*v) != 1:
            continue
        if lat.dual_value(L, v) == d and ex.dot(ex.frvec(v), ex.mat_vec(dual, ex.frvec(v))) <= radius:
            found.append(v)
    return found


@pytest.mark.parametrize(
    "L,span,d,radius,box",
    [(U2M2, DIAG_SPAN_U2M2, -2, 4, 2), (U2M2, DIAG_SPAN_U2M2, -4, "17/3", 2), (U2M2, DIAG_SPAN_U2M2, -6, 9, 2), (U3, DIAG_SPAN_U3, -4, 8, 2)],
    ids=["u2m2-r4", "u2m2-r17/3", "u2m2-d6", "u3-r8"],
)
def test_brute_force_walls_matches_point_by_point_scan(L, span, d, radius, box):
    expected = _walls_by_point(L, span, d, radius, box)
    assert expected
    assert [w.coords for w in wl.brute_force_walls(L, span, d, radius, box)] == expected


def test_brute_force_walls_exact_past_int64():
    # adj = [[0, 2^62, 0], [2^62, 0, 0], [0, 0, -1]] and det = 2^62: for (1, 1, 0), v adj v = 2^63
    # wraps to -2^63 = d det in int64, although its dual square is +2; the scan takes Python ints
    L = lat.QuadLattice.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -(2**62)]])
    span = [[1, 1, 0]]
    assert lat.dual_value(L, [1, 1, 0]) == 2
    walls = wl.brute_force_walls(L, span, -2, 8, box=3)
    assert [w.coords for w in walls] == _walls_by_point(L, span, -2, 8, 3) == [(1, -1, 0)]


def test_wall_census_script_agrees_on_every_row(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "wall_census.py"
    spec = importlib.util.spec_from_file_location("wall_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 20
    assert all(row.split()[-1] == "True" for row in rows)
