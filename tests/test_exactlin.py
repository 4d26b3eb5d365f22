import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeom import exactlin as ex
from hkgeom import irrational as irr
from hkgeom import lattice as lat
from hkgeom.errors import DomainError


def test_fr_rejects_floats():
    for bad in (0.5, "1/0", "abc"):
        with pytest.raises(DomainError):
            ex.fr(bad)
    assert ex.fr("3/4") == Fraction(3, 4)
    assert ex.fr(7) == 7


def test_det_matches_det_adjugate_on_random_matrices():
    rng = random.Random(21)
    singular = 0
    for trial in range(200):
        n = rng.randint(0, 7)
        # sparse entries give zero pivots (row swaps) and singular matrices
        a = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            a = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
        scale = math.lcm(1, *(Fraction(x).denominator for row in a for x in row))
        expected = Fraction(ex.det_adjugate([[int(scale * x) for x in row] for row in a])[0], scale**n)
        d = ex.det(a)
        assert type(d) is Fraction and d == expected == _laplace_det(a)
        singular += expected == 0
    assert singular > 10


def _laplace_det(a):
    """Cofactor expansion along the first row, in Python ints (or Fractions)."""
    if not a:
        return 1
    return sum(
        (-1) ** j * x * _laplace_det([row[:j] + row[j + 1 :] for row in a[1:]]) for j, x in enumerate(a[0]) if x
    )


def _oracle_det(a):
    """Laplace up to 7 x 7, sympy's Berkowitz determinant above: neither eliminates."""
    if len(a) <= 7:
        return _laplace_det(a)
    import sympy

    return int(sympy.Matrix(a).det(method="berkowitz"))


def test_det_with_deferred_rows_matches_laplace_and_adjugate():
    # sparse rows leave many multipliers 0, whose row updates det defers; a
    # multiplier read before its row is brought up to date gives a wrong det
    rng = random.Random(23)
    singular = 0
    for trial in range(400):
        n = rng.randint(1, 9)
        density = (0.15, 0.4, 1.0)[trial % 3]
        a = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if trial % 8 == 5 and n > 2:
            a[rng.randrange(2, n)] = [3 * x - y for x, y in zip(a[0], a[1])]
        d = ex.det(a)
        assert d == ex.det_adjugate(a)[0] == _oracle_det(a)
        singular += d == 0
    assert singular > 40


def inverse(a):
    """Exact inverse of a rational matrix: D adj(D a) / det(D a), D the lcm of its denominators."""
    m, scale = ex.scale_matrix_to_integers(a)
    d, adj = ex.det_adjugate(m)
    if not d:
        raise DomainError("matrix is singular")
    return [[Fraction(scale * x, d) for x in row] for row in adj]


def test_det_and_inverse():
    a = [[2, 1], [1, 1]]
    assert ex.det(ex.frmat(a)) == 1
    inv = inverse(a)
    assert ex.mat_mul(ex.frmat(a), inv) == ex.identity(2)
    with pytest.raises(DomainError):
        inverse([[1, 2], [2, 4]])


def _leibniz_det(a):
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_det_adjugate_matches_inverse_times_det():
    rng = random.Random(8)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] if rng.random() < 0.8 else 0 for j in range(n)] for i in range(n)]
        sym = [[sym[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        d, adj = ex.det_adjugate(sym)
        assert d == _leibniz_det(sym) == ex.det(sym)
        if d == 0:
            assert adj is None
            singular += 1
            continue
        assert adj == [[d * x for x in row] for row in inverse(sym)]
        assert ex.mat_mul(sym, adj) == [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert singular > 0
    assert ex.det([["1/2", 0], [0, "2/3"]]) == Fraction(1, 3)


def test_det_adjugate_multiplies_back_to_det_on_sparse_and_dense_matrices():
    # sparse rows leave many elimination multipliers 0, whose row updates are deferred
    rng = random.Random(34)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 9)
        density = (0.15, 0.4, 1.0)[trial % 3]
        a = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if trial % 10 == 2 and n > 1:
            a[-1] = [x - 2 * y for x, y in zip(a[0], a[1])]
        d, adj = ex.det_adjugate(a)
        assert type(d) is int and d == ex.det(a) == _oracle_det(a)
        if d == 0:
            assert adj is None
            singular += 1
            continue
        identity = [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert ex.mat_mul(a, adj) == ex.mat_mul(adj, a) == identity
        assert all(type(x) is int for row in adj for x in row)
    assert singular > 30


def test_nullspace_and_solve():
    a = [[1, 2, 3], [2, 4, 6]]
    ker = ex.nullspace(a)
    assert len(ker) == 2
    for v in ker:
        assert ex.mat_vec(ex.frmat(a), v) == [0, 0]


def _rref(a):
    """Reduced row echelon form over Fractions, by plain Gauss-Jordan: (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _rref_nullspace(a):
    """One kernel vector per non-pivot column f: 1 at f, minus the rref column f at the pivots."""
    red, pivots = _rref(a)
    cols = len(a[0]) if a else 0
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def _same(x, y):
    """Equal in value and in type, all the way down."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(u, v) for u, v in zip(x, y))
    return x == y


def _seeded_matrices(seed, count):
    """Sparse, dense and full matrices, square and rectangular, some with a dependent row, half rational."""
    rng = random.Random(seed)
    for trial in range(count):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        if trial % 3 == 0:
            cols = rows
        density = (0.15, 0.4, 1.0)[trial % 3]
        a = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        if trial % 7 == 0 and rows > 2:
            a[rng.randrange(2, rows)] = [3 * x - y for x, y in zip(a[0], a[1])]
        if trial % 2:
            a = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in a]
        yield a


def test_rank_pivots_and_nullspace_match_the_fraction_rref():
    # the integer Jordan form gives the rref's pivots and its normalized kernel basis, in Fractions
    deficient = 0
    edge = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0]], [[0, 2, 4], [0, 1, 2]], [["1/2", 1], [1, 2]]]
    for a in [*edge, *_seeded_matrices(29, 600)]:
        _, pivots = _rref(a)
        assert _same(ex.pivot_columns(a), pivots), a
        assert _same(ex.rank(a), len(pivots)), a
        kernel = ex.nullspace(a)
        assert _same(kernel, _rref_nullspace(a)), a
        assert all(ex.mat_vec(ex.frmat(a), v) == [0] * len(a) for v in kernel)
        deficient += len(pivots) < min(len(a), len(a[0]) if a else 0)
    assert deficient > 100


def test_independent_relations_are_the_greedy_subset():
    # the pivot columns of the relations taken as columns are the forms a greedy rank test keeps, in order
    rng = random.Random(37)
    dropped = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        base = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        relations = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.random()
            if kind < 0.25:  # a repeat
                delta = rng.choice(base)
            elif kind < 0.4:  # a negative
                delta = tuple(-x for x in rng.choice(base))
            elif kind < 0.45:
                delta = (0,) * n
            elif kind < 0.6:  # a combination of two
                u, w = rng.choice(base), rng.choice(base)
                delta = tuple(2 * x - y for x, y in zip(u, w))
            else:
                delta = tuple(rng.randint(-3, 3) for _ in range(n))
            relations.append(delta)
        greedy = []
        for delta in relations:
            if len(_rref([*greedy, delta])[1]) > len(greedy):
                greedy.append(delta)
        assert _same(irr._independent(relations), greedy), relations
        dropped += len(relations) - len(greedy)
    assert dropped > 500


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(1, 60),
)
def test_inertia_matches_float_oracle(rows, den):
    sym = [[rows[i][j] + rows[j][i] for j in range(len(rows))] for i in range(len(rows))]
    evals = np.linalg.eigvalsh(np.array(sym, dtype=float))
    if min(abs(evals)) < 1e-8:
        return  # nearly singular: the float oracle cannot classify signs
    pos, neg, zero = ex.inertia(sym)
    assert zero == 0
    assert pos == int((evals > 0).sum())
    assert neg == int((evals < 0).sum())
    # dividing by a positive denominator leaves the inertia unchanged
    assert ex.inertia([[Fraction(x, den) for x in row] for row in sym]) == (pos, neg, zero)


def test_inertia_hyperbolic_and_degenerate():
    assert ex.inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert ex.inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert ex.inertia([[0, 2, 0], [2, 0, 0], [0, 0, -3]]) == (1, 2, 0)
    # the all-int path keeps the symmetry check of the rational one
    for bad in ([[1, 2], [3, 4]], [[1, 2], [3, Fraction(1, 2)]], [[1, 2]]):
        with pytest.raises(DomainError):
            ex.inertia(bad)


def _reference_inertia(s):
    """Inertia by the scaled symmetric elimination with 1 x 1 and 2 x 2 pivots, kept apart from exactlin.

    Every Schur complement is scaled by its pivot (d S - c c^T, or
    -a^2 S + a (c_i c_j^T + c_j c_i^T) for a hyperbolic pair), a flag tracks
    whether the block's form is negated, and the positive gcd is divided out
    after each step. No unit-pivot shortcut and no determinant.
    """
    m = [list(row) for row in s]
    pos = neg = zero = 0
    negated = False
    active = list(range(len(m)))
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is not None:
            d = m[piv][piv]
            if (d > 0) != negated:
                pos += 1
            else:
                neg += 1
            rest = [j for j in active if j != piv]
            col = {j: m[j][piv] for j in rest}
            for j in rest:
                for k in rest:
                    m[j][k] = d * m[j][k] - col[j] * m[piv][k]
            if d < 0:
                negated = not negated
            active = rest
        else:
            pair = next(((i, j) for n, i in enumerate(active) for j in active[n + 1 :] if m[i][j]), None)
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            a = m[i][j]
            pos += 1
            neg += 1
            rest = [k for k in active if k not in (i, j)]
            coli = {k: m[k][i] for k in rest}
            colj = {k: m[k][j] for k in rest}
            for k in rest:
                for l in rest:
                    m[k][l] = -a * a * m[k][l] + a * (coli[k] * colj[l] + colj[k] * coli[l])
            negated = not negated
            active = rest
        g = math.gcd(*[m[j][k] for j in active for k in active]) if active else 0
        if g > 1:
            for j in active:
                for k in active:
                    m[j][k] //= g
    return pos, neg, zero


def _symmetric_from_upper(n, upper, zero_diagonal=False):
    it = iter(upper)
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s[i][j] = s[j][i] = 0 if zero_diagonal and i == j else next(it)
    return s


_HUGE = 2**140  # entries far past int64 and exact float range, where only Python ints stay exact
_ENTRIES = {
    "small": st.integers(-9, 9),
    "zero-diagonal": st.integers(-4, 4),
    "units": st.sampled_from([-1, 0, 0, 1]),
    "huge": st.integers(-2 * _HUGE, 2 * _HUGE),
}


@st.composite
def _symmetric_int_matrices(draw):
    """Symmetric int matrices of size 0..9: small, zero-diagonal, +-1-heavy, huge or singular."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from([*_ENTRIES, "singular"]))
    if kind == "singular":  # B^T D B with B of k < n rows has rank at most k
        k = draw(st.integers(0, max(n - 1, 0)))
        b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))
        d = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=k, max_size=k))
        return [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    upper = draw(st.lists(_ENTRIES[kind], min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    return _symmetric_from_upper(n, upper, zero_diagonal=kind == "zero-diagonal")


def _check_inertia_det(s):
    pos, neg, zero, d = ex._inertia_det_int(s)  # an inexact scale quotient of a 2 x 2 step would raise here
    assert type(d) is int
    assert (pos, neg, zero) == _reference_inertia(s)
    assert d == ex.det(s)
    if len(s) <= 7:
        assert d == _laplace_det(s)
    assert (d == 0) == (zero > 0)
    return pos, neg, zero, d


@settings(max_examples=300, deadline=None)
@given(_symmetric_int_matrices())
def test_inertia_det_matches_reference_elimination_bareiss_and_laplace(s):
    _check_inertia_det(s)


def test_inertia_det_on_seeded_families():
    rng = random.Random(29)
    families = {
        "small": lambda: rng.randint(-9, 9),
        "zero-diagonal": lambda: rng.randint(-4, 4),
        "units": lambda: rng.choice([-1, 0, 0, 1]),
        "huge": lambda: rng.randint(-2 * _HUGE, 2 * _HUGE),
    }
    seen = {"singular": 0, "hyperbolic": 0}
    for trial in range(600):
        name = list(families)[trial % 4]
        n = rng.randint(0, 9)
        s = _symmetric_from_upper(n, [families[name]() for _ in range(n * (n + 1) // 2)], name == "zero-diagonal")
        if trial % 3 == 0 and n > 1:  # a repeated row and column make it singular
            i, j = rng.sample(range(n), 2)
            s[j] = s[i][:]
            for row in s:
                row[j] = row[i]
        pos, neg, zero, _d = _check_inertia_det(s)
        seen["singular"] += zero > 0
        seen["hyperbolic"] += name == "zero-diagonal" and zero == 0 and n > 0
    assert seen["singular"] > 150 and seen["hyperbolic"] > 50
    # bordered matrices of the negative-form sweep take only unit pivots
    u3 = [[int(i ^ 1 == j) for j in range(6)] for i in range(6)]
    for c in itertools.product(range(-1, 2), repeat=6):
        if any(c):
            bordered = [row + [x] for row, x in zip(u3, c)] + [list(c) + [0]]
            _check_inertia_det(bordered)


def test_inertia_det_on_direct_sums_and_fractions():
    u = [[0, 1], [1, 0]]
    u100 = [[int(i ^ 1 == j) for j in range(200)] for i in range(200)]
    assert ex._inertia_det_int(u100) == (100, 100, 0, 1)
    assert ex._inertia_det_int([[3 * x for x in row] for row in u100]) == (100, 100, 0, 9**100)
    assert ex._inertia_det_int([]) == (0, 0, 0, 1)
    assert ex._inertia_det_int(u) == (1, 1, 0, -1)
    assert ex._inertia_det_int([[0, 2], [2, 0]]) == (1, 1, 0, -4)
    assert ex._inertia_det_int([[-5]]) == (0, 1, 0, -5)
    # inertia on rational input scales it to integers first, as before
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = _symmetric_from_upper(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n * (n + 1) // 2)])
        assert ex.inertia(s) == _reference_inertia(ex.scale_matrix_to_integers(s)[0])


def _block_sum(*blocks):
    n = sum(map(len, blocks))
    s, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            s[at + i][at : at + len(b)] = row
        at += len(b)
    return s


def test_inertia_det_on_scaled_direct_sums():
    # a scaled pivot multiplies the other blocks, so later pivots equal the scale: the sparse steps with scale > 1
    rng = random.Random(34)
    u = [[0, 1], [1, 0]]
    e8 = [list(row) for row in lat.e8_lattice().gram]

    def scaled(k, b):
        return [[k * x for x in row] for row in b]

    cases = [_block_sum([[2]], scaled(2, u), scaled(2, u))]
    for _ in range(30):
        d = rng.choice([-1, 1]) * rng.randint(2, 7)
        cases.append(_block_sum([[d]], scaled(d, u), scaled(rng.choice([-1, 1]), e8)))
        cases.append(_block_sum([[d]], *[u] * rng.randint(1, 3)))
        cases.append(_block_sum(*[[[rng.choice([-1, 1]) * rng.randint(1, 6)]] for _ in range(rng.randint(1, 8))]))
        # <d> glued to a bordered U3 by e_0 -> e_0 + sum v_k e_k: the Schur complement of d is the bordered form
        c = [rng.randint(-1, 1) for _ in range(6)] + [1]
        t = [[int(i ^ 1 == j) if max(i, j) < 6 else c[min(i, j)] for j in range(7)] for i in range(7)]
        t[6][6] = 0
        v = [rng.choice([-2, -1, 1, 2]) for _ in range(7)]
        cases.append([[d] + [d * x for x in v]] + [[d * x] + [y + d * x * z for y, z in zip(row, v)] for x, row in zip(v, t)])
    cases += [_block_sum(*[scaled(3, u)] * k) for k in range(1, 6)]
    for s in cases + [_block_sum(s, u) for s in cases[:20]]:
        perm = list(range(len(s)))
        rng.shuffle(perm)
        for t in (s, [[s[i][j] for j in perm] for i in perm]):
            _check_inertia_det(t)
    # one dense form past the seeded sizes: entries up to 200 at rank 40
    n = 40
    dense = _symmetric_from_upper(n, [rng.randint(-200, 200) for _ in range(n * (n + 1) // 2)])
    _check_inertia_det(dense)


_U = [[0, 1], [1, 0]]
_E8_NEG = [[-x for x in row] for row in lat.e8_lattice().gram]


@st.composite
def _orthogonal_sums(draw):
    """1-5 blocks (U, 3U, E8(-1), <k>, a zero row, small symmetric ones) and a permutation of their sum."""
    small = st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda upper: _symmetric_from_upper(n, upper)
        )
    )
    block = st.one_of(
        st.sampled_from([_U, [[3 * x for x in row] for row in _U], _E8_NEG, [[0]]]),
        st.integers(-9, 9).filter(bool).map(lambda k: [[k]]),
        small,
    )
    blocks = draw(st.lists(block, min_size=1, max_size=5))
    s = _block_sum(*blocks)
    perm = draw(st.permutations(range(len(s))))
    return blocks, [[s[i][j] for j in perm] for i in perm]


@settings(max_examples=200, deadline=None)
@given(_orthogonal_sums())
def test_inertia_det_of_an_orthogonal_sum_adds_inertias_and_multiplies_dets(case):
    blocks, s = case
    pos = neg = zero = 0
    det = 1
    for b in blocks:
        p, n, z = _reference_inertia(b)
        pos, neg, zero, det = pos + p, neg + n, zero + z, det * ex.det(b)
    assert ex._inertia_det_int(s) == (pos, neg, zero, det)
    assert (pos, neg, zero) == _reference_inertia(s)


def test_inertia_det_on_direct_sums_keeps_pace_with_bareiss():
    # each orthogonal component is eliminated with its own scale, so a scaled block costs no other block anything
    u100 = _block_sum(*[[[0, 3], [3, 0]]] * 100)
    e8_12 = _block_sum(*[list(map(list, lat.e8_lattice().gram))] * 12)
    for s in (u100, e8_12):
        best = {}
        for _ in range(3):
            for fn in (ex._inertia_det_int, ex.det):
                start = time.perf_counter()
                fn(s)
                best[fn] = min(best.get(fn, math.inf), time.perf_counter() - start)
        assert best[ex._inertia_det_int] < 2 * best[ex.det]


def test_primitive_vector():
    assert ex.primitive_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert ex.primitive_vector([4, -6]) == [2, -3]
    with pytest.raises(DomainError):
        ex.primitive_vector([0, 0])


def _random_int_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _sympy_smith_diagonal(a):
    """The Smith diagonal by sympy's own elimination, the independent oracle."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    s = smith_normal_form(Matrix(a), domain=ZZ)
    return [int(s[i, i]) for i in range(min(s.shape))]


def test_smith_normal_form_properties():
    # tall, wide and rank-deficient matrices up to 7 x 7, entries up to +-30
    rng = random.Random(7)
    kinds = set()
    for trial in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = _random_int_matrix(rng, rows, cols, rng.choice((1, 5, 30)))
        if trial % 3 == 0 and rows > 2:
            a[-1] = [x - 2 * y for x, y in zip(a[0], a[1])]
        kinds |= {("tall", rows > cols), ("wide", rows < cols), ("deficient", ex.rank(a) < min(rows, cols))}
        s, u, v = ex.smith_normal_form(a)
        assert ex.mat_mul(ex.mat_mul(u, a), v) == s
        assert abs(ex.det(u)) == 1
        assert abs(ex.det(v)) == 1
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        diag = [s[i][i] for i in range(min(rows, cols))]
        nz = [d for d in diag if d]
        assert all(d > 0 for d in nz)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert diag == _sympy_smith_diagonal(a)
    assert {("tall", True), ("wide", True), ("deficient", True)} <= kinds


def _lattice_search_forms(seed, count):
    """The random forms of the lattice-search benchmark: symmetric, rank 3-10, entries in [-9, 9]."""
    gen = np.random.default_rng(seed)
    forms = []
    while len(forms) < count:
        n = int(gen.integers(3, 11))
        raw = gen.integers(-9, 10, size=(n, n))
        sym = np.triu(raw) + np.triu(raw, 1).T
        if np.min(np.abs(np.linalg.eigvalsh(sym.astype(float)))) >= 1e-3:
            forms.append(sym.tolist())
    return forms


def test_smith_normal_form_transforms_stay_small_on_dense_matrices():
    # A Euclid-and-swap loop that swaps inside its clearing passes grows the
    # transforms to hundreds or thousands of bits on these inputs, and runs
    # for seconds on the forms of rank 7-10; the pivot loop stays within 15
    # bits per row here. The 5 x 5 ones come first, then the forms by rank,
    # so such a loop fails on entry size before it meets the slow forms.
    rng = random.Random(5)
    dense = [_random_int_matrix(rng, 5, 5, 30) for _ in range(12)]
    forms = sorted(_lattice_search_forms(1, 12), key=len)
    assert max(map(len, forms)) == 10
    for a in dense + forms:
        s, u, v = ex.smith_normal_form(a)
        assert ex.mat_mul(ex.mat_mul(u, a), v) == s
        bits = max(abs(x).bit_length() for m in (u, v) for row in m for x in row)
        assert bits <= 24 * len(a), (len(a), bits)


def test_invariant_factors():
    assert ex.invariant_factors([2, 3]) == [6]
    assert ex.invariant_factors([2, 4]) == [2, 4]
    assert ex.invariant_factors([1, 1]) == []
    assert ex.invariant_factors([12, 60]) == [12, 60]


def test_lll_finds_short_relation():
    # rows embed Z^3 with a scaled relation column for w = (1, 3, -2)
    n = 3
    w = [1, 3, -2]
    scale = 10**6
    rows = [[int(i == j) for j in range(n)] + [scale * w[i]] for i in range(n)]
    red = ex.lll_reduce(rows)
    # some reduced vector must be a genuine relation: delta . w == 0
    assert any(
        sum(r[i] * w[i] for i in range(n)) == 0 and any(r[:n]) for r in red
    )


def _sympy_lll(rows):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return [[int(x) for x in row] for row in DomainMatrix.from_list(rows, ZZ).lll().to_list()]


def _recorded_lll_calls(monkeypatch, run):
    """(rows, reduced rows) of every lll_reduce call that run() makes."""
    calls = []
    reduce = ex.lll_reduce

    def record(rows):
        calls.append((rows, reduce(rows)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(ex, "lll_reduce", record)
        run()
    return calls


def test_lll_matches_sympy_on_seeded_embeddings(monkeypatch):
    # the relation embeddings _lll_relations builds, at rank 2-22 with 1-3
    # real vectors, half of them orthogonal to a planted integer form
    rng = np.random.default_rng(11)

    def run():
        for n in (2, 3, 6, 10, 22):
            for k in (1, 2, 3):
                ws = [rng.standard_normal(n) for _ in range(k)]
                if (n + k) % 2:
                    delta = rng.integers(-5, 6, size=n).astype(float)
                    delta[0] = delta[0] or 1.0
                    ws = [w - (w @ delta) / (delta @ delta) * delta for w in ws]
                irr._lll_relations(ws, 100, 1e-9)

    calls = _recorded_lll_calls(monkeypatch, run)
    assert len(calls) == 15
    for rows, reduced in calls:
        assert reduced == _sympy_lll(rows)


def test_lll_matches_sympy_on_detector_inputs(monkeypatch):
    # every LLL call made by acceptance 09 and the irrationality tests
    import test_acceptance
    import test_irrational

    def run():
        test_acceptance.test_09_irrationality_detection()
        for name, test in vars(test_irrational).items():
            if name.startswith("test_") and not inspect.signature(test).parameters:
                test()

    calls = _recorded_lll_calls(monkeypatch, run)
    assert len(calls) > 200
    for rows, reduced in calls:
        assert reduced == _sympy_lll(rows)


def test_lll_rejects_dependent_rows():
    for rows in ([[1, 2, 3], [2, 4, 6]], [[0, 0]], [[1], [2]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(DomainError):
            ex.lll_reduce(rows)


def test_lll_refuses_a_dependent_row_in_any_position():
    # the reduction reaches every row, so the refusal does not depend on where the dependent row sits
    rng = random.Random(3)
    for m in (2, 4, 7):
        for _ in range(5):
            basis = [[rng.randint(-50, 50) for _ in range(m + 1)] for _ in range(m - 1)]
            coeffs = [rng.randint(-3, 3) or 1 for _ in basis]
            combo = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(m + 1)]
            for extra in (combo, [0] * (m + 1)):
                for at in (0, (m - 1) // 2, m - 1):
                    rows = basis[:at] + [extra] + basis[at:]
                    with pytest.raises(DomainError, match="linearly independent"):
                        ex.lll_reduce(rows)


def test_lll_matches_sympy_on_random_bases_and_reversed_embeddings():
    # random bases of rank 1-12 with entries up to 2^40, and relation embeddings
    # with their rows reversed, which send the reduction back to k = 1 many times
    rng = random.Random(20)
    cases = []
    for m in range(1, 13):
        for bits in (1, 4, 16, 40):
            cols = m + rng.randint(0, 3)
            cases.append([[rng.randint(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(m)])
    gen = np.random.default_rng(21)
    for n in (3, 6, 9):
        ws = [gen.standard_normal(n) for _ in range(2)]
        big = int(round(16.0 / 1e-9))
        rows = [[int(i == j) for i in range(n)] + [int(round(big * float(w[j]))) for w in ws] for j in range(n)]
        cases.append(rows[::-1])
    for rows in cases:  # all of full rank: sympy's lll would refuse the others
        assert ex.lll_reduce(rows) == _sympy_lll(rows)


def test_lll_leaves_reduced_bases_unchanged():
    # [[2, 0, 0], [1, 1, 1]] sits on both boundaries: mu = 1/2 and Lovasz with equality
    reduced = ([[5]], [[-3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 1], [-1, 2]], [[2, 0, 0], [1, 1, 1]])
    for rows in reduced:
        assert ex.lll_reduce(rows) == rows == _sympy_lll(rows)


def test_mat_mul_matches_dense_products_and_keeps_ints():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, q, r = (int(x) for x in rng.integers(1, 6, size=3))
        a = [[int(x) for x in row] for row in rng.integers(-2, 3, size=(p, q))]
        b = [[int(x) for x in row] for row in rng.integers(-2, 3, size=(q, r))]
        prod = ex.mat_mul(a, b)
        assert prod == (np.array(a) @ np.array(b)).tolist()
        assert all(type(x) is int for row in prod for x in row)
        fa = [[Fraction(x, 3) for x in row] for row in a]
        dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in fa]
        assert ex.mat_mul(fa, b) == dense
    assert ex.mat_mul([[1, 2]], []) == [[]]
