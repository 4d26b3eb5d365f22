"""Exact linear algebra over the rationals and the integers.

Everything here is pure Python on ``fractions.Fraction`` and ``int``; no
floating point enters. This module backs the discrete invariants of the
toolkit: signatures of integral quadratic forms, kernels of rational
functionals, Smith normal forms for cochain solving, and the integral LLL
behind the integer-relation detectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError

Vec = list[Fraction]
Mat = list[list[Fraction]]


def fr(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions; reject floats, other types and strings like '1/0'."""
    if isinstance(x, float):
        raise DomainError("exact arithmetic rejects floats; pass int, Fraction or 'p/q'")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as err:
        raise DomainError(f"not a rational number: {x!r}") from err


def frmat(rows) -> Mat:
    return [[fr(x) for x in row] for row in rows]


def frvec(row) -> Vec:
    return [fr(x) for x in row]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact product, row by row, skipping zero entries of a and b.

    Entries accumulate from 0, so int matrices give ints; an entry with no
    nonzero term is the int 0 (equal, and hash-equal, to Fraction(0)).
    """
    cols = len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, terms in zip(row, b_nonzero):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dot(u: Vec, v: Vec) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def det(a: Mat) -> Fraction:
    """Exact determinant of a rational matrix: det(D a) / D^n for D the lcm of its denominators.

    Fraction-free (Bareiss) elimination below the pivots of the integer
    matrix D a: after step c each remaining entry is a (c+1)-minor, so the
    division by the previous pivot is exact and the last pivot is +-det.
    Rows whose multiplier is 0 are deferred as in ``det_adjugate``: a row
    kept as of pivot ``at[r]`` is brought up to date only when it becomes the
    pivot, when its multiplier is nonzero, or as the last pivot.
    """
    m, scale = scale_matrix_to_integers(a)
    n = len(m)
    at = [1] * n
    prev, sign = 1, 1

    def bring_up_to_date(r):
        if at[r] != prev:
            m[r] = [x * prev // at[r] for x in m[r]]
            at[r] = prev

    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            at[c], at[piv] = at[piv], at[c]
            sign = -sign
        bring_up_to_date(c)
        pivot_row, p = m[c], m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                bring_up_to_date(r)
                f = m[r][c]
                m[r] = [0] * (c + 1) + [(p * x - f * y) // prev for x, y in zip(m[r][c + 1 :], pivot_row[c + 1 :])]
                at[r] = p
        prev = p
    if n:
        bring_up_to_date(n - 1)
    return Fraction(sign * m[-1][-1] if n else 1, scale**n)


def det_adjugate(a: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det a, adj a) of a square integer matrix, all in integers; adj is None when det is 0.

    Fraction-free (Bareiss) Gauss-Jordan on [a | I]: each step replaces every
    other row by (p * row - f * pivot_row) / p_prev, an exact division (every
    entry is a minor of [a | I], Sylvester's identity). At the end the left
    half is d I with d = +-det a, the sign from the row swaps, and the right
    half is d a^-1 = +-adj a.
    A step with f = 0 only scales the row by p / p_prev, and such scalings
    telescope: a row kept as of pivot ``at[r]`` holds row * prev / at[r] now.
    The row is brought up to date, by that exact division, only when it is
    the pivot, when its f is nonzero, or at the end; sparse matrices skip
    most row updates.
    """
    n = len(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    at = [1] * n
    prev, sign = 1, 1

    def bring_up_to_date(r):
        if at[r] != prev:
            m[r] = [x * prev // at[r] for x in m[r]]
            at[r] = prev

    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            at[c], at[piv] = at[piv], at[c]
            sign = -sign
        bring_up_to_date(c)
        pivot_row, p = m[c], m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                bring_up_to_date(r)
                f = m[r][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
                at[r] = p
        at[c] = prev = p
    for r in range(n):
        bring_up_to_date(r)
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[fr(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel {x : a x = 0}, exact over Q."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def inverse(a: Mat) -> Mat:
    """Exact inverse of a rational matrix: D adj(D a) / det(D a), D the lcm of its denominators."""
    m, scale = scale_matrix_to_integers(a)
    d, adj = det_adjugate(m)
    if not d:
        raise DomainError("matrix is singular")
    return [[Fraction(scale * x, d) for x in row] for row in adj]


def unimodular_inverse(a: list[list[int]]) -> list[list[int]]:
    """Inverse of an integer matrix of determinant +-1: det * adj, in ints."""
    d, adj = det_adjugate(a)
    if not d:
        raise DomainError("matrix is singular")
    if abs(d) != 1:
        raise DomainError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def _inertia_int(s: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of an integer symmetric matrix by fraction-free elimination.

    Diagonal pivots contribute their sign; when the active diagonal vanishes,
    a nonzero off-diagonal entry gives a hyperbolic 2x2 block contributing
    (1, 1). Instead of dividing by the pivot d, the remaining block is
    replaced by d * S - (outer product), which scales the restricted form by
    d; a sign flag tracks whether the block's form is currently negated. A
    positive gcd is divided out after every step to control entry growth
    (scaling a symmetric form by a positive integer preserves inertia).
    """
    n = len(s)
    m = [row[:] for row in s]
    pos = neg = zero = 0
    negated = False
    active = list(range(n))
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
                row_j, row_p, cj = m[j], m[piv], col[j]
                for k in rest:
                    row_j[k] = d * row_j[k] - cj * row_p[k]
            if d < 0:
                negated = not negated
            active = rest
        else:
            pair = None
            for ii, i in enumerate(active):
                for j in active[ii + 1 :]:
                    if m[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
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
            a2 = a * a
            for k in rest:
                row_k, ski, skj = m[k], coli[k], colj[k]
                for l in rest:
                    row_k[l] = -a2 * row_k[l] + a * (ski * colj[l] + skj * coli[l])
            negated = not negated  # block form scaled by det = -a^2 < 0
            active = rest
        if active:
            g = 0
            for j in active:
                for k in active:
                    g = gcd(g, abs(m[j][k]))
                    if g == 1:
                        break
                if g == 1:
                    break
            if g > 1:
                for j in active:
                    row_j = m[j]
                    for k in active:
                        row_j[k] //= g
    return pos, neg, zero


def inertia(s) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of a symmetric matrix over Q.

    Scales the matrix by the positive lcm of its denominators, which leaves
    the inertia unchanged, and runs the integer elimination on the result;
    an all-int matrix goes to the elimination as it is.
    """
    if not is_symmetric(s):
        raise DomainError("inertia requires a symmetric matrix")
    if all(type(x) is int for row in s for x in row):
        return _inertia_int(s)
    return _inertia_int(scale_matrix_to_integers(s)[0])


def content(v: list[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def scale_to_integers(v) -> tuple[list[int], int]:
    """(D v, D) for D the positive lcm of the denominators of a rational vector."""
    q = [x if isinstance(x, (int, Fraction)) else fr(x) for x in v]  # both carry numerator/denominator
    scale = lcm(*[x.denominator for x in q])
    return [x.numerator * (scale // x.denominator) for x in q], scale


def scale_matrix_to_integers(a) -> tuple[list[list[int]], int]:
    """(D a, D) for D the positive lcm of the denominators of a rational matrix."""
    cols = len(a[0]) if a else 0
    flat, scale = scale_to_integers([x for row in a for x in row])
    return [flat[i : i + cols] for i in range(0, len(flat), cols or 1)], scale


def primitive_vector(v) -> list[int]:
    """Primitive integer vector spanning the same line as v (v != 0)."""
    w, _ = scale_to_integers(v)
    c = content(w)
    if c == 0:
        raise DomainError("zero vector has no primitive representative")
    return [x // c for x in w]


# -- Smith normal form --------------------------------------------------------


def smith_normal_form(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (s, u, v) with u a v = s.

    u and v are unimodular; s is diagonal with s[i][i] | s[i+1][i+1] >= 0.
    Standard pivot-and-reduce algorithm; fine for the cochain-sized matrices
    this package needs.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, f):  # row_i -= f * row_j  (in s and u)
        s[i] = [x - f * y for x, y in zip(s[i], s[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f * col_j  (in s and v)
        for r in range(rows):
            s[r][i] -= f * s[r][j]
        for r in range(cols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # locate a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(s[i][j])
                if x and (best is None or x < best):
                    best = x
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear row and column t by euclidean reduction
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t]:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j]:
                        swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # divisibility: fold any non-divisible trailing entry into row t
        fixed = True
        d = s[t][t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if s[i][j] % d:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            t += 1
    return s, u, v


def invariant_factors(values: list[int]) -> list[int]:
    """Canonical invariant-factor chain of a product of cyclic groups.

    Input: cyclic orders (>= 1). Output: nontrivial factors d1 | d2 | ...,
    the Smith form of the diagonal matrix. Z/a x Z/b = Z/gcd x Z/lcm, so
    replacing each pair (v_i, v_j), i < j, by (gcd, lcm) leaves v_i dividing
    every later entry.
    """
    vals = [v for v in values if v != 1]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            vals[i], vals[j] = gcd(vals[i], vals[j]), lcm(vals[i], vals[j])
    return [v for v in vals if v != 1]


# -- LLL ----------------------------------------------------------------------


def lll_reduce(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by independent integer rows.

    Cohen's integral LLL (A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) on d[i], the Gram determinant of the first i rows, and
    lam[k][j] = d[j + 1] mu_kj. It takes the steps of the rational textbook LLL
    in its order, with its tests in integers: round(mu) = (2 lam + d) // (2 d),
    |mu| <= 1/2 iff 2 |lam| <= d, Lovasz iff 4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam^2.
    So the result is, bit for bit, sympy's ``DomainMatrix.lll`` (the tests' oracle).
    """
    b = [[int(x) for x in r] for r in rows]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for h in range(j):
                u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise DomainError("LLL needs linearly independent rows")

    def size_reduce(k: int, l: int) -> None:
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            q = (2 * lam[k][l] + dl) // (2 * dl)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * dl
            for h in range(l):
                lam[k][h] -= q * lam[l][h]

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lk * lk:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        dk_new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, m):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk_new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk_new
        k = max(k - 1, 1)
    return b
