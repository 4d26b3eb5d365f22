"""Exact linear algebra over the rationals and the integers.

Everything here is pure Python on ``fractions.Fraction`` and ``int``; no
floating point enters. This module backs the discrete invariants of the
toolkit: signatures of integral quadratic forms, kernels of rational
functionals, Smith normal forms for cochain solving, and the integral LLL
behind the integer-relation detectors. One fraction-free integer
elimination, ``_bareiss``, gives determinants, adjugates, ranks and kernels;
one symmetric elimination per orthogonal component, ``_inertia_det_int``, gives
inertia and det at once, dividing exactly by one Sylvester scale per step.
Every seed and count the library takes in passes one rule, ``integer``: an
int or numpy integer at least the argument's least value, never a bool, or
else a DomainError that names the argument. Every exact vector and matrix
passes one rule beside it, ``exact_rows``: rows of one length, each entry an
int (bools and numpy integers included), a Fraction or a 'p/q' string, or
else a DomainError that names the argument.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from numbers import Integral
from operator import mul

from .errors import DomainError, InternalInconsistencyError

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


def integer(x, what: str, least: int | None) -> int:
    """The integer rule: x as an int, numpy integer scalars included; bools, non-integers and x < least are refused."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    if least is not None and x < least:
        kind = f"an integer >= {least}" if least else "a non-negative integer"
        raise DomainError(f"{what} must be {kind}, got {x!r}")
    return int(x)


def exact_rows(rows, what: str, length: int | None) -> list[list[int | Fraction]]:
    """The exact rule: ``rows`` as lists of ints and Fractions, each integral entry an int.

    Each row a sequence (not a string) of ``length`` entries, or, with no
    ``length``, at least one row and one shared nonzero length; each entry
    one that ``fr`` reads. Otherwise a DomainError names ``what``. Rows of
    ints come back as lists of the same ints, with no Fraction or lcm formed.
    """
    try:  # a string row becomes None, which has no length
        rows = [row if type(row) is list else None if isinstance(row, (str, bytes)) else list(row) for row in rows]
        n = length if length is not None else len(rows[0]) if rows else 0
        fits = n and {*map(len, rows)} <= {n}
    except TypeError:  # rows, or a row, is no sequence
        fits = False
    if not fits:
        shape = "be a list of rows of integers, Fractions or 'p/q' strings that share one nonzero length"
        raise DomainError(f"{what} must " + (f"have {length} coordinates" if length is not None else shape))
    if {type(x) for row in rows for x in row} <= {int}:
        return rows
    try:  # int() for numpy integers
        return [[int(f.numerator) if f.denominator == 1 else f for f in map(fr, row)] for row in rows]
    except DomainError as err:
        raise DomainError(f"{what} must have exact entries: {err}") from err


def frmat(rows) -> Mat:
    return [[fr(x) for x in row] for row in rows]


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


def _bareiss(m: list[list[int]], jordan: bool) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix in place: (pivot columns, row exchanges).

    Columns with no pivot are skipped. A step with pivot p replaces each row
    it clears by (p * row - f * pivot_row) / p_prev, an exact division since
    every entry is a minor of the input (Bareiss, Math. Comp. 22, 1968). It
    clears the rows below the pivot, and with ``jordan`` those above too,
    which leaves every pivot equal to the last one. A row with f = 0 is only
    scaled by p / p_prev, and such scalings telescope: a row kept as of pivot
    ``at[r]`` stands for row * prev / at[r]. It is brought up to date only
    as the pivot, when its f is nonzero, or at the end. Without ``jordan``
    a row at or below the pivot is zero left of the pivot column c, so it
    is updated and brought up to date from column c on only.
    """
    rows = len(m)
    at = [1] * rows
    prev, swaps = 1, 0
    pivots: list[int] = []

    def bring_up_to_date(r, lo):
        if at[r] != prev:
            m[r][lo:] = [x * prev // at[r] for x in m[r][lo:]]
            at[r] = prev

    for c in range(len(m[0]) if rows else 0):
        k = len(pivots)
        piv = next((r for r in range(k, rows) if m[r][c]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            at[k], at[piv] = at[piv], at[k]
            swaps += 1
        lo = 0 if jordan else c
        bring_up_to_date(k, lo)
        pivot_tail, p = m[k][lo:], m[k][c]
        for r in range(0 if jordan else k + 1, rows):
            if r != k and m[r][c]:
                bring_up_to_date(r, lo)
                f = m[r][c]
                m[r][lo:] = [(p * x - f * y) // prev for x, y in zip(m[r][lo:], pivot_tail)]
                at[r] = p
        at[k] = prev = p
        pivots.append(c)
    if jordan:  # rows below the last pivot are zero; those above may be pending
        for r in range(len(pivots)):
            bring_up_to_date(r, 0)
    return pivots, swaps


def det(a: Mat) -> Fraction:
    """Exact determinant of a rational matrix: +-(last of n pivots of D a) / D^n, D the lcm of its denominators."""
    m, scale = scale_matrix_to_integers(a)
    pivots, swaps = _bareiss(m, jordan=False)
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction((-1) ** swaps * m[-1][-1] if m else 1, scale ** len(m))


def det_adjugate(a: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det a, adj a) of a square integer matrix, all in integers; adj is None when det is 0.

    Gauss-Jordan on [a | I]: a is nonsingular iff the pivot columns are 0..n-1;
    then the left half is d I with d = +-det a and the right half d a^-1 = +-adj a.
    """
    n = len(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, swaps = _bareiss(m, jordan=True)
    if pivots != list(range(n)):
        return 0, None
    sign = (-1) ** swaps
    return sign * m[-1][n - 1] if n else 1, [[sign * x for x in row[n:]] for row in m]


def pivot_columns(a: Mat) -> list[int]:
    """Pivot columns of a rational matrix: the columns outside the span of those before them."""
    return _bareiss(scale_matrix_to_integers(a)[0], jordan=False)[0]


def rank(a: Mat) -> int:
    return len(pivot_columns(a))


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel {x : a x = 0}, exact over Q: e_f minus rref column f, per non-pivot f.

    The rref entry of row r is m[r][f] / m[r][pivot r] in the integer Jordan form m.
    """
    cols = len(a[0]) if a else 0
    m, _ = scale_matrix_to_integers(a)
    pivots, _ = _bareiss(m, jordan=True)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = Fraction(-m[r][f], m[r][p])
        basis.append(v)
    return basis


def _components(s: list[list[int]]) -> list[list[int]]:
    """The connected components of the nonzero pattern of a symmetric matrix, each sorted, by breadth-first search."""
    n = len(s)
    seen = [False] * n
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for i in component:  # grows while it is read
            if len(component) == n:  # every index is reached
                break
            for j in compress(range(n), s[i]):
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        components.append(sorted(component))
    return components


def _inertia_det_int(s: list[list[int]]) -> tuple[int, int, int, int]:
    """(positive, negative, zero, det) of an integer symmetric matrix, from one symmetric elimination per component.

    s is the orthogonal sum of its blocks on the connected components of its
    nonzero pattern, so inertias add and dets multiply; each block is
    eliminated on its own. Each step splits a pivot off the active block F:
    the first nonzero diagonal p, or else the first nonzero entry a, which
    joins two zero diagonals into a hyperbolic block of inertia (1, 1)
    (1 x 1 and 2 x 2 pivots, as in Bunch and Kaufman, Math. Comp. 31, 1977).
    With S the indices of the block eliminated so far, the state is a scale
    mu > 0 and a sign with det s[S, S] = sign * mu, and each active entry
    (k, l) holds sign * det s[S + k, S + l]. The Schur complement is then
    F / mu, so p / mu and a / mu are the true pivots. Sylvester's identity
    makes every update an exact division, as in Bareiss's one-step method
    (Bareiss, Math. Comp. 22, 1968). With x and y the pivot rows,
    F <- (|p| F - sgn(p) x x^T) / mu, mu <- |p| and sign <- sgn(p) sign, or
    F <- (a^2 F - a (x y^T + y x^T)) / mu^2, mu <- a^2 / mu and
    sign <- -sign; a^2 / mu is the one quotient checked. The block's det is
    sign * mu at the end, or 0 at an active block with no nonzero entry,
    the radical.
    """
    m = [list(row) for row in s]
    pos = neg = zero = 0
    det = 1
    for active in _components(m):
        mu = sign = 1
        while active:
            i = next((k for k in active if m[k][k]), None)
            if i is not None:
                p = m[i][i]
                if p > 0:
                    pos += 1
                else:
                    neg += 1
                    sign = -sign
                active = [k for k in active if k != i]
                col = [(k, m[i][k]) for k in active]  # the pivot row, read once
                div = mu if p > 0 else -mu  # (|p| F - sgn(p) x x^T) / mu, with the sign moved to the divisor
                for k, x in col:
                    row_k = m[k]
                    for l, y in col:
                        row_k[l] = (p * row_k[l] - x * y) // div
                mu = abs(p)
            else:  # every active diagonal is zero
                pair = next(((k, l) for k in active for l in active if m[k][l]), None)
                if pair is None:
                    zero += len(active)
                    det = 0
                    break
                i, j = pair
                a = m[i][j]
                pos += 1
                neg += 1
                sign = -sign
                active = [k for k in active if k != i and k != j]
                cols = [(k, m[i][k], m[j][k]) for k in active]  # both pivot rows, read once
                a2, mu2 = a * a, mu * mu
                for k, xk, yk in cols:
                    row_k = m[k]
                    for l, xl, yl in cols:
                        row_k[l] = (a2 * row_k[l] - a * (xk * yl + yk * xl)) // mu2
                mu, rem = divmod(a2, mu)
                if rem:
                    raise InternalInconsistencyError("symmetric elimination: the scale is not an exact quotient")
        else:  # no radical
            det *= sign * mu
    return pos, neg, zero, det


def inertia(s) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of a symmetric matrix over Q.

    Scales the matrix by the positive lcm of its denominators, which leaves
    the inertia unchanged, and runs the integer elimination on the result.
    """
    if not is_symmetric(s):
        raise DomainError("inertia requires a symmetric matrix")
    return _inertia_det_int(scale_matrix_to_integers(s)[0])[:3]


def content(v: list[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def scale_to_integers(v) -> tuple[list[int], int]:
    """(D v, D) for D the positive lcm of the denominators of a rational vector; D = 1 copies an int vector."""
    if {*map(type, v)} <= {int}:
        return list(v), 1
    q = [x if isinstance(x, (int, Fraction)) else fr(x) for x in v]  # both carry numerator/denominator
    scale = lcm(*[x.denominator for x in q])
    return [x.numerator * (scale // x.denominator) for x in q], scale


def scale_matrix_to_integers(a) -> tuple[list[list[int]], int]:
    """(D a, D) for D the positive lcm of the denominators of a rational matrix; D = 1 copies an int matrix."""
    if {type(x) for row in a for x in row} <= {int}:
        return [list(row) for row in a], 1
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
    One loop: move a least nonzero |entry| p of the trailing block (the scan
    stops at the row of the first +-1) to (t, t), make it positive, clear
    column t by row operations and row t by column operations, one pass
    each, and pick again while a remainder (< p) is left or a trailing row
    is not divisible by p (it is added to row t, whose next clearing leaves
    a remainder); otherwise t advances. A step that does not advance lowers
    the least |entry| of the trailing block, so the loop ends. v is kept as
    the rows of v^T, where column operations are row operations; on s they
    touch rows t on only, as the rows above are zero past their pivots.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        p, pi, pj = 0, t, t
        for i in range(t, rows):
            for j, x in enumerate(s[i][t:], t):
                if x and (not p or abs(x) < p):
                    p, pi, pj = abs(x), i, j
            if p == 1:
                break
        if not p:
            break
        s[t], s[pi], u[t], u[pi] = s[pi], s[t], u[pi], u[t]
        if s[t][pj] < 0:
            s[t], u[t] = [-x for x in s[t]], [-x for x in u[t]]
        for row in s[t:]:
            row[t], row[pj] = row[pj], row[t]
        vt[t], vt[pj] = vt[pj], vt[t]
        pivot_row, tail = s[t], s[t][t:]
        for i in range(t + 1, rows):
            q = s[i][t] // p
            if q:
                s[i][t:] = [x - q * y for x, y in zip(s[i][t:], tail)]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, cols):
            q = pivot_row[j] // p
            if q:
                for row in s[t:]:
                    row[j] -= q * row[t]
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
        if any(row[t] for row in s[t + 1 :]) or any(pivot_row[t + 1 :]):
            continue
        if p > 1:  # a unit pivot divides every entry
            bad = next((i for i in range(t + 1, rows) if any(x % p for x in s[i][t + 1 :])), None)
            if bad is not None:
                s[t] = [x + y for x, y in zip(pivot_row, s[bad])]
                u[t] = [x + y for x, y in zip(u[t], u[bad])]
                continue
        t += 1
    return s, u, transpose(vt)


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

    As in Cohen's k_max step, row k gets its lam[k][j] and d[k + 1] from the
    current rows only when the reduction first reaches k, and a swap at k
    updates lam[i][k - 1] and lam[i][k] only for the rows k < i <= k_max
    reached so far. A row dependent on the rows before it raises
    ``DomainError`` when the reduction first reaches it: those rows span what
    the input's leading rows span, so this refuses exactly the dependent inputs.
    """
    b = [[int(x) for x in r] for r in rows]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]

    def gram_schmidt(k: int) -> None:
        # lam[k][:k] and d[k + 1] from the current rows 0..k
        row = lam[k]
        for j in range(k + 1):
            u = sum(map(mul, b[k], b[j]))
            other = lam[j]
            for h in range(j):
                u = (d[h + 1] * u - row[h] * other[h]) // d[h]
            if j < k:
                row[j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise DomainError("LLL needs linearly independent rows")

    def size_reduce(k: int, l: int) -> None:
        # row k -= round(mu_kl) row l; the callers have checked 2 |lam[k][l]| > d[l + 1]
        dl = d[l + 1]
        row = lam[k]
        q = (2 * row[l] + dl) // (2 * dl)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        row[l] -= q * dl
        row[:l] = [x - q * y for x, y in zip(row, lam[l][:l])]

    if m:
        gram_schmidt(0)
    k, k_max = 1, 0
    while k < m:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        row = lam[k]
        if 2 * abs(row[k - 1]) > d[k]:
            size_reduce(k, k - 1)
        lk = row[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lk * lk:
            for l in range(k - 2, -1, -1):
                if 2 * abs(row[l]) > d[l + 1]:
                    size_reduce(k, l)
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][: k - 1], lam[k - 1][: k - 1] = lam[k - 1][: k - 1], lam[k][: k - 1]
        dk_new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, k_max + 1):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lk * t) // d[k]
            li[k - 1] = (dk_new * t + lk * li[k]) // d[k + 1]
        d[k] = dk_new
        k = max(k - 1, 1)
    return b
