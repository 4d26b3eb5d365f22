"""Wall arrangements on the positive Grassmannian: enumeration and chamber tests.

Walls are indivisible dual-lattice functionals with negative dual square.
Enumeration of all walls of a given dual square near a positive plane runs
over the positive-definite majorant form q_P(x) = q(x_P) - q(x_{P perp})
transported to the dual lattice; the search is a bounded lattice-point
enumeration (Fincke-Pohst on an exactly checked integer LDL) over one half
of the ellipsoid, one vector of each +- pair, with exact integer filters.
Walls keep the int coordinates the search found. Its oracle,
``brute_force_walls``, applies the same filters to every point of a
coordinate box.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from math import isqrt
from operator import mul

import numpy as np

from . import exactlin as ex
from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError
from .lattice import QuadLattice, WallForm
from .period import PeriodPoint, PositiveThreePlane, gram_float, positive_cone_contains


@dataclasses.dataclass(frozen=True)
class WallSet:
    """Finite list of signed walls: negative, indivisible, pairwise independent.

    Entries carry their chosen sign; chamber tests use delta(kappa) > 0 as
    the positive side, so callers encode the geometry in the signs.
    """

    lattice: QuadLattice
    walls: tuple[WallForm, ...]

    def __post_init__(self):
        seen: set[tuple[int, ...]] = set()  # one primitive vector per line, leading entry positive
        for w in self.walls:
            if w.lattice != self.lattice:
                raise DomainError("wall belongs to a different lattice")
            if not w.indivisible:
                raise DomainError(f"wall {w.coords} is divisible")
            if not w.negative:
                raise DomainError(f"wall {w.coords} is not negative")
            prim = ex.primitive_vector(w.coords)
            line = tuple(prim) if next(x for x in prim if x) > 0 else tuple(-x for x in prim)
            if line in seen:
                raise DomainError("proportional walls in wall set")
            seen.add(line)

    @classmethod
    def from_coords(cls, lattice: QuadLattice, coord_lists) -> "WallSet":
        return cls(
            lattice,
            tuple(WallForm.from_coords(lattice, c) for c in coord_lists),
        )

    def __len__(self) -> int:
        return len(self.walls)


# -- majorant forms --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MajorantForm:
    """Positive definite form q_P agreeing with q on P and -q on P-perp.

    ``matrix`` is 2 G B (B^T G B)^{-1} B^T G - G, in exact Fractions, for a
    rational basis B of the positive subspace P. P must be a maximal
    positive subspace (the complement then is negative definite, which
    makes q_P positive definite).
    """

    lattice: QuadLattice
    matrix: tuple  # rows of Fractions

    def value(self, v) -> Fraction | float:
        """Exact on rational vectors; a float for any other vector."""
        if all(isinstance(x, (int, Fraction, str)) for x in v):
            vv = ex.frvec(v)
            return ex.dot(vv, ex.mat_vec([list(r) for r in self.matrix], vv))
        arr = np.asarray(v, dtype=float)
        return float(arr @ np.array(self.matrix, dtype=float) @ arr)

    def dual_matrix(self):
        """The majorant transported to the dual lattice: G^-1 M G^-1 = adj M adj / det^2, G the gram."""
        L = self.lattice
        m, scale = ex.scale_matrix_to_integers(self.matrix)
        num = ex.mat_mul(ex.mat_mul(L.adjugate, m), L.adjugate)
        den = scale * L.det * L.det
        return [[Fraction(x, den) for x in row] for row in num]


def majorant(L: QuadLattice, span) -> MajorantForm:
    """Majorant form of a maximal positive subspace given by rational spanning vectors.

    With B the span rows scaled to integers (as columns), C = B^T G B and
    c = det C, the matrix is (2 (G B) adj C (G B)^T - c G) / c. That C is
    positive definite on p rows, p the positive index, is checked exactly;
    q is then negative definite on P-perp (Sylvester's law of inertia), so
    the majorant is positive definite. A span with a float entry, or with
    rows not of the lattice's rank, is a domain error.
    """
    rows = [list(v) for v in span]
    if not all(isinstance(x, (int, Fraction, str)) for row in rows for x in row):
        raise DomainError("the majorant needs a rational spanning basis")
    if any(len(row) != L.rank for row in rows):
        raise DomainError(f"span rows must have {L.rank} coordinates, the lattice rank")
    p, _m = L.signature
    if len(rows) != p:
        raise DomainError(
            f"majorant needs a maximal positive subspace ({p} spanning vectors)"
        )
    b, _ = ex.scale_matrix_to_integers(rows)
    gb = ex.mat_mul(L.gram, ex.transpose(b))  # n x p, rows of G B
    core = ex.mat_mul(b, gb)
    if ex.inertia(core) != (p, 0, 0):
        raise DomainError("span is not positive definite")
    c, adj = ex.det_adjugate(core)
    left = ex.mat_mul(gb, adj)
    mat = tuple(
        tuple(Fraction(2 * sum(map(mul, x, y)) - c * g, c) for y, g in zip(gb, grow))
        for x, grow in zip(left, L.gram)
    )
    return MajorantForm(L, mat)


def in_u_eps(L: QuadLattice, span, v, eps: float) -> bool:
    """Membership in the neighborhood q(v_P) < -eps q(v_{P perp}) of P-perp."""
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    if len(span) != 3 or any(len(x) != L.rank for x in (*span, v)):
        raise DomainError(f"in_u_eps needs 3 span vectors and a vector of length {L.rank}")
    bmat = np.array(span, dtype=float).T
    g = gram_float(L)
    core = bmat.T @ g @ bmat
    if np.linalg.matrix_rank(core) < 3:
        raise DomainError("the span vectors have a singular gram matrix")
    varr = np.asarray(v, dtype=float)
    coeff = np.linalg.solve(core, bmat.T @ g @ varr)
    v_p = bmat @ coeff
    v_perp = varr - v_p
    q_p = float(v_p @ g @ v_p)
    q_perp = float(v_perp @ g @ v_perp)
    return q_p < -eps * q_perp


# -- enumeration ------------------------------------------------------------------

_BLOCK = 1 << 13  # candidates per vectorized exact test; bounds the memory of a search
_MAX_POINTS = 2_000_000  # points an ellipsoid search may hold or emit; bounds its time


def _exact_dtype(xmax: int, weight: int, rhs) -> type:
    """int64 when |x M x| <= xmax^2 * weight and |rhs| stay below 2^62, else Python ints.

    ``weight`` bounds sum_ij |M_ij| (times any factor the test multiplies by),
    so the int64 path cannot overflow; the object path is exact for any size.
    """
    reach = max(xmax, 1)  # the test multiplies by weight's factors even when every x is 0
    return np.int64 if max(reach * reach * weight, abs(rhs)) < 1 << 62 else object


def _quad(block: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x M x for every row x of block."""
    return ((block @ m) * block).sum(axis=1)


def _dyadic_ldl(a: list[list[Fraction]], m: list[list[int]], scale: int):
    """Integer LDL of a form B <= A: (hd, hl, F, log det A).

    B(x) = sum_k hd_k t_k^2 / 2^(3F) with t_k = 2^F x_k + sum_{j>k} hl[j][k] x_j.
    The factors are a float Cholesky of A rounded to multiples of 2^-F, with
    the pivots shrunk by a factor (1 - tau). B <= A is then checked exactly,
    as the inertia of the integer matrix 2^(3F) (D A - D B) = 2^(3F) M -
    D (hl diag(hd) hl^T) with M = D A; the shrink is widened once if
    rounding beat it. log det A comes from the float pivots (an estimate).
    """
    n = len(a)
    try:
        chol = np.linalg.cholesky(np.array([[float(x) for x in row] for row in a]))
    except OverflowError:
        raise DomainError("form entries are out of floating range") from None
    except np.linalg.LinAlgError:
        raise DomainError("form is not positive definite") from None
    diag = [float(chol[k, k]) ** 2 for k in range(n)]
    if not min(diag) > 0:
        raise DomainError("form is not positive definite")
    shift = max(40, 53 - math.frexp(min(diag))[1])  # 2^F min(d) >= 2^52
    one = 1 << shift
    hl = [[0] * n for _ in range(n)]
    for k in range(n):
        hl[k][k] = one
        for j in range(k + 1, n):
            hl[j][k] = round(Fraction(float(chol[j, k] / chol[k, k])) * one)
    big = 1 << (3 * shift)
    for tau in (Fraction(1, 1 << 20), Fraction(1, 16)):
        hd = [math.floor(Fraction(dk) * (1 - tau) * one) for dk in diag]
        gap = [
            [
                big * m[i][j]
                - scale * sum(hd[k] * hl[i][k] * hl[j][k] for k in range(min(i, j) + 1))
                for j in range(n)
            ]
            for i in range(n)
        ]
        if ex.inertia(gap)[1] == 0:
            return hd, hl, shift, sum(math.log(dk) for dk in diag)
    raise DomainError("form is not positive definite or too ill-conditioned to enumerate")


def _innermost_ranges(hd, hl, shift: int, num: int, den: int):
    """Integer Fincke-Pohst over B(x) <= num/den, one half: yields (lo, hi, (x_1, ..., x_{n-1}), reach).

    The origin and every integer x with B(x) <= num/den whose last nonzero
    coordinate is positive appear exactly once, as x_0 in [lo, hi] under its
    prefix; ``reach`` bounds every |x_i| yielded so far. x -> -x preserves B,
    so each +- pair meets this half exactly once. Coordinates are fixed from
    x_{n-1} down; while every higher coordinate is 0, a level clamps lo to 0.
    At level i, with c the integer offset of the fixed x_j (j > i), the budget
    rem left by them admits exactly the x_i with (2^F x_i + c)^2 <= rem /
    (den hd_i): an integer square root gives the interval, and no rounding
    enters.
    """
    n = len(hd)
    one = 1 << shift
    weights = [den * h for h in hd]
    below = [[hl[j][i] for j in range(i + 1, n)] for i in range(n)]
    x = [0] * n
    reach = 0

    def level(i: int, rem: int, signed: bool):
        nonlocal reach
        c = sum(map(mul, below[i], x[i + 1 :]))
        h = isqrt(rem // weights[i])
        lo, hi = -((c + h) // one) if signed else 0, (h - c) // one
        reach = max(reach, -lo, hi)
        if i == 0:
            if lo <= hi:
                yield lo, hi, tuple(x[1:]), reach
            return
        for xi in range(lo, hi + 1):
            x[i] = xi
            t = one * xi + c
            yield from level(i - 1, rem - weights[i] * t * t, signed or xi != 0)

    return level(n - 1, num << (3 * shift), False)


def _enumerate_ellipsoid_int(a_rows: list[list[Fraction]], radius: Fraction):
    """One of each +- pair of integer points x with x^T A x <= radius, A positive definite, exact.

    Yields the origin and every such x whose last nonzero coordinate is
    positive (their negatives are the rest of the ellipsoid), in blocks
    (numpy arrays of rows, int64 or Python ints), so memory stays bounded by
    the block size and not by the point count.

    Fincke-Pohst (Math. Comp. 44, 1985) on a dyadic integer LDL: a float
    Cholesky of A is rounded to an integer LDL of a form B with pivots shrunk
    by (1 - tau), and B <= A is checked exactly (``_dyadic_ldl``). This is
    the padding argument: B(x) <= A(x) for every x, so the B-ellipsoid
    contains the A-ellipsoid and every B-interval contains the exact
    A-interval of the same node; the B-intervals themselves come from integer
    square roots, so no rounding enters after the check (which also proves A
    positive definite, as B is). The innermost coordinate's interval is
    emitted whole, and each block of candidates is kept by one vectorized
    exact test (x M x) den <= num D with M = D A integral, radius = num/den.

    Fails fast with a domain error when the volume estimate
    V_n r^(n/2) / sqrt(det A) exceeds ``_MAX_POINTS``, and when the whole
    ellipsoid holds more than ``_MAX_POINTS`` candidates (so no input escapes
    the estimate): the count takes each nonzero candidate twice, for itself
    and its negative, and the origin once.
    """
    n = len(a_rows)
    a = [[ex.fr(x) for x in row] for row in a_rows]
    r = ex.fr(radius)
    if r < 0:
        return
    m, scale = ex.scale_matrix_to_integers(a)
    hd, hl, shift, logdet = _dyadic_ldl(a, m, scale)
    if r > 0:
        log_points = (
            n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)
            + n / 2 * (math.log(r.numerator) - math.log(r.denominator)) - logdet / 2
        )
        if log_points > math.log(_MAX_POINTS):
            raise DomainError(
                f"the ellipsoid holds about {math.exp(min(log_points, 700)):.3g} lattice points,"
                f" above the budget of {_MAX_POINTS}; reduce the radius"
            )
    num, den = r.numerator, r.denominator
    weight = den * sum(abs(v) for row in m for v in row)
    rhs = num * scale
    emitted = -1  # the origin, the first candidate, has no negative to count
    buf: list[tuple[int, int, tuple]] = []
    pending = 0

    def flush(reach: int) -> np.ndarray:
        dt = _exact_dtype(reach, weight, rhs)
        counts = np.array([k for _, k, _ in buf])
        rows = np.repeat(np.arange(len(buf)), counts)
        offsets = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        block = np.empty((len(rows), n), dtype=dt)
        block[:, 0] = np.array([lo for lo, _, _ in buf], dtype=dt)[rows] + offsets.astype(dt)
        if n > 1:
            block[:, 1:] = np.array([p for _, _, p in buf], dtype=dt)[rows]
        buf.clear()
        keep = _quad(block, np.array(m, dtype=dt)) * den <= rhs
        return block[keep]

    for lo, top, prefix, reach in _innermost_ranges(hd, hl, shift, num, den):
        emitted += 2 * (top - lo + 1)
        if emitted > _MAX_POINTS:
            raise DomainError(
                "ellipsoid enumeration exceeded the point budget; reduce the radius"
            )
        while lo <= top:
            take = min(top - lo + 1, _BLOCK - pending)
            buf.append((lo, take, prefix))
            pending += take
            lo += take
            if pending == _BLOCK:
                yield flush(reach)
                pending = 0
    if buf:
        yield flush(reach)


def enumerate_walls_near(L: QuadLattice, span, d: int, radius) -> list[WallForm]:
    """All indivisible dual functionals with q^vee = d and majorant norm <= radius.

    The majorant of the positive span is transported to the dual lattice by
    inversion; integer dual vectors inside the ellipsoid are enumerated
    one vector of each antipodal pair at a time, then filtered block by block
    with exact integer tests: dual square (v adj v == d det) and
    indivisibility (gcd of the coordinates 1). Each kept vector is turned to
    its representative with the leading coordinate positive; the walls come
    sorted lexicographically, with int coordinates. Any rank is accepted: the
    point budget of the ellipsoid search refuses a radius too large to finish.
    """
    if d >= 0:
        raise DomainError("wall square d must be negative")
    radius = ex.fr(radius)
    if radius <= 0:
        raise DomainError("radius must be positive")
    dual = majorant(L, span).dual_matrix()
    # dual_value(v) == d  iff  v adj v == d det, with the cached integer adjugate
    target = d * L.det
    weight = sum(abs(x) for row in L.adjugate for x in row)
    found: list[tuple[int, ...]] = []
    for block in _enumerate_ellipsoid_int(dual, radius):
        xmax = int(np.abs(block).max(initial=0))
        dt = _exact_dtype(xmax, weight, target)
        vecs = block.astype(dt)
        keep = _quad(vecs, np.array(L.adjugate, dtype=dt)) == target
        keep &= np.gcd.reduce(np.abs(vecs), axis=1) == 1  # the zero vector has gcd 0
        kept = vecs[keep]
        lead = kept[np.arange(len(kept)), (kept != 0).argmax(axis=1)]
        found.extend(map(tuple, np.where((lead > 0)[:, None], kept, -kept).tolist()))
    return [WallForm(L, c) for c in sorted(found)]


def brute_force_walls(L: QuadLattice, span, d: int, radius, box: int) -> list[WallForm]:
    """Oracle: the integer vectors with |coords| <= box that pass the exact filters.

    Each box point is tested, with no ellipsoid, LDL or cache: majorant radius
    (x M x) den <= num D for M = D (dual majorant), dual square x adj x ==
    d det, gcd 1 and a positive leading coordinate. Each prefix p of the
    first n - 4 coordinates meets one grid of the last 4 as a block, with
    x M x = p M p + 2 p M t + t M t; blocks are int64 while ``_exact_dtype``
    bounds every value below 2^62, and Python ints otherwise.
    """
    radius = ex.fr(radius)
    m, scale = ex.scale_matrix_to_integers(majorant(L, span).dual_matrix())
    num, den = radius.numerator, radius.denominator
    target = d * L.det
    weight = max(den * sum(map(abs, itertools.chain(*m))), sum(map(abs, itertools.chain(*L.adjugate))))
    dt = _exact_dtype(box, weight, max(num * scale, abs(target)))
    n = L.rank
    k = max(n - 4, 0)  # prefix length
    forms = [np.array(f, dtype=dt) for f in (m, L.adjugate)]
    grid = np.array(list(itertools.product(range(-box, box + 1), repeat=n - k)), dtype=dt)
    grid_quads = [_quad(grid, f[k:, k:]) for f in forms]
    grid_gcd = np.gcd.reduce(np.abs(grid), axis=1)
    grid_lead = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)] > 0
    found: list[tuple[int, ...]] = []
    for prefix in itertools.product(range(-box, box + 1), repeat=k):
        lead = next((x for x in prefix if x), 0)
        if lead < 0:
            continue  # the whole block fails the leading-coordinate filter
        p = np.array(prefix, dtype=dt)
        qm, qa = (p @ f[:k, :k] @ p + grid @ (2 * (p @ f[:k, k:])) + t for f, t in zip(forms, grid_quads))
        keep = (qa == target) & (qm * den <= num * scale) & (np.gcd(grid_gcd, ex.content(prefix)) == 1)
        if lead == 0:
            keep &= grid_lead
        found.extend(prefix + tuple(row) for row in grid[keep].tolist())
    return [WallForm.from_coords(L, list(c)) for c in sorted(found)]


# -- incidence and chambers --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AvoidanceReport:
    avoided: bool
    nearest: WallForm | None
    min_restriction_norm: float


def wall_avoidance(
    P: PositiveThreePlane, walls: WallSet, tol: Tolerances = DEFAULT_TOL
) -> AvoidanceReport:
    """True iff every wall restricts to P with norm above tol.wall; reports the nearest."""
    if not walls.walls:
        return AvoidanceReport(True, None, float("inf"))
    best = None
    best_norm = float("inf")
    for w in walls.walls:
        coords = np.array([float(c) for c in w.coords])
        restriction = P.frame @ coords
        norm = float(np.linalg.norm(restriction))
        if norm < best_norm:
            best_norm = norm
            best = w
    return AvoidanceReport(best_norm > tol.wall, best, best_norm)


def relevant_walls(z: PeriodPoint, walls: WallSet, tol: Tolerances = DEFAULT_TOL) -> list[WallForm]:
    """Walls vanishing on the period plane of z (restriction norm below tol.wall): those that can cut its cone."""
    out = []
    for w in walls.walls:
        coords = np.array([float(c) for c in w.coords])
        restriction = z.plane_frame() @ coords
        if float(np.linalg.norm(restriction)) < tol.wall:
            out.append(w)
    return out


def kahler_chamber_contains(
    z: PeriodPoint, walls: WallSet, kappa, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Positive-cone membership plus strict positivity on every relevant wall.

    The chamber is the intersection of the spin-selected positive cone with
    the open half spaces delta > 0 over the walls relevant to z, with
    ``tol.wall`` as the margin of both; errors if kappa is not orthogonal
    to the period plane.
    """
    if not positive_cone_contains(z, kappa, tol):
        return False
    karr = np.asarray(kappa, dtype=float)
    knorm = float(np.linalg.norm(karr))
    for w in relevant_walls(z, walls, tol):
        coords = np.array([float(c) for c in w.coords])
        if float(coords @ karr) <= tol.wall * knorm:
            return False
    return True
