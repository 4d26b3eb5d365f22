"""Wall arrangements on the positive Grassmannian: enumeration and chamber tests.

Walls are indivisible dual-lattice functionals with negative dual square.
Enumeration of all walls of a given dual square near a positive plane runs
over the positive-definite majorant form q_P(x) = q(x_P) - q(x_{P perp})
transported to the dual lattice; the search is a bounded lattice-point
enumeration over one half of the ellipsoid, one vector of each +- pair:
Fincke-Pohst on the exact LDL that Bareiss elimination gives the integer
majorant, whose intervals come from integer square roots and are tight. It
expands one level at a time over numpy arrays of nodes, in chunks of
``_BLOCK``, on int64 while a bound fixed before the search keeps every
value below 2^62 and on Python ints otherwise; no float decides a point.
Exact integer filters then keep the walls, with the int coordinates the
search found. Its oracle,
``brute_force_walls``, applies the same filters to every point of a
coordinate box.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import mul

import numpy as np

from . import exactlin as ex
from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError
from .lattice import QuadLattice, WallForm, _unchecked_wall
from .period import PeriodPoint, PositiveThreePlane, float_rows, gram_float, positive_cone_contains


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

    @cached_property
    def _float_coords(self) -> np.ndarray:
        """The walls' coordinates as float rows, one per wall, kept once per set."""
        return np.array([[float(c) for c in w.coords] for w in self.walls])


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
        """Exact on a vector the exact rule takes; otherwise a float, on a vector the float rule takes."""
        try:
            [vv] = ex.exact_rows([v], "v", self.lattice.rank)
        except DomainError:
            [arr] = float_rows([v], "v", self.lattice.rank)
            return float(arr @ np.array(self.matrix, dtype=float) @ arr)
        return ex.dot(vv, ex.mat_vec(self.matrix, vv))

    def dual_matrix(self) -> tuple[list[list[int]], int]:
        """The majorant transported to the dual lattice, G^-1 M G^-1 = adj (D M) adj / (D det^2), G the gram.

        Returned as the integer matrix adj (D M) adj and its positive
        denominator D det^2, with D the lcm of M's denominators.
        """
        L = self.lattice
        m, scale = ex.scale_matrix_to_integers(self.matrix)
        return ex.mat_mul(ex.mat_mul(L.adjugate, m), L.adjugate), scale * L.det * L.det


def majorant(L: QuadLattice, span) -> MajorantForm:
    """Majorant form of a maximal positive subspace given by rational spanning vectors.

    With B the span rows scaled to integers (as columns), C = B^T G B and
    c = det C, the matrix is (2 (G B) adj C (G B)^T - c G) / c. That C is
    positive definite on p rows, p the positive index, is checked exactly;
    q is then negative definite on P-perp (Sylvester's law of inertia), so
    the majorant is positive definite. The span passes the exact rule with
    rows of the lattice's rank.
    """
    rows = ex.exact_rows(span, "span rows", L.rank)
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
    rows = float_rows(span, "span", L.rank)
    if len(rows) != 3:
        raise DomainError("in_u_eps needs 3 span vectors")
    [varr] = float_rows([v], "v", L.rank)
    bmat = np.array(rows).T
    g = gram_float(L)
    core = bmat.T @ g @ bmat
    if np.linalg.matrix_rank(core) < 3:
        raise DomainError("the span vectors have a singular gram matrix")
    coeff = np.linalg.solve(core, bmat.T @ g @ varr)
    v_p = bmat @ coeff
    v_perp = varr - v_p
    q_p = float(v_p @ g @ v_p)
    q_perp = float(v_perp @ g @ v_perp)
    return q_p < -eps * q_perp


# -- enumeration ------------------------------------------------------------------

_BLOCK = 1 << 11  # nodes per expansion and rows per yielded block; bounds the memory of a search
_MAX_POINTS = 2_000_000  # points an ellipsoid search may hold or emit; bounds its time


def _exact_dtype(xmax: int, weight: int, rhs) -> type:
    """int64 when xmax^2 * weight and |rhs| stay below 2^62, else Python ints.

    The caller's bounds cover every value it computes: for the test x M x,
    ``xmax`` bounds |x_i| and ``weight`` sum_ij |M_ij| (times any factor the
    test multiplies by). So the int64 path cannot overflow; the object path
    is exact for any size.
    """
    reach = max(xmax, 1)  # the test multiplies by weight's factors even when every x is 0
    return np.int64 if max(reach * reach * weight, abs(rhs)) < 1 << 62 else object


def _quad(block: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x M x for every row x of block."""
    return ((block @ m) * block).sum(axis=1)


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of each entry of a non-negative int64 or object array, exact.

    On int64 (v < 2^62 here) the float square root is a seed within 2^-20 of
    sqrt(v), so its floor is off by at most one: one exact integer step down
    and one up correct it.
    """
    if v.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(v)
    h = np.sqrt(v.astype(float)).astype(np.int64)
    h -= h * h > v
    h += (h + 1) * (h + 1) <= v
    return h


def _enumerate_ellipsoid_int(a_rows: list[list[Fraction]], radius: Fraction):
    """One of each +- pair of integer points x with x^T A x <= radius, A positive definite, exact.

    Yields the origin and every such x whose last nonzero coordinate is
    positive (their negatives are the rest of the ellipsoid), in blocks of at
    most ``_BLOCK`` rows (numpy arrays, int64 or Python ints).

    Fincke-Pohst (Math. Comp. 44, 1985) on the exact LDL of M = D A, D the
    lcm of A's denominators, read off the fraction-free elimination of M
    (Bareiss, Math. Comp. 22, 1968): with no row exchange, pivot row k holds
    the leading minor Delta_{k+1} and integers u_kj (j > k), and
    x M x = sum_k t_k^2 / (Delta_k Delta_{k+1}), t_k = Delta_{k+1} x_k + c_k,
    c_k = sum_{j>k} u_kj x_j. A row exchange or a pivot <= 0 means A is not
    positive definite, and is refused. Coordinates are fixed from x_{n-1}
    down. A node at level k carries the integer budget S_k (Delta_{k+1} den
    times the part of the radius its fixed coordinates leave, radius =
    num/den), and admits exactly the x_k with den t_k^2 <= Delta_k S_k: one
    integer square root gives the interval, which is tight, so every leaf is
    a point of the ellipsoid. The child's budget is (Delta_k S_k - den t_k^2)
    / Delta_{k+1}, an exact division. While every higher coordinate is 0 a
    level takes x_k >= 0, which keeps one vector of each +- pair.

    The search runs level by level on numpy arrays of nodes: one
    ``np.repeat`` builds up to ``_BLOCK`` children of the deepest pending
    nodes, so at most one array of at most ``_BLOCK`` nodes waits per level
    and memory stays bounded by rank * ``_BLOCK`` nodes, not by the point
    count. The innermost level's children are the blocks yielded. The
    arithmetic is int64 when ``_exact_dtype`` bounds every intermediate
    below 2^62, with the exact bounding box |x_j| <= sqrt(radius (A^-1)_jj)
    from M's adjugate, and Python ints otherwise; no float decides a point.

    Fails fast with a domain error when the volume estimate
    V_n r^(n/2) / sqrt(det A) exceeds ``_MAX_POINTS``, and when the whole
    ellipsoid holds more than ``_MAX_POINTS`` points (so no input escapes
    the estimate): the count takes each nonzero point twice, for itself and
    its negative, and the origin once.
    """
    n = len(a_rows)
    r = ex.fr(radius)
    if r < 0:
        return
    m, scale = ex.scale_matrix_to_integers(a_rows)
    u = [row[:] for row in m]
    pivots, swaps = ex._bareiss(u, jordan=False)
    if swaps or pivots != list(range(n)) or min(u[k][k] for k in range(n)) <= 0:
        raise DomainError("form is not positive definite")
    delta = [1] + [u[k][k] for k in range(n)]  # the leading minors of M
    if r > 0:
        log_points = (
            n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)
            + n / 2 * (math.log(r.numerator) - math.log(r.denominator))
            - (math.log(delta[n]) - n * math.log(scale)) / 2
        )
        if log_points > math.log(_MAX_POINTS):
            raise DomainError(
                f"the ellipsoid holds about {math.exp(min(log_points, 700)):.3g} lattice points,"
                f" above the budget of {_MAX_POINTS}; reduce the radius"
            )
    num, den = r.numerator, r.denominator
    rhs = num * scale  # x A x <= radius  iff  (x M x) den <= rhs
    adj = ex.det_adjugate(m)[1]
    box = max(isqrt(rhs * adj[j][j] // (den * delta[n])) for j in range(n))
    weight = max(sum(map(abs, row)) for row in u)  # |t_k|, |c_k| <= box * weight
    dt = _exact_dtype(box, weight, max(rhs * max(map(mul, delta, delta[1:])), den))
    upper = np.array(u, dtype=dt)  # the eliminated M is upper triangular

    def level(k: int, x: np.ndarray, s: np.ndarray, signed: np.ndarray) -> list:
        """The nodes x at level k with their budgets and exact x_k intervals [lo, hi]; empty ones dropped."""
        c = x @ upper[k]  # x_j = 0 for j <= k
        h = _isqrt(delta[k] * s // den)
        lo = np.where(signed, -((h + c) // delta[k + 1]), 0)
        hi = (h - c) // delta[k + 1]
        live = lo <= hi
        return [k, x[live], s[live], c[live], lo[live], hi[live], signed[live]]

    stack = [level(n - 1, np.zeros((1, n), dtype=dt), np.array([delta[n] * rhs], dtype=dt), np.zeros(1, dtype=bool))]
    emitted = -1  # the origin, the first point, has no negative to count
    while stack:
        top = stack[-1]
        k, x, s, c, lo, hi, signed = top
        counts = np.minimum(hi - lo + 1, _BLOCK + 1).astype(np.int64)  # a longer interval is split anyway
        j = int(np.searchsorted(np.cumsum(counts), _BLOCK, side="right"))
        split = j == 0  # the first interval alone exceeds a block: take its first _BLOCK values
        if split:
            j, counts = 1, np.array([_BLOCK])
        else:
            counts = counts[:j]
        rep = np.repeat(np.arange(j), counts)
        xk = lo[rep] + (np.arange(len(rep)) - (np.cumsum(counts) - counts)[rep]).astype(dt)
        if split:
            lo[0] += _BLOCK
        elif j == len(lo):
            stack.pop()
        else:
            stack[-1] = [k] + [v[j:] for v in top[1:]]
        children = x[rep]
        children[:, k] = xk
        if k == 0:
            emitted += 2 * len(children)
            if emitted > _MAX_POINTS:
                raise DomainError("ellipsoid enumeration exceeded the point budget; reduce the radius")
            yield children
            continue
        t = delta[k + 1] * xk + c[rep]
        nodes = level(k - 1, children, (delta[k] * s[rep] - den * t * t) // delta[k + 1], signed[rep] | (xk != 0))
        if len(nodes[1]):
            stack.append(nodes)


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
    d = ex.integer(d, "d", None)
    if d >= 0:
        raise DomainError("wall square d must be negative")
    radius = ex.fr(radius)
    if radius <= 0:
        raise DomainError("radius must be positive")
    dual, dual_den = majorant(L, span).dual_matrix()
    # dual_value(v) == d  iff  v adj v == d det, with the cached integer adjugate
    target = d * L.det
    weight = sum(abs(x) for row in L.adjugate for x in row)
    found: list[tuple[int, ...]] = []
    for block in _enumerate_ellipsoid_int(dual, radius * dual_den):
        xmax = int(np.abs(block).max(initial=0))
        dt = _exact_dtype(xmax, weight, target)
        vecs = block.astype(dt)
        keep = _quad(vecs, np.array(L.adjugate, dtype=dt)) == target
        keep &= np.gcd.reduce(np.abs(vecs), axis=1) == 1  # the zero vector has gcd 0
        kept = vecs[keep]
        lead = kept[np.arange(len(kept)), (kept != 0).argmax(axis=1)]
        found.extend(map(tuple, np.where((lead > 0)[:, None], kept, -kept).tolist()))
    # int tuples of length rank, nonzero by the gcd filter: what WallForm would store
    return [_unchecked_wall(L, c) for c in sorted(found)]


def brute_force_walls(L: QuadLattice, span, d: int, radius, box: int) -> list[WallForm]:
    """Oracle: the integer vectors with |coords| <= box that pass the exact filters.

    Each box point is tested, with no ellipsoid, LDL or cache: majorant radius
    (x M x) den <= num D for M = D (dual majorant), dual square x adj x ==
    d det, gcd 1 and a positive leading coordinate. Each prefix p of the
    first n - 4 coordinates meets one grid of the last 4 as a block, with
    x M x = p M p + 2 p M t + t M t; blocks are int64 while ``_exact_dtype``
    bounds every value below 2^62, and Python ints otherwise.
    """
    d = ex.integer(d, "d", None)
    radius = ex.fr(radius)
    m, scale = majorant(L, span).dual_matrix()
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
    best = None
    best_norm = float("inf")
    for w, norm in zip(walls.walls, _restriction_norms(P.frame, walls)):
        if norm < best_norm:
            best_norm = norm
            best = w
    return AvoidanceReport(best_norm > tol.wall, best, best_norm)


def _restriction_norms(frame: np.ndarray, walls: WallSet) -> list[float]:
    """Per wall, the norm of its values on the frame's rows: how far it is from vanishing on their span."""
    return [float(np.linalg.norm(frame @ coords)) for coords in walls._float_coords]


def relevant_walls(z: PeriodPoint, walls: WallSet, tol: Tolerances = DEFAULT_TOL) -> list[WallForm]:
    """Walls vanishing on the period plane of z (restriction norm below tol.wall): those that can cut its cone."""
    return [w for w, norm in zip(walls.walls, _restriction_norms(z.plane_frame(), walls)) if norm < tol.wall]


def kahler_chamber_contains(
    z: PeriodPoint, walls: WallSet, kappa, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Positive-cone membership plus strict positivity on every relevant wall.

    The chamber is the intersection of the spin-selected positive cone with
    the open half spaces delta > 0 over the walls relevant to z, with
    ``tol.wall`` as the margin of both; errors if kappa is not orthogonal
    to the period plane.
    """
    [karr] = float_rows([kappa], "kappa", z.lattice.rank)
    if not positive_cone_contains(z, karr, tol):
        return False
    knorm = float(np.linalg.norm(karr))
    for coords, norm in zip(walls._float_coords, _restriction_norms(z.plane_frame(), walls)):
        if norm < tol.wall and float(coords @ karr) <= tol.wall * knorm:
            return False
    return True
