"""Wall arrangements on the positive Grassmannian: enumeration and chamber tests.

Walls are indivisible negative dual-lattice functionals. Enumeration of all
walls of a given dual square near a positive plane runs over the
positive-definite majorant form q_P(x) = q(x_P) - q(x_{P perp}) transported
to the dual lattice; the search is a bounded lattice-point enumeration with
exact rational filters, so completeness is checkable against brute force.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from . import exactlin as ex
from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError
from .lattice import QuadLattice, WallForm, dual_value, is_negative_form
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
        seen: list[list[int]] = []
        for w in self.walls:
            if w.lattice != self.lattice:
                raise DomainError("wall belongs to a different lattice")
            if not w.indivisible:
                raise DomainError(f"wall {w.coords} is divisible")
            if not is_negative_form(self.lattice, list(w.coords)):
                raise DomainError(f"wall {w.coords} is not negative")
            prim = ex.primitive_vector(list(w.coords))
            for p in seen:
                if p == prim or p == [-x for x in prim]:
                    raise DomainError("proportional walls in wall set")
            seen.append(prim)

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

    ``matrix`` is 2 G B (B^T G B)^{-1} B^T G - G for a basis B of the
    positive subspace P; exact Fractions when the basis is rational, floats
    otherwise. P must be a maximal positive subspace (the complement then is
    negative definite, which makes q_P positive definite).
    """

    lattice: QuadLattice
    matrix: tuple  # rows; Fraction entries in exact mode, floats otherwise
    exact: bool

    def value(self, v) -> Fraction | float:
        if self.exact and all(isinstance(x, (int, Fraction, str)) for x in v):
            vv = ex.frvec(v)
            return ex.dot(vv, ex.mat_vec([list(r) for r in self.matrix], vv))
        arr = np.asarray(v, dtype=float)
        return float(arr @ np.array(self.matrix, dtype=float) @ arr)

    def dual_matrix(self):
        """Inverse matrix: the majorant transported to the dual lattice."""
        if self.exact:
            return ex.inverse([list(r) for r in self.matrix])
        return np.linalg.inv(np.array(self.matrix, dtype=float))


def _span_rows(span) -> tuple[list, bool]:
    if isinstance(span, PositiveThreePlane):
        return [list(map(float, row)) for row in span.frame], False
    rows = [list(v) for v in span]
    exact = all(
        isinstance(x, (int, Fraction)) or isinstance(x, str) for row in rows for x in row
    )
    return rows, exact


def majorant(L: QuadLattice, span) -> MajorantForm:
    """Majorant form of a maximal positive subspace given by spanning vectors.

    Accepts a PositiveThreePlane (float path) or a list of rational vectors
    (exact path). Verifies positive definiteness exactly in the rational
    case and by eigenvalue check otherwise.
    """
    rows, exact = _span_rows(span)
    p, _m = L.signature
    if len(rows) != p:
        raise DomainError(
            f"majorant needs a maximal positive subspace ({p} spanning vectors)"
        )
    if exact:
        b = ex.transpose(ex.frmat(rows))
        g = ex.frmat([list(r) for r in L.gram])
        gb = ex.mat_mul(g, b)
        core = ex.mat_mul(ex.transpose(b), gb)
        pos, neg, zero = ex.inertia(core)
        if (pos, neg, zero) != (p, 0, 0):
            raise DomainError("span is not positive definite")
        core_inv = ex.inverse(core)
        proj = ex.mat_mul(ex.mat_mul(gb, core_inv), ex.transpose(gb))
        mat = [
            [2 * proj[i][j] - g[i][j] for j in range(L.rank)] for i in range(L.rank)
        ]
        pos, neg, zero = ex.inertia(mat)
        if (pos, neg, zero) != (L.rank, 0, 0):
            raise DomainError("majorant is not positive definite; span not maximal positive")
        return MajorantForm(L, tuple(tuple(r) for r in mat), exact=True)
    bmat = np.array(rows, dtype=float).T
    g = gram_float(L)
    core = bmat.T @ g @ bmat
    if np.linalg.eigvalsh(core)[0] <= 0:
        raise DomainError("span is not positive definite")
    proj = g @ bmat @ np.linalg.inv(core) @ bmat.T @ g
    mat = 2 * proj - g
    if np.linalg.eigvalsh(mat)[0] <= 0:
        raise DomainError("majorant is not positive definite; span not maximal positive")
    return MajorantForm(L, tuple(tuple(float(x) for x in r) for r in mat), exact=False)


def in_u_eps(L: QuadLattice, span, v, eps: float) -> bool:
    """Membership in the neighborhood q(v_P) < -eps q(v_{P perp}) of P-perp."""
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    rows, _ = _span_rows(span)
    bmat = np.array(rows, dtype=float).T
    g = gram_float(L)
    core = bmat.T @ g @ bmat
    varr = np.asarray(v, dtype=float)
    coeff = np.linalg.solve(core, bmat.T @ g @ varr)
    v_p = bmat @ coeff
    v_perp = varr - v_p
    q_p = float(v_p @ g @ v_p)
    q_perp = float(v_perp @ g @ v_perp)
    return q_p < -eps * q_perp


# -- enumeration ------------------------------------------------------------------


def _enumerate_ellipsoid_int(
    a_rows: list[list[Fraction]], radius: Fraction, max_points: int = 2_000_000
) -> list[list[int]]:
    """All integer points x with x^T A x <= radius, A positive definite, exact.

    Recursive interval enumeration on the exact LDL decomposition of A:
    x^T A x = sum_i d_i (x_i + sum_{j>i} l_{ij} x_j)^2. Ranges come from a
    padded float square root, inclusion is decided exactly. Aborts beyond
    ``max_points`` results (radius too large for the search volume).
    """
    n = len(a_rows)
    a = [[ex.fr(x) for x in row] for row in a_rows]
    # LDL^T without pivoting (valid: A positive definite)
    d = [Fraction(0)] * n
    lmat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        acc = a[i][i]
        for k in range(i):
            acc -= d[k] * lmat[i][k] * lmat[i][k]
        if acc <= 0:
            raise DomainError("form is not positive definite")
        d[i] = acc
        lmat[i][i] = Fraction(1)
        for j in range(i + 1, n):
            val = a[j][i]
            for k in range(i):
                val -= d[k] * lmat[i][k] * lmat[j][k]
            lmat[j][i] = val / d[i]
    results: list[list[int]] = []
    x = [0] * n

    def rec(i: int, remaining: Fraction):
        if i < 0:
            results.append(list(x))
            if len(results) > max_points:
                raise DomainError(
                    "ellipsoid enumeration exceeded the point budget; reduce the radius"
                )
            return
        # offset from already-fixed coordinates j > i
        off = Fraction(0)
        for j in range(i + 1, n):
            off += lmat[j][i] * x[j]
        bound = float(remaining / d[i]) if remaining > 0 else 0.0
        if not math.isfinite(bound):
            raise DomainError("enumeration radius is out of floating range")
        half = math.sqrt(max(bound, 0.0)) + 1e-9
        lo = math.ceil(float(-off) - half)
        hi = math.floor(float(-off) + half)
        for xi in range(lo, hi + 1):
            term = d[i] * (xi + off) ** 2
            if term <= remaining:
                x[i] = xi
                rec(i - 1, remaining - term)
        x[i] = 0

    rec(n - 1, ex.fr(radius))
    return results


def enumerate_walls_near(
    L: QuadLattice,
    span,
    d: int,
    radius,
    rank_cap: int = 12,
) -> list[WallForm]:
    """All indivisible dual functionals with q^vee = d and majorant norm <= radius.

    The majorant of the positive span is transported to the dual lattice by
    inversion; integer dual vectors inside the ellipsoid are enumerated
    completely, then filtered exactly by dual square and indivisibility.
    One representative per antipodal pair is returned (leading coordinate
    positive), sorted lexicographically.
    """
    if d >= 0:
        raise DomainError("wall square d must be negative")
    radius = ex.fr(radius)
    if radius <= 0:
        raise DomainError("radius must be positive")
    if L.rank > rank_cap:
        raise DomainError(
            f"rank {L.rank} exceeds the enumeration cap {rank_cap}; reduce the radius"
            " and raise rank_cap explicitly if the search volume is known to be small"
        )
    rows, exact = _span_rows(span)
    if not exact:
        raise DomainError("wall enumeration requires a rational spanning basis")
    mj = majorant(L, rows)
    dual = mj.dual_matrix()
    found: dict[tuple[int, ...], None] = {}
    for vec in _enumerate_ellipsoid_int(dual, radius):
        if not any(vec):
            continue
        if ex.content(vec) != 1:
            continue
        if dual_value(L, vec) != d:
            continue
        lead = next(x for x in vec if x)
        canon = tuple(vec) if lead > 0 else tuple(-x for x in vec)
        found[canon] = None
    return [
        WallForm.from_coords(L, list(c)) for c in sorted(found.keys())
    ]


_BOX_SCAN_CACHE: dict = {}


def _box_scan(L: QuadLattice, d: int, box: int) -> list[tuple[int, ...]]:
    """All primitive canonical-sign box vectors with dual square d (cached).

    Screened with vectorized integer arithmetic via the adjugate:
    v adj(G) v == d det(G), exact in int64 for small boxes.
    """
    key = (L.gram, d, box)
    if key in _BOX_SCAN_CACHE:
        return _BOX_SCAN_CACHE[key]
    n = L.rank
    grid = np.stack(
        np.meshgrid(*([np.arange(-box, box + 1, dtype=np.int64)] * n), indexing="ij"),
        axis=-1,
    ).reshape(-1, n)
    adj = np.array(L.adjugate, dtype=np.int64)
    out = []
    for start in range(0, grid.shape[0], 1 << 20):
        chunk = grid[start : start + (1 << 20)]
        qv_scaled = np.einsum("vi,ij,vj->v", chunk, adj, chunk)
        mask = qv_scaled == d * L.det
        mask &= np.gcd.reduce(np.abs(chunk), axis=1) == 1
        for vec in chunk[mask]:
            vec = [int(x) for x in vec]
            lead = next(x for x in vec if x)
            out.append(tuple(vec) if lead > 0 else tuple(-x for x in vec))
    result = sorted(set(out))
    _BOX_SCAN_CACHE[key] = result
    return result


def brute_force_walls(L: QuadLattice, span, d: int, radius, box: int) -> list[WallForm]:
    """Oracle: box search over |coords| <= box with the same exact filters."""
    radius = ex.fr(radius)
    rows, exact = _span_rows(span)
    if not exact:
        raise DomainError("brute force oracle requires a rational spanning basis")
    dual = majorant(L, rows).dual_matrix()
    # integer filter: with M = D * dual, v.dual.v <= radius iff v.M.v * den <= num * D
    n = L.rank
    flat, scale = ex.scale_to_integers([x for row in dual for x in row])
    m = [flat[i * n : (i + 1) * n] for i in range(n)]
    bound = radius.numerator * scale
    found = []
    for vec in _box_scan(L, d, box):
        val = sum(vi * sum(a * b for a, b in zip(row, vec)) for vi, row in zip(vec, m) if vi)
        if val * radius.denominator <= bound:
            found.append(vec)
    return [WallForm.from_coords(L, list(c)) for c in sorted(found)]


# -- incidence and chambers --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AvoidanceReport:
    avoided: bool
    nearest: WallForm | None
    min_restriction_norm: float


def wall_avoidance(
    P: PositiveThreePlane, walls: WallSet, tau: float | None = None
) -> AvoidanceReport:
    """True iff every wall restricts to P with norm above tau; reports the nearest."""
    tau = DEFAULT_TOL.wall if tau is None else tau
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
    return AvoidanceReport(best_norm > tau, best, best_norm)


def relevant_walls(z: PeriodPoint, walls: WallSet, tau: float | None = None) -> list[WallForm]:
    """Walls vanishing on the period plane of z: those that can cut its cone."""
    tau = DEFAULT_TOL.wall if tau is None else tau
    out = []
    for w in walls.walls:
        coords = np.array([float(c) for c in w.coords])
        restriction = z.plane_frame() @ coords
        if float(np.linalg.norm(restriction)) < tau:
            out.append(w)
    return out


def kahler_chamber_contains(
    z: PeriodPoint,
    walls: WallSet,
    kappa,
    tau: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Positive-cone membership plus strict positivity on every relevant wall.

    The chamber is the intersection of the spin-selected positive cone with
    the open half spaces delta > 0 over the walls relevant to z; errors if
    kappa is not orthogonal to the period plane.
    """
    tau = DEFAULT_TOL.wall if tau is None else tau
    if not positive_cone_contains(z, kappa, tol):
        return False
    karr = np.asarray(kappa, dtype=float)
    knorm = float(np.linalg.norm(karr))
    for w in relevant_walls(z, walls, tau):
        coords = np.array([float(c) for c in w.coords])
        if float(coords @ karr) <= tau * knorm:
            return False
    return True
