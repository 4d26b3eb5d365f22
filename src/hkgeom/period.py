"""Period-domain geometry for lattices of signature (3, n).

Period points are h_q-positive isotropic lines [sigma] in the complexified
lattice, stored as normalized oriented 2-frames (Re sigma, Im sigma). The
module provides the point/plane dictionary, the spin orientation transported
from a fixed reference 3-plane, positive-cone membership, twistor conics and
their period points, and chain connectivity between period points through
twistor conics.

Floating point with configurable tolerances; all randomness is seeded.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ChainConnectError, DomainError, NumericalError
from .lattice import QuadLattice


@lru_cache(maxsize=32)
def gram_float(L: QuadLattice) -> np.ndarray:
    """The gram matrix as a read-only float array, built once per lattice."""
    return _readonly(L.gram)


def qform(L: QuadLattice, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(v @ gram_float(L) @ v)


def bform(L: QuadLattice, u, v) -> float:
    return float(np.asarray(u, dtype=float) @ gram_float(L) @ np.asarray(v, dtype=float))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# -- reference plane and spin orientation ---------------------------------------


@lru_cache(maxsize=32)
def reference_plane(L: QuadLattice) -> np.ndarray:
    """q-orthonormal frame of the reference positive 3-plane, as 3 rows.

    Spanned by the eigenvectors of the gram matrix with positive eigenvalues,
    ordered by descending eigenvalue. Any fixed choice gives a legitimate
    orientation of the positive-3-plane bundle; this one is deterministic.
    """
    if L.signature[0] != 3:
        raise DomainError("reference plane needs a lattice of signature (3, n)")
    g = gram_float(L)
    evals, evecs = np.linalg.eigh(g)
    order = np.argsort(-evals)[:3]
    rows = []
    for idx in order:
        lam = evals[idx]
        if lam <= 0:
            raise DomainError("gram matrix does not have three positive eigenvalues")
        rows.append(evecs[:, idx] / np.sqrt(lam))
    return _readonly(np.vstack(rows))


def q_project_coords(L: QuadLattice, frame: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates of the q-orthogonal projection of v onto a q-orthonormal frame."""
    return frame @ gram_float(L) @ np.asarray(v, dtype=float)


def span_residual(L: QuadLattice, frame: np.ndarray, v) -> float:
    """Relative Euclidean residual of v against the q-span of the frame."""
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        return 0.0
    coords = q_project_coords(L, frame, v)
    return float(np.linalg.norm(v - coords @ frame) / nv)


def orientation_flag(L: QuadLattice, frame: np.ndarray) -> int:
    """Sign of the q-orthogonal projection determinant onto the reference plane.

    The projection is injective on positive 3-planes (a kernel vector would be
    q-positive inside the negative definite complement of the reference plane),
    so the determinant is bounded away from zero and the sign is well defined.
    """
    ref = reference_plane(L)
    m = ref @ gram_float(L) @ frame.T
    d = float(np.linalg.det(m))
    if abs(d) < 1e-14:
        raise NumericalError("orientation transport determinant is numerically zero")
    return 1 if d > 0 else -1


# -- oriented planes and period points ------------------------------------------


@dataclasses.dataclass(frozen=True)
class OrientedTwoPlane:
    """Ordered q-orthonormal pair (a, b); the orientation is the order."""

    lattice: QuadLattice
    a: np.ndarray
    b: np.ndarray

    def frame(self) -> np.ndarray:
        return np.vstack([self.a, self.b])

    def reversed(self) -> "OrientedTwoPlane":
        return OrientedTwoPlane(self.lattice, self.a, _readonly(-self.b))


def orthonormal_pair(L: QuadLattice, a, b, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """q-Gram-Schmidt of (a, b); requires the span to be q-positive."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    qa = qform(L, a)
    if qa <= tol.pos * float(a @ a):
        raise DomainError("first vector is not q-positive")
    a1 = a / np.sqrt(qa)
    b1 = b - bform(L, b, a1) * a1
    qb = qform(L, b1)
    if qb <= tol.pos * float(b1 @ b1):
        raise DomainError("pair does not span a positive 2-plane")
    return a1, b1 / np.sqrt(qb)


def oriented_two_plane(L: QuadLattice, a, b, tol: Tolerances = DEFAULT_TOL) -> OrientedTwoPlane:
    a1, b1 = orthonormal_pair(L, a, b, tol)
    return OrientedTwoPlane(L, _readonly(a1), _readonly(b1))


@dataclasses.dataclass(frozen=True)
class PeriodPoint:
    """Normalized representative of an h_q-positive isotropic line [a + i b].

    Invariants: q(a) = q(b) = 1, b(a, b) = 0, and the first coordinate of a
    that is nonzero beyond working precision is positive.
    """

    lattice: QuadLattice
    re: np.ndarray
    im: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        return self.re + 1j * self.im

    def plane_frame(self) -> np.ndarray:
        return np.vstack([self.re, self.im])

    def conjugate(self) -> "PeriodPoint":
        return PeriodPoint(self.lattice, self.re, _readonly(-self.im))


def period_point(L: QuadLattice, re, im, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Validate and normalize a raw representative sigma = re + i im.

    Checks the defining conditions of the period domain: q(sigma) = 0 within
    tol.iso on the normalized scale (equivalently q(a) = q(b) and b(a,b) = 0)
    and h_q(sigma, sigma) = q(a) + q(b) > 0. Then orthonormalizes and fixes
    the sign so the leading nonzero coordinate of a is positive.
    """
    a = np.asarray(re, dtype=float)
    b = np.asarray(im, dtype=float)
    if a.shape != (L.rank,) or b.shape != (L.rank,):
        raise DomainError("period vector has wrong length")
    qa, qb, ab = qform(L, a), qform(L, b), bform(L, a, b)
    h = qa + qb
    if h <= 0:
        raise DomainError("h_q(sigma, sigma) must be positive")
    if abs(qa - qb) > tol.iso * h or abs(2 * ab) > tol.iso * h:
        raise DomainError("q(sigma, sigma) = 0 fails beyond the isotropy tolerance")
    a1, b1 = orthonormal_pair(L, a, b, tol)
    lead = next((i for i in range(L.rank) if abs(a1[i]) > 1e-12), None)
    if lead is not None and a1[lead] < 0:
        a1, b1 = -a1, -b1
    return PeriodPoint(L, _readonly(a1), _readonly(b1))


def point_to_plane(z: PeriodPoint) -> OrientedTwoPlane:
    """The oriented positive 2-plane span(Re sigma, Im sigma)."""
    return OrientedTwoPlane(z.lattice, z.re, z.im)


def plane_to_point(plane: OrientedTwoPlane, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Inverse of point_to_plane: the period point [a + i b]."""
    return period_point(plane.lattice, plane.a, plane.b, tol)


def same_period_point(z1: PeriodPoint, z2: PeriodPoint, tol: float = 1e-7) -> bool:
    """Equality as oriented 2-planes (equivalently as period points)."""
    if z1.lattice != z2.lattice:
        return False
    f1 = z1.plane_frame()
    m = f1 @ gram_float(z1.lattice) @ z2.plane_frame().T
    recon = m.T @ f1
    res = np.linalg.norm(recon - z2.plane_frame())
    return res < tol and float(np.linalg.det(m)) > 0


# -- positive 3-planes -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PositiveThreePlane:
    """q-orthonormal ordered frame of a positive 3-plane plus its spin flag.

    ``spin_positive`` records whether the frame orientation agrees with the
    orientation transported from the reference plane; it is always computed,
    never stored arbitrarily.
    """

    lattice: QuadLattice
    frame: np.ndarray  # 3 x rank, q-orthonormal rows
    spin_positive: bool

    def spin_frame(self) -> np.ndarray:
        """A frame representing the spin orientation (flip last vector if needed)."""
        if self.spin_positive:
            return self.frame
        f = self.frame.copy()
        f[2] = -f[2]
        return _readonly(f)


def orient_three_plane(L: QuadLattice, vectors, tol: Tolerances = DEFAULT_TOL) -> PositiveThreePlane:
    """Orthonormalize a 3-vector span and compute its spin orientation flag.

    Errors on degenerate or non-positive spans, reporting the minimum
    eigenvalue of the Gram matrix of the Euclidean-normalized input.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vs) != 3:
        raise DomainError("a 3-plane needs exactly 3 spanning vectors")
    g = gram_float(L)
    normalized = []
    for v in vs:
        nv = np.linalg.norm(v)
        if nv == 0:
            raise DomainError("zero vector in span")
        normalized.append(v / nv)
    gram3 = np.array([[u @ g @ w for w in normalized] for u in normalized])
    mineig = float(np.linalg.eigvalsh(gram3)[0])
    if mineig <= tol.pos:
        raise DomainError(
            f"span is not a positive 3-plane (min Gram eigenvalue {mineig:.3e})"
        )
    rows = []
    for v in normalized:
        w = v.copy()
        for u in rows:
            w = w - (u @ g @ w) * u
        qw = float(w @ g @ w)
        if qw <= tol.pos:
            raise DomainError(
                f"span is numerically degenerate (residual q-norm {qw:.3e})"
            )
        rows.append(w / np.sqrt(qw))
    frame = np.vstack(rows)
    flag = orientation_flag(L, frame)
    return PositiveThreePlane(L, _readonly(frame), flag > 0)


def positive_cone_contains(z: PeriodPoint, c, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of c in the positive cone selected by the spin orientation.

    Requires c in the q-orthogonal complement of the period plane (error
    otherwise); returns True iff q(c) > 0 and the frame (a, b, c-normalized)
    carries the positive spin flag.
    """
    L = z.lattice
    c = np.asarray(c, dtype=float)
    nc = np.linalg.norm(c)
    if nc == 0:
        raise DomainError("zero vector")
    chat = c / nc
    if abs(bform(L, chat, z.re)) > tol.orth or abs(bform(L, chat, z.im)) > tol.orth:
        raise DomainError("vector is not in the orthogonal complement of the period plane")
    qc = qform(L, c)
    if qc <= 0:
        return False
    c1 = c / np.sqrt(qc)
    frame = np.vstack([z.re, z.im, c1])
    return orientation_flag(L, frame) > 0


def twistor_plane(z: PeriodPoint, ell, tol: Tolerances = DEFAULT_TOL) -> PositiveThreePlane:
    """The positive 3-plane spanned by the period plane and a positive line.

    Requires q(ell) > 0 and ell orthogonal to the period plane; the conic of
    the result contains z by construction.
    """
    L = z.lattice
    ell = np.asarray(ell, dtype=float)
    nl = np.linalg.norm(ell)
    if nl == 0:
        raise DomainError("zero vector")
    lhat = ell / nl
    if abs(bform(L, lhat, z.re)) > tol.orth or abs(bform(L, lhat, z.im)) > tol.orth:
        raise DomainError("line is not orthogonal to the period plane")
    if qform(L, ell) <= 0:
        raise DomainError("line is not q-positive")
    return orient_three_plane(L, [z.re, z.im, ell], tol)


def conic_contains(P: PositiveThreePlane, z: PeriodPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the period plane of z lies inside P (both Re and Im sigma)."""
    return (
        span_residual(P.lattice, P.frame, z.re) < tol.orth
        and span_residual(P.lattice, P.frame, z.im) < tol.orth
    )


def conic_point(
    P: PositiveThreePlane,
    u,
    tol: Tolerances = DEFAULT_TOL,
    index_order: tuple[int, int, int] | None = None,
) -> PeriodPoint:
    """Period point of the conic of P determined by a q-unit vector u in P.

    Completes u to an oriented q-orthonormal frame (u, v, w) of P and returns
    [v + i w]. The completion picks the two frame vectors least aligned with
    u (threshold 0.9) in index order and Gram-Schmidts them, then flips the
    last vector if needed to preserve the frame orientation of P. Any other
    completion differs by a rotation of (v, w) and gives the same line, so
    the point does not depend on the completion; ``index_order`` permutes the
    candidate scan to let tests check exactly that.
    """
    L = P.lattice
    u = np.asarray(u, dtype=float)
    if abs(qform(L, u) - 1.0) > 1e-6:
        raise DomainError("u must be a q-unit vector")
    if span_residual(L, P.frame, u) > tol.orth:
        raise DomainError("u does not lie in the 3-plane")
    g = gram_float(L)
    coords = P.frame @ g @ u
    order = index_order if index_order is not None else (0, 1, 2)
    picked = [i for i in order if abs(coords[i]) <= 0.9][:2]
    if len(picked) < 2:
        raise NumericalError("frame completion failed to find two transverse vectors")
    j, k = picked
    v = P.frame[j] - coords[j] * u
    v = v / np.sqrt(qform(L, v))
    w = P.frame[k] - (P.frame[k] @ g @ u) * u - (P.frame[k] @ g @ v) * v
    w = w / np.sqrt(qform(L, w))
    # orientation of (u, v, w) as a frame of P, relative to P's own frame
    m = np.array([P.frame @ g @ x for x in (u, v, w)])
    if float(np.linalg.det(m)) < 0:
        w = -w
    return period_point(L, v, w, tol)


# -- twistor chains ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChainLink:
    plane: PositiveThreePlane
    entry: PeriodPoint
    exit: PeriodPoint


@dataclasses.dataclass(frozen=True)
class TwistorChain:
    links: tuple[ChainLink, ...]

    def __len__(self) -> int:
        return len(self.links)


def verify_chain(
    chain: TwistorChain,
    source: PeriodPoint,
    target: PeriodPoint,
    tol: Tolerances = DEFAULT_TOL,
    point_tol: float = 1e-7,
) -> None:
    """Re-check all chain invariants by independent code paths; raises on failure.

    Checks: every plane has min Gram eigenvalue above tol.pos (eigenvalue
    test on the raw frame), every entry/exit lies on its conic, consecutive
    links share their junction point, and the endpoints match.
    """
    g = gram_float(source.lattice)
    prev = source
    for link in chain.links:
        gram3 = link.plane.frame @ g @ link.plane.frame.T
        mineig = float(np.linalg.eigvalsh(gram3)[0])
        if mineig <= tol.pos:
            raise NumericalError(f"chain plane fails positivity ({mineig:.3e})")
        if not conic_contains(link.plane, link.entry, tol):
            raise NumericalError("chain entry point is off its conic")
        if not conic_contains(link.plane, link.exit, tol):
            raise NumericalError("chain exit point is off its conic")
        if not same_period_point(prev, link.entry, point_tol):
            raise NumericalError("chain links do not share junction points")
        prev = link.exit
    if not same_period_point(prev, target, point_tol):
        raise NumericalError("chain does not end at the target")


def _perp_positive_direction(z: PeriodPoint) -> np.ndarray:
    """q-unit positive vector in the orthogonal complement of the period plane.

    The complement has signature (1, n); returns the top eigendirection of
    the restricted form, a deterministic and well-conditioned choice.
    """
    L = z.lattice
    g = gram_float(L)
    pairings = z.plane_frame() @ g  # 2 x rank; kernel = perp of the plane
    _, _, vt = np.linalg.svd(pairings)
    basis = vt[2:]  # rank-2 rows spanning the complement (Euclidean-orthonormal)
    restricted = basis @ g @ basis.T
    evals, evecs = np.linalg.eigh(restricted)
    lam = evals[-1]
    if lam <= 0:
        raise NumericalError("no positive direction orthogonal to the period plane")
    ell = evecs[:, -1] @ basis
    return ell / np.sqrt(qform(L, ell))


def _rotate_target_frame(L: QuadLattice, cur: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Rotate the target frame in its own plane to best align with cur.

    The rotation keeps the period point fixed (it rescales sigma by a unit
    complex number); alignment makes the straight-line frame interpolation
    stay well conditioned.
    """
    g = gram_float(L)
    m = tgt @ g @ cur.T  # correlations between target and current frame
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, -1.0]) @ vt
    return r.T @ tgt


def _two_hop(
    zA: PeriodPoint, zB: PeriodPoint, tol: Tolerances, margin: float
) -> list[ChainLink] | None:
    """Direct two-link route A -> B through the mid plane span(x, m).

    x is the unit vector of the target plane least correlated with the
    current plane; the first link plane is span(current plane, x) and the
    second is span(x-perp choice m, target plane). Both are built from
    q-orthonormal extensions so positivity only requires the correlation
    defect to clear ``margin``.
    """
    L = zA.lattice
    g = gram_float(L)
    fa = zA.plane_frame()
    fb = zB.plane_frame()
    corr = fb @ g @ fa.T
    u_svd, svals, _ = np.linalg.svd(corr)
    x = u_svd[:, -1] @ fb  # q-unit in the target plane, least in-plane component
    x_perp = x - (fa @ g @ x) @ fa
    qxp = qform(L, x_perp)
    if qxp <= margin:
        return None
    x3 = x_perp / np.sqrt(qxp)
    p1 = np.vstack([fa[0], fa[1], x3])
    # orthonormal basis of the complement of x inside P1
    y1 = fa[0] - bform(L, fa[0], x) * x
    y1 = y1 / np.sqrt(qform(L, y1))
    y2 = fa[1] - bform(L, fa[1], x) * x - bform(L, fa[1], y1) * y1
    qy2 = qform(L, y2)
    if qy2 <= margin:
        return None
    y2 = y2 / np.sqrt(qy2)
    d = fb @ g @ np.vstack([y1, y2]).T
    _, _, vt_d = np.linalg.svd(d)
    m_vec = vt_d[-1, 0] * y1 + vt_d[-1, 1] * y2
    m_perp = m_vec - (fb @ g @ m_vec) @ fb
    qmp = qform(L, m_perp)
    if qmp <= margin:
        return None
    m3 = m_perp / np.sqrt(qmp)
    p2 = np.vstack([fb[0], fb[1], m3])
    try:
        plane1 = orient_three_plane(L, list(p1), tol)
        plane2 = orient_three_plane(L, list(p2), tol)
        w = period_point(L, x, m_vec, tol)
    except DomainError:
        return None
    return [ChainLink(plane1, zA, w), ChainLink(plane2, w, zB)]


def _kick_link(z: PeriodPoint, which: int, tol: Tolerances) -> tuple[ChainLink, PeriodPoint]:
    """One clean link that replaces a frame vector by an orthogonal positive one."""
    L = z.lattice
    ell = _perp_positive_direction(z)
    a, b = z.re, z.im
    plane = orient_three_plane(L, [a, b, ell], tol)
    if which % 2 == 0:
        w = period_point(L, ell, b, tol)
    else:
        w = period_point(L, a, ell, tol)
    return ChainLink(plane, z, w), w


def chain_connect(
    z: PeriodPoint,
    target: PeriodPoint,
    max_links: int = 64,
    tol: Tolerances = DEFAULT_TOL,
    margin: float = 1e-3,
    point_tol: float = 1e-7,
) -> TwistorChain:
    """Connect two period points by a chain of twistor conics.

    Strategy: points on a common positive 3-plane are joined by one link;
    otherwise a two-pivot route through a mid plane is tried, and when the
    planes are too close or too far for that, the walk either hops onto a
    well-separated conic point (kick) or retreats to an interpolated waypoint
    at a fraction of the remaining distance. Fails with ChainConnectError
    after ``max_links`` links.
    """
    if max_links < 0:
        raise DomainError("max_links must be >= 0")
    L = z.lattice
    if L != target.lattice:
        raise DomainError("period points live on different lattices")
    if L.signature != (3, L.rank - 3) or L.rank - 3 == 0:
        if L.rank - 3 == 0:
            raise DomainError("signature too small: rank 3 leaves no pivot room")
        raise DomainError("chain connectivity needs signature (3, n)")
    links: list[ChainLink] = []
    cur = z
    kicks = 0
    while True:
        if same_period_point(cur, target, point_tol):
            return TwistorChain(tuple(links))
        if len(links) >= max_links:
            raise ChainConnectError(f"max_links exceeded ({max_links})")
        fa, fb = cur.plane_frame(), target.plane_frame()
        same_plane = (
            span_residual(L, fa, fb[0]) < 1e-9 and span_residual(L, fa, fb[1]) < 1e-9
        )
        if same_plane:
            # same underlying plane, different orientation or rotation: one conic
            ell = _perp_positive_direction(cur)
            plane = orient_three_plane(L, [cur.re, cur.im, ell], tol)
            links.append(ChainLink(plane, cur, target))
            return TwistorChain(tuple(links))
        stacked = np.vstack([fa, fb])
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[3] < 1e-8 * svals[0]:
            # union spans a 3-space; positive union gives a single link
            try:
                plane = orient_three_plane(L, list(_span_basis(stacked, 3)), tol)
                if conic_contains(plane, cur, tol) and conic_contains(plane, target, tol):
                    links.append(ChainLink(plane, cur, target))
                    return TwistorChain(tuple(links))
            except DomainError:
                pass  # shared line but indefinite union: fall through
        hop = _two_hop(cur, target, tol, margin)
        if hop is not None and len(links) + 2 <= max_links:
            links.extend(hop)
            return TwistorChain(tuple(links))
        # waypoint: interpolate toward an aligned copy of the target frame
        advanced = False
        tgt_aligned = _rotate_target_frame(L, fa, fb)
        for f in (0.5, 0.25, 0.125, 0.0625):
            mix_a = (1 - f) * fa[0] + f * tgt_aligned[0]
            mix_b = (1 - f) * fa[1] + f * tgt_aligned[1]
            try:
                wp = period_point(L, *orthonormal_pair(L, mix_a, mix_b, tol), tol)
            except DomainError:
                continue
            hop = _two_hop(cur, wp, tol, margin)
            if hop is not None and len(links) + 2 < max_links:
                links.extend(hop)
                cur = wp
                advanced = True
                break
        if advanced:
            continue
        link, cur = _kick_link(cur, kicks, tol)
        kicks += 1
        links.append(link)


def _span_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    """Euclidean-orthonormal basis of the row span, truncated to dim vectors."""
    _, _, vt = np.linalg.svd(rows)
    return vt[:dim]


# -- sampling ---------------------------------------------------------------------


def sample_period_point(L: QuadLattice, seed: int, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Deterministic random period point; byte-identical for a fixed seed."""
    if L.signature[0] != 3:
        raise DomainError("sampling needs a lattice of signature (3, n)")
    rng = np.random.default_rng(seed)
    g = gram_float(L)
    evals, evecs = np.linalg.eigh(g)
    pos = evecs[:, evals > 0]
    neg = evecs[:, evals < 0]
    a_pos = pos @ rng.standard_normal(pos.shape[1])
    b_pos = pos @ rng.standard_normal(pos.shape[1])
    a_neg = neg @ rng.standard_normal(neg.shape[1]) if neg.shape[1] else 0.0
    b_neg = neg @ rng.standard_normal(neg.shape[1]) if neg.shape[1] else 0.0
    eps = 0.6
    for _ in range(40):
        a = a_pos + eps * a_neg
        b = b_pos + eps * b_neg
        try:
            a1, b1 = orthonormal_pair(L, a, b, tol)
            return period_point(L, a1, b1, tol)
        except DomainError:
            eps *= 0.5
    raise NumericalError("failed to sample a positive 2-plane")


def sample_irrational_line(
    z: PeriodPoint,
    height: int = 100,
    relation_tol: float = 1e-9,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    max_tries: int = 64,
) -> np.ndarray:
    """Positive line orthogonal to the period plane passing the irrationality test.

    Draws seeded random mixtures of the top positive direction with the rest
    of the orthogonal complement until the spanned twistor 3-plane is flagged
    fully irrational at the given height bound and tolerance.
    """
    from .irrational import is_fully_irrational

    L = z.lattice
    if L.rank - 3 == 0:
        raise DomainError("signature too small: the complement has no room to sample")
    g = gram_float(L)
    rng = np.random.default_rng(seed)
    pairings = z.plane_frame() @ g
    _, _, vt = np.linalg.svd(pairings)
    basis = vt[2:]
    restricted = basis @ g @ basis.T
    evals, evecs = np.linalg.eigh(restricted)
    for _ in range(max_tries):
        mix = evecs[:, -1] + 0.4 * rng.standard_normal(basis.shape[0])
        ell = mix @ basis
        if qform(L, ell) <= tol.pos:
            continue
        ell = ell / np.sqrt(qform(L, ell))
        verdict = is_fully_irrational([ell, z.re, z.im], height=height, tol=relation_tol)
        if verdict.fully_irrational:
            return _readonly(ell)
    raise NumericalError("failed to sample a fully irrational positive line")
