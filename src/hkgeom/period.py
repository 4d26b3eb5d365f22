"""Period-domain geometry for lattices of signature (3, n).

Period points are h_q-positive isotropic lines [sigma] in the complexified
lattice, stored as normalized oriented 2-frames (Re sigma, Im sigma). The
module provides the point/plane dictionary, the spin orientation transported
from a fixed reference 3-plane, positive-cone membership, twistor conics and
their period points, and chain connectivity between period points through
twistor conics.

Floating point with configurable tolerances; all randomness is seeded. Every
float vector the library takes in, here and in llv, walls and irrational,
passes one rule, ``float_rows``: finite coordinates, as many as the lattice's
rank (one shared count without a lattice), or a DomainError naming the argument.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError, NumericalError
from .exactlin import integer
from .lattice import QuadLattice


@lru_cache(maxsize=32)
def gram_float(L: QuadLattice) -> np.ndarray:
    """The gram matrix as a read-only float array, built once per lattice."""
    return _readonly(L.gram)


def float_rows(vectors, what: str, length: int | None) -> list[np.ndarray]:
    """The float rule: ``vectors`` as finite float arrays of one length, ``length`` unless it is None.

    Otherwise a DomainError names ``what``. A float array comes back as itself: no product of it changes a bit.
    """
    try:
        ws = [np.asarray(v, dtype=float) for v in vectors]
    except (TypeError, ValueError, OverflowError) as err:
        raise DomainError(f"{what} must have float coordinates") from err
    if not ws:
        raise DomainError(f"empty input: no {what}")
    shape = ws[0].shape if length is None else (length,)
    zero = np.zeros(shape)
    for w in ws:
        if w.shape != shape or len(shape) != 1 or not shape[0]:
            raise DomainError(f"{what} must " + (f"have length {length}" if length else "share one nonzero length"))
        # 0 x is 0 for every finite x and NaN for NaN and +-inf; vdot, unlike dot, does not warn of it
        if math.isnan(np.vdot(w, zero)):
            raise DomainError(f"{what} must have finite coordinates")
    return ws


def qform(L: QuadLattice, v) -> float:
    v = np.asarray(v, dtype=float)
    return float(v @ gram_float(L) @ v)


def bform(L: QuadLattice, u, v) -> float:
    return float(np.asarray(u, dtype=float) @ gram_float(L) @ np.asarray(v, dtype=float))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: no copy, so its memory layout (and every product of it) is kept."""
    a.setflags(write=False)
    return a


def _norm(v: np.ndarray) -> np.float64:
    """np.linalg.norm(v) of a float array, without its dispatch: the same sum in the same order.

    ``ravel(order='K')`` is what norm does; a plain ``ravel()`` of a transposed
    operand would visit the entries, and round the sum, in another order.
    """
    flat = v.ravel(order="K")
    return np.sqrt(flat.dot(flat))


# Thresholds that are not Tolerances fields; each is a fixed numerical guard.
_ORIENT_DET_MIN = 1e-14  # below this the transport determinant's sign is rounding noise
_LEAD_CUT = 1e-12  # coordinates this small are zero when picking the sign-fixing lead coordinate
_UNIT_TOL = 1e-6  # how far q(u) may stray from 1 for conic_point's direction u
_TRANSVERSE = 0.9  # |q-coordinate| of a frame vector along u above which it is too aligned to complete u
_SAME_PLANE = 1e-9  # span residual under which two period planes are the same plane
_UNION_RANK = 1e-8  # singular-value ratio under which the union of two planes has rank 3
_LINK_MARGIN = 1e-3  # the 2-link route needs s_1 below 1 by this: its junction degenerates at s_1 = 1
_REFINE_CANCEL = 1e-2  # least pivot x |frame|^2 below which a 3-plane frame's substitution cancelled: a second pass
_SCREEN_MARGIN = 1e-6  # relative margin past which sample_period_point's screen is sure orthonormal_pair rejects


@lru_cache(maxsize=32)
def _spectrum(L: QuadLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """eigh of the float gram and its positive and negative eigenvector blocks, once per lattice."""
    evals, evecs = np.linalg.eigh(gram_float(L))
    return tuple(_frozen(a) for a in (evals, evecs, evecs[:, evals > 0], evecs[:, evals < 0]))


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
    evals, evecs, _, _ = _spectrum(L)
    order = np.argsort(-evals)[:3]
    rows = []
    for idx in order:
        lam = evals[idx]
        if lam <= 0:
            raise DomainError("gram matrix does not have three positive eigenvalues")
        rows.append(evecs[:, idx] / np.sqrt(lam))
    return _readonly(np.array(rows))


@lru_cache(maxsize=32)
def _reference_image(L: QuadLattice) -> np.ndarray:
    """reference_plane(L) @ gram_float(L), the left factor of every orientation transport."""
    return _frozen(reference_plane(L) @ gram_float(L))


def _span_residual(frame: np.ndarray, frame_g: np.ndarray, v) -> float:
    """Relative Euclidean residual of v against the q-span of the frame, given its G-image ``frame @ gram``."""
    v = np.asarray(v, dtype=float)
    nv = _norm(v)
    if nv == 0:
        return 0.0
    return float(_norm(v - (frame_g @ v) @ frame) / nv)


def orientation_flag(L: QuadLattice, frame: np.ndarray) -> int:
    """Sign of the q-orthogonal projection determinant onto the reference plane.

    The projection is injective on positive 3-planes (a kernel vector would be
    q-positive inside the negative definite complement of the reference plane),
    so the determinant is bounded away from zero and the sign is well defined.
    """
    d = _det3((_reference_image(L) @ frame.T).tolist())
    if abs(d) < _ORIENT_DET_MIN:
        raise NumericalError("orientation transport determinant is numerically zero")
    return 1 if d > 0 else -1


def _det3(m) -> float:
    """Determinant of a 3 x 3 matrix given as nested lists of floats, by cofactors of the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# -- oriented planes and period points ------------------------------------------


@dataclasses.dataclass(frozen=True)
class OrientedTwoPlane:
    """Ordered q-orthonormal pair (a, b); the orientation is the order."""

    lattice: QuadLattice
    a: np.ndarray
    b: np.ndarray


def orthonormal_pair(L: QuadLattice, a, b, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """q-Gram-Schmidt of (a, b); requires the span to be q-positive."""
    return _orthonormal_pair(L, *float_rows((a, b), "a and b", L.rank), tol)


def _orthonormal_pair(L: QuadLattice, a: np.ndarray, b: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """orthonormal_pair of float vectors that pass the float rule, as the library's own do."""
    g = gram_float(L)
    qa = float(a @ g @ a)
    if qa <= tol.pos * float(a @ a):
        raise DomainError("first vector is not q-positive")
    a1 = a / np.sqrt(qa)
    b1 = b - float(b @ g @ a1) * a1
    qb = float(b1 @ g @ b1)
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
    that is nonzero beyond working precision is positive. The arrays are
    read-only (a writable one is stored as a read-only copy), so the frame
    and its G-image can be cached on the point.
    """

    lattice: QuadLattice
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        for name in ("re", "im"):
            _hold_readonly(self, name)

    def __reduce__(self):
        # copies and unpickled points are rebuilt, so they hold read-only arrays and no cache
        return PeriodPoint, (self.lattice, self.re, self.im)

    @property
    def sigma(self) -> np.ndarray:
        return self.re + 1j * self.im

    def plane_frame(self) -> np.ndarray:
        """The 2 x rank frame (Re sigma, Im sigma), read-only."""
        return self._frame

    @cached_property
    def _frame(self) -> np.ndarray:
        return _frozen(np.array([self.re, self.im]))

    @cached_property
    def _frame_g(self) -> np.ndarray:
        return _frozen(self._frame @ gram_float(self.lattice))

    @cached_property
    def _frame_norm(self) -> np.float64:
        return _norm(self._frame)

    def conjugate(self) -> "PeriodPoint":
        return PeriodPoint(self.lattice, self.re, -self.im)


def _hold_readonly(obj, name: str) -> None:
    """Replace a writable array field of a frozen dataclass by a read-only copy."""
    a = getattr(obj, name)
    if not isinstance(a, np.ndarray) or a.flags.writeable:
        object.__setattr__(obj, name, _readonly(a))


def period_point(L: QuadLattice, re, im, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Validate and normalize a raw representative sigma = re + i im.

    Checks the defining conditions of the period domain: q(sigma) = 0 within
    tol.iso on the normalized scale (equivalently q(a) = q(b) and b(a,b) = 0)
    and h_q(sigma, sigma) = q(a) + q(b) > 0. Then orthonormalizes and fixes
    the sign so the leading nonzero coordinate of a is positive.
    """
    return _period_point(L, *float_rows((re, im), "re and im", L.rank), tol)


def _period_point(L: QuadLattice, a: np.ndarray, b: np.ndarray, tol: Tolerances) -> PeriodPoint:
    """period_point of float vectors that pass the float rule, as the library's own do."""
    g = gram_float(L)
    ag = a @ g
    qa, qb, ab = float(ag @ a), float(b @ g @ b), float(ag @ b)
    h = qa + qb
    if h <= 0:
        raise DomainError("h_q(sigma, sigma) must be positive")
    if abs(qa - qb) > tol.iso * h or abs(2 * ab) > tol.iso * h:
        raise DomainError("q(sigma, sigma) = 0 fails beyond the isotropy tolerance")
    a1, b1 = _orthonormal_pair(L, a, b, tol)
    lead = next((i for i in range(L.rank) if abs(a1[i]) > _LEAD_CUT), None)
    if lead is not None and a1[lead] < 0:
        a1, b1 = -a1, -b1
    return PeriodPoint(L, _frozen(a1), _frozen(b1))


def point_to_plane(z: PeriodPoint) -> OrientedTwoPlane:
    """The oriented positive 2-plane span(Re sigma, Im sigma)."""
    return OrientedTwoPlane(z.lattice, z.re, z.im)


def plane_to_point(plane: OrientedTwoPlane, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Inverse of point_to_plane: the period point [a + i b]."""
    return period_point(plane.lattice, plane.a, plane.b, tol)


_POINT_TOL = 1e-7  # frame reconstruction residual per unit of frame norm


def same_period_point(z1: PeriodPoint, z2: PeriodPoint) -> bool:
    """Equality as oriented 2-planes (equivalently as period points).

    The frame of z2 rebuilt from its q-projection onto z1 must match within
    ``_POINT_TOL`` times the larger Euclidean frame norm: a scale-free test.
    """
    if z1.lattice != z2.lattice:
        return False
    f1, f2 = z1._frame, z2._frame
    m = z1._frame_g @ f2.T
    res = _norm(m.T @ f1 - f2)
    if not res < _POINT_TOL * max(z1._frame_norm, z2._frame_norm):
        return False
    (a, b), (c, d) = m.tolist()
    return a * d - b * c > 0


# -- positive 3-planes -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PositiveThreePlane:
    """q-orthonormal ordered frame of a positive 3-plane plus its spin flag.

    ``spin_positive`` records whether the frame orientation agrees with the
    orientation transported from the reference plane; it is always computed,
    never stored arbitrarily. The frame is read-only, as on PeriodPoint.
    """

    lattice: QuadLattice
    frame: np.ndarray  # 3 x rank, q-orthonormal rows
    spin_positive: bool

    def __post_init__(self):
        _hold_readonly(self, "frame")

    def __reduce__(self):
        return PositiveThreePlane, (self.lattice, self.frame, self.spin_positive)

    @cached_property
    def _frame_g(self) -> np.ndarray:
        return _frozen(self.frame @ gram_float(self.lattice))


def orient_three_plane(L: QuadLattice, vectors, tol: Tolerances = DEFAULT_TOL) -> PositiveThreePlane:
    """Orthonormalize a 3-vector span and compute its spin orientation flag.

    The frame is the q-Gram-Schmidt frame of the Euclidean-normalized rows
    u, read off one closed-form Cholesky factorization G = C C^T of their
    3 x 3 q-gram: the frame rows are C^{-1} u by forward substitution,
    r_k = (u_k - sum_{j<k} C_kj r_j) / C_kk. Since C_kj = b(r_j, u_k) and
    C_kk^2 is the q-norm of u_k less its projection onto r_0 .. r_{k-1},
    this is Gram-Schmidt in exact arithmetic, with the same degeneracy test
    on the pivots C_kk^2. In floats the frame is q-orthonormal to about
    3 eps / (least pivot C_kk^2). Times |frame|^2 that pivot bounds from
    below the squared length left of u_k after projection, so when the
    product is under ``_REFINE_CANCEL`` the substitution cancelled and the
    frame is factored and solved once more on its own q-gram, which brings
    it to rounding; otherwise the frame is as accurate as Gram-Schmidt's.
    The span is
    positive iff G - tol.pos I has positive pivots (all leading minors
    positive: minimum eigenvalue above tol.pos). Errors on degenerate or
    non-positive spans, reporting the minimum eigenvalue of the Gram matrix
    of the Euclidean-normalized input.
    """
    vs = float_rows(vectors, "vectors", L.rank)
    if len(vs) != 3:
        raise DomainError("a 3-plane needs exactly 3 spanning vectors")
    return _orient_three_plane(L, vs, tol)


def _orient_three_plane(L: QuadLattice, vs: list, tol: Tolerances) -> PositiveThreePlane:
    """orient_three_plane of 3 float vectors that pass the float rule, as the library's own do."""
    g = gram_float(L)
    normalized = []
    for v in vs:
        nv = _norm(v)
        if nv == 0:
            raise DomainError("zero vector in span")
        normalized.append(v / nv)
    unit = np.array(normalized)
    gram3 = unit @ g @ unit.T
    m = gram3.tolist()
    shifted, _ = _cholesky3(m, tol.pos, 0.0)
    if shifted is None:
        mineig = float(np.linalg.eigvalsh(gram3)[0])
        raise DomainError(
            f"span is not a positive 3-plane (min Gram eigenvalue {mineig:.3e})"
        )
    frame = unit
    for _ in range(2):
        c, pivot = _cholesky3(m, 0.0, tol.pos)
        if c is None:
            raise DomainError(
                f"span is numerically degenerate (residual q-norm {pivot:.3e})"
            )
        u0, u1, u2 = frame
        r0 = u0 / c[0][0]
        r1 = (u1 - c[1][0] * r0) / c[1][1]
        r2 = (u2 - c[2][0] * r0 - c[2][1] * r1) / c[2][2]
        frame = np.array([r0, r1, r2])
        if pivot * _norm(frame) ** 2 >= _REFINE_CANCEL:
            break
        m = (frame @ g @ frame.T).tolist()
    frame = _frozen(frame)
    return PositiveThreePlane(L, frame, orientation_flag(L, frame) > 0)


def _cholesky3(m: list, shift: float, floor: float) -> tuple[list[list[float]] | None, float]:
    """Closed-form Cholesky C C^T = m - shift I of a symmetric 3 x 3 ``m`` (nested lists).

    Returns the rows of the lower factor C, or None at the first pivot
    C_kk^2 not above ``floor`` (NaN included), and the least pivot computed.
    """
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
    p0 = m00 - shift
    if not p0 > floor:
        return None, p0
    c00 = math.sqrt(p0)
    c10, c20 = m01 / c00, m02 / c00
    p1 = m11 - shift - c10 * c10
    if not p1 > floor:
        return None, p1
    c11 = math.sqrt(p1)
    c21 = (m12 - c20 * c10) / c11
    p2 = m22 - shift - c20 * c20 - c21 * c21
    if not p2 > floor:
        return None, p2
    return [[c00], [c10, c11], [c20, c21, math.sqrt(p2)]], min(p0, p1, p2)


def _orthogonal_to_plane(z: PeriodPoint, v, what: str, tol: Tolerances) -> np.ndarray:
    """v as a float vector, nonzero and, as v / |v| within tol.orth, q-orthogonal to the period plane of z."""
    L = z.lattice
    [v] = float_rows([v], what, L.rank)
    nv = _norm(v)
    if nv == 0:
        raise DomainError(f"{what} is the zero vector")
    vhat = v / nv
    if abs(bform(L, vhat, z.re)) > tol.orth or abs(bform(L, vhat, z.im)) > tol.orth:
        raise DomainError(f"{what} is not in the orthogonal complement of the period plane")
    return v


def positive_cone_contains(z: PeriodPoint, c, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of c in the positive cone selected by the spin orientation.

    Requires c in the q-orthogonal complement of the period plane (error
    otherwise); returns True iff q(c) > 0 and the frame (a, b, c-normalized)
    carries the positive spin flag.
    """
    L = z.lattice
    c = _orthogonal_to_plane(z, c, "c", tol)
    qc = qform(L, c)
    if qc <= 0:
        return False
    c1 = c / np.sqrt(qc)
    frame = np.array([z.re, z.im, c1])
    return orientation_flag(L, frame) > 0


def twistor_plane(z: PeriodPoint, ell, tol: Tolerances = DEFAULT_TOL) -> PositiveThreePlane:
    """The positive 3-plane spanned by the period plane and a positive line.

    Requires q(ell) > 0 and ell orthogonal to the period plane; the conic of
    the result contains z by construction.
    """
    L = z.lattice
    ell = _orthogonal_to_plane(z, ell, "ell", tol)
    if qform(L, ell) <= 0:
        raise DomainError("line is not q-positive")
    return _orient_three_plane(L, [z.re, z.im, ell], tol)


def conic_contains(P: PositiveThreePlane, z: PeriodPoint, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the period plane of z lies inside P (both Re and Im sigma)."""
    return (
        _span_residual(P.frame, P._frame_g, z.re) < tol.orth
        and _span_residual(P.frame, P._frame_g, z.im) < tol.orth
    )


def conic_point(
    P: PositiveThreePlane,
    u,
    tol: Tolerances = DEFAULT_TOL,
) -> PeriodPoint:
    """Period point of the conic of P determined by a q-unit vector u in P.

    Completes u to an oriented q-orthonormal frame (u, v, w) of P and returns
    [v + i w]. The completion picks the two frame vectors least aligned with
    u (``_TRANSVERSE``) in index order and Gram-Schmidts them, then flips the
    last vector if needed to preserve the frame orientation of P. Any other
    completion differs by a rotation of (v, w) and gives the same line, so
    the point does not depend on the completion.
    """
    L = P.lattice
    [u] = float_rows([u], "u", L.rank)
    if abs(qform(L, u) - 1) > _UNIT_TOL:
        raise DomainError("u must be a q-unit vector")
    if _span_residual(P.frame, P._frame_g, u) > tol.orth:
        raise DomainError("u does not lie in the 3-plane")
    coords = P._frame_g @ u
    picked = [i for i in range(3) if abs(coords[i]) <= _TRANSVERSE][:2]
    if len(picked) < 2:
        raise NumericalError("frame completion failed to find two transverse vectors")
    j, k = picked
    v = P.frame[j] - coords[j] * u
    v = v / np.sqrt(qform(L, v))
    kg = P.frame[k] @ gram_float(L)
    w = P.frame[k] - (kg @ u) * u - (kg @ v) * v
    w = w / np.sqrt(qform(L, w))
    # orientation of (u, v, w) as a frame of P, relative to P's own frame
    if _det3([(P._frame_g @ x).tolist() for x in (u, v, w)]) < 0:
        w = -w
    return _period_point(L, v, w, tol)


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
) -> None:
    """Re-check all chain invariants by independent code paths; raises on failure.

    Checks: every plane has min Gram eigenvalue above tol.pos (eigenvalue
    test on the raw frame), every entry/exit lies on its conic, consecutive
    links share their junction point, and the endpoints match.
    """
    prev = source
    for link in chain.links:
        gram3 = link.plane._frame_g @ link.plane.frame.T
        mineig = float(np.linalg.eigvalsh(gram3)[0])
        if mineig <= tol.pos:
            raise NumericalError(f"chain plane fails positivity ({mineig:.3e})")
        if not conic_contains(link.plane, link.entry, tol):
            raise NumericalError("chain entry point is off its conic")
        if not conic_contains(link.plane, link.exit, tol):
            raise NumericalError("chain exit point is off its conic")
        if not same_period_point(prev, link.entry):
            raise NumericalError("chain links do not share junction points")
        prev = link.exit
    if not same_period_point(prev, target):
        raise NumericalError("chain does not end at the target")


def _complement(g: np.ndarray, rows: np.ndarray, drop=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The g-orthogonal complement of the row span and a form restricted to it.

    Returns (basis, evals, evecs): Euclidean-orthonormal rows spanning the
    complement (the kernel of rows @ g, rows of full rank) and the ascending
    eigendecomposition of the form v -> q(v) - sum of b(v, d)^2 over the
    vectors d in ``drop``, in that basis. Without ``drop``, eigenvectors for
    different eigenvalues are orthogonal both for the dot product and for g.
    """
    _, _, vt = np.linalg.svd(rows @ g)
    basis = vt[len(rows):]
    basis_g = basis @ g
    pairings = basis_g @ np.reshape(drop, (-1, len(g))).T
    evals, evecs = np.linalg.eigh(basis_g @ basis.T - pairings @ pairings.T)
    return basis, evals, evecs


def _perp_positive_direction(g: np.ndarray, rows: np.ndarray, drop=()) -> np.ndarray:
    """g-unit positive vector g-orthogonal to the row span.

    The top eigendirection of the restricted form (less the squares of the
    pairings with ``drop``), a deterministic and well-conditioned choice.
    """
    basis, evals, evecs = _complement(g, rows, drop)
    if not evals.size or evals[-1] <= 0:
        raise NumericalError("no positive direction orthogonal to the span")
    ell = evecs[:, -1] @ basis
    return ell / np.sqrt(ell @ g @ ell)


def chain_connect(z: PeriodPoint, target: PeriodPoint, tol: Tolerances = DEFAULT_TOL) -> TwistorChain:
    """Connect two period points by a chain of at most 3 twistor conics.

    Twistor-path connectivity (Verbitsky, arXiv:0908.4121; Huybrechts,
    arXiv:1106.5573) in closed form, one construction per case. P and Q are
    the positive 2-planes of z and target; the SVD of their correlation
    b(Q, P) gives principal pairs p_k in P, q_k in Q with b(q_k, p_j) =
    s_k delta_kj. The parts x_k = q_k - s_k p_k of Q q-orthogonal to P make
    (p_0, p_1, x_0, x_1) a q-orthogonal basis of P + Q with q-norms
    (1, 1, 1 - s_0^2, 1 - s_1^2), so the signs of 1 - s_k^2 give the inertia
    of P + Q without a rank-sized decomposition. Since the positive index of
    the lattice is 3, s_0 >= 1.

    - Same point: no link. Same plane, other orientation: one link on P + c,
      with c the top positive direction of P^perp.
    - P + Q a positive 3-space: one link on P + Q.
    - Positive index 3 (s_1 < 1 - ``_LINK_MARGIN``): the positive x_1 in P^perp and
      y_1 = p_1 - s_1 q_1 in Q^perp give two links P -> R -> Q on P + x_1
      and Q + y_1, where R = (P + x_1) cap (Q + y_1) = span(p_1, q_1).
    - Otherwise (positive index 2, a degenerate union, or s_1 near 1) three
      links P -> [c + i p_0] -> [c + i q_1] -> Q on P + c, span(c, p_0, q_1)
      and Q + c, for a c q-orthogonal to p_0 and q_1. The three planes are
      positive iff q(c) > b(c, p_1)^2 = b(c, y_1)^2 and
      q(c) > b(c, q_0)^2 = b(c, x_0)^2, so c is the top positive direction
      of q - b(., y_1)^2 - b(., x_0)^2 on {p_0, q_1}^perp. That form has one
      whenever s_1 > 0: a positive c in (P + Q)^perp when P + Q is
      nondegenerate of positive index 2; when x_0 or y_1 is null (s_k = 1,
      P + Q degenerate), a positive c with |b(c, x_0)|, |b(c, y_1)| small
      against q(c).

    A pair too close to degenerate for the float checks raises DomainError
    or NumericalError when it fails the positivity checks or leaves a
    junction point that verify_chain would reject.
    """
    L = z.lattice
    if L != target.lattice:
        raise DomainError("period points live on different lattices")
    if L.signature != (3, L.rank - 3) or L.rank - 3 == 0:
        if L.rank - 3 == 0:
            raise DomainError("signature too small: rank 3 leaves no pivot room")
        raise DomainError("chain connectivity needs signature (3, n)")
    return TwistorChain(tuple(_chain_links(z, target, tol)))


def _chain_links(z: PeriodPoint, target: PeriodPoint, tol: Tolerances) -> list[ChainLink]:
    """The links of chain_connect, one construction per case."""
    if same_period_point(z, target):
        return []
    L = z.lattice
    g = gram_float(L)
    fa, fb = z._frame, target._frame
    if all(_span_residual(fa, z._frame_g, v) < _SAME_PLANE for v in fb):
        # same underlying plane, different orientation or rotation: one conic
        ell = _perp_positive_direction(g, fa)
        return [ChainLink(_orient_three_plane(L, [z.re, z.im, ell], tol), z, target)]
    union = np.concatenate([fa, fb])
    svals = np.linalg.svd(union, compute_uv=False)
    if svals[3] < _UNION_RANK * svals[0]:
        # union spans a 3-space; positive union gives a single link
        try:
            plane = _orient_three_plane(L, list(_span_basis(union, 3)), tol)
            if conic_contains(plane, z, tol) and conic_contains(plane, target, tol):
                return [ChainLink(plane, z, target)]
        except DomainError:
            pass  # shared line but indefinite or degenerate union: the routes below
    left, s, right = np.linalg.svd(target._frame_g @ fa.T)
    (p0, p1), (q0, q1) = right @ fa, left.T @ fb
    x0, x1, y1 = q0 - s[0] * p0, q1 - s[1] * p1, p1 - s[1] * q1
    # near s_1 = 1 the junction span(p1, q1) is nearly degenerate, so there
    # the 3-link route, which needs only s_1 > 0, takes over
    if s[1] < 1 - _LINK_MARGIN:
        planes = [_orient_three_plane(L, [*fa, x1], tol), _orient_three_plane(L, [*fb, y1], tol)]
        mid = _junction(planes, *_orthonormal_pair(L, p1, x1, tol), tol)
        return [ChainLink(planes[0], z, mid), ChainLink(planes[1], mid, target)]
    c = _perp_positive_direction(g, np.array([p0, q1]), drop=[x0, y1])
    planes = [_orient_three_plane(L, vs, tol) for vs in ([*fa, c], [c, p0, q1], [*fb, c])]
    w1 = _junction(planes[:2], c, p0, tol)
    w2 = _junction(planes[1:], c, q1, tol)
    return [ChainLink(planes[0], z, w1), ChainLink(planes[1], w1, w2), ChainLink(planes[2], w2, target)]


def _junction(planes: list[PositiveThreePlane], a, b, tol: Tolerances) -> PeriodPoint:
    """The period point [a + i b] where two links of a chain meet.

    Checks what verify_chain will ask of it: it lies on both conics and
    same_period_point matches it with itself. Near a degenerate pair either
    can fail (a far-out frame, a plane known only to the rounding of a tiny
    vector); that raises NumericalError.
    """
    w = _period_point(planes[0].lattice, a, b, tol)
    if not (all(conic_contains(P, w, tol) for P in planes) and same_period_point(w, w)):
        raise NumericalError("junction point fails the chain checks (near-degenerate pair)")
    return w


def _span_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    """Euclidean-orthonormal basis of the row span, truncated to dim vectors."""
    _, _, vt = np.linalg.svd(rows)
    return vt[:dim]


# -- sampling ---------------------------------------------------------------------


def sample_period_point(L: QuadLattice, seed: int, tol: Tolerances = DEFAULT_TOL) -> PeriodPoint:
    """Deterministic random period point; byte-identical for a fixed seed.

    The first pair (a_+ + eps a_-, b_+ + eps b_-), eps = 0.6 halved on each
    rejection, that spans a positive 2-plane, with a_+, b_+ drawn in the
    positive and a_-, b_- in the negative eigenspace of the gram. Candidates
    that ``_surely_rejected`` rules out skip orthonormal_pair.
    """
    if L.signature[0] != 3:
        raise DomainError("sampling needs a lattice of signature (3, n)")
    rng = np.random.default_rng(integer(seed, "seed", 0))
    evals, _, pos, neg = _spectrum(L)
    a_pos = pos @ rng.standard_normal(pos.shape[1])
    b_pos = pos @ rng.standard_normal(pos.shape[1])
    a_neg = neg @ rng.standard_normal(neg.shape[1])
    b_neg = neg @ rng.standard_normal(neg.shape[1])
    vs = np.array([a_pos, b_pos, a_neg, b_neg])
    q, d = (vs @ gram_float(L) @ vs.T).tolist(), (vs @ vs.T).tolist()
    scale = _SCREEN_MARGIN * (float(max(evals[-1], -evals[0])) + tol.pos)
    eps = 0.6
    for _ in range(40):
        if _surely_rejected(q, d, eps, scale, tol.pos):
            eps *= 0.5
            continue
        a = a_pos + eps * a_neg
        b = b_pos + eps * b_neg
        try:
            a1, b1 = _orthonormal_pair(L, a, b, tol)
            return _period_point(L, a1, b1, tol)
        except DomainError:
            eps *= 0.5
    raise NumericalError("failed to sample a positive 2-plane")


def _surely_rejected(q: list, d: list, eps: float, scale: float, pos: float) -> bool:
    """True when orthonormal_pair is sure to reject (a_+ + eps a_-, b_+ + eps b_-).

    ``q`` and ``d`` are the q-gram and the dot gram of (a_+, b_+, a_-, b_-).
    orthonormal_pair's two tests, q(a) > pos |a|^2 and, for b_1 = b - c a
    with c = b(a, b) / q(a), q(b_1) = q(b) - c b(a, b) > pos |b_1|^2, are
    evaluated in closed form. A test counts as failed only when it misses by
    more than ``scale`` = ``_SCREEN_MARGIN`` (|g| + pos) times the squared
    length of the vectors it combines, far past the rounding of either
    evaluation.
    """

    def pair(m, i, j):  # m-pairing of x_i + eps x_{i+2} and x_j + eps x_{j+2}
        return m[i][j] + eps * (m[i][j + 2] + m[i + 2][j]) + eps * eps * m[i + 2][j + 2]

    qa, aa = pair(q, 0, 0), pair(d, 0, 0)
    if qa - pos * aa < -scale * aa:
        return True
    if not qa > 0:
        return False
    qab = pair(q, 0, 1)
    c = qab / qa
    bb = pair(d, 1, 1)
    b1b1 = bb - 2 * c * pair(d, 0, 1) + c * c * aa
    return pair(q, 1, 1) - c * qab - pos * b1b1 < -scale * (bb + c * c * aa)


_LINE_TRIES = 64  # candidate lines drawn by sample_irrational_line before it gives up


def sample_irrational_line(
    z: PeriodPoint,
    height: int = 100,
    relation_tol: float = 1e-9,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Positive line orthogonal to the period plane passing the irrationality test.

    Draws up to ``_LINE_TRIES`` seeded random mixtures of the top positive
    direction with the rest of the orthogonal complement until the spanned
    twistor 3-plane is flagged fully irrational at the given height bound
    and tolerance.
    """
    from .irrational import is_fully_irrational

    L = z.lattice
    if L.rank - 3 == 0:
        raise DomainError("signature too small: the complement has no room to sample")
    rng = np.random.default_rng(integer(seed, "seed", 0))
    basis, _, evecs = _complement(gram_float(L), z.plane_frame())
    for _ in range(_LINE_TRIES):
        mix = evecs[:, -1] + 0.4 * rng.standard_normal(basis.shape[0])
        ell = mix @ basis
        if qform(L, ell) <= tol.pos:
            continue
        ell = ell / np.sqrt(qform(L, ell))
        verdict = is_fully_irrational([ell, z.re, z.im], height=height, tol=relation_tol)
        if verdict.fully_irrational:
            return _readonly(ell)
    raise NumericalError("failed to sample a fully irrational positive line")
