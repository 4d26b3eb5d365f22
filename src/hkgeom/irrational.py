"""Rational closure and full-irrationality detection for real subspaces.

Exact mode computes the smallest Q-defined subspace containing a rational
span by kernel computation over Q. Detect mode searches for bounded-height
integer linear forms nearly vanishing on the span via a scaled LLL embedding;
a "no relation found" verdict is probabilistic by nature, so the height
bound and tolerance are explicit everywhere.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import exactlin as ex
from .errors import DomainError
from .lattice import QuadLattice


@dataclasses.dataclass(frozen=True)
class ClosureReport:
    """Result of a rational-closure computation."""

    ambient_dim: int
    span_dim: int
    closure_dim: int
    relations: tuple[tuple, ...]  # rational forms vanishing on the span
    mode: str
    height: int | None = None
    tol: float | None = None


def rational_closure_exact(vectors) -> ClosureReport:
    """Closure of a rational span: dimension and the exact vanishing forms.

    The closure of a rational span is the span itself; its dimension is the
    ambient dimension minus the number of independent rational forms
    vanishing on it, computed by an exact kernel computation.
    """
    if not vectors:
        raise DomainError("empty input")
    rows = [ex.frvec(v) for v in vectors]
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DomainError("vectors have mismatched lengths")
    # forms vanishing on every w_i: the kernel of the matrix with rows w_i
    relations = ex.nullspace(rows)
    span_dim = n - len(relations)
    return ClosureReport(
        ambient_dim=n,
        span_dim=span_dim,
        closure_dim=span_dim,
        relations=tuple(tuple(r) for r in relations),
        mode="exact",
    )


def _verified_relations(vectors: list[np.ndarray], candidates, height: int, tol: float):
    """Filter candidate integer forms: nonzero, height-bounded, vanishing within tol."""
    accepted = []
    for delta in candidates:
        if not any(delta):
            continue
        if max(abs(x) for x in delta) > height:
            continue
        d = np.array(delta, dtype=float)
        if all(abs(float(d @ w)) < tol for w in vectors):
            accepted.append(tuple(int(x) for x in delta))
    # deduplicate up to sign and keep an independent subset, deterministically
    seen = set()
    unique = []
    for delta in accepted:
        key = tuple(delta)
        neg = tuple(-x for x in delta)
        if key in seen or neg in seen:
            continue
        seen.add(key)
        unique.append(delta)
    independent: list[tuple] = []
    for delta in unique:
        trial = independent + [delta]
        if ex.rank(ex.frmat([list(t) for t in trial])) == len(trial):
            independent.append(delta)
    return independent


def rational_closure_detect(vectors, height: int = 100, tol: float = 1e-9) -> ClosureReport:
    """Best-effort rational closure of a real span by integer-relation search.

    Builds the lattice spanned by rows (e_j | N w_1[j] | ... | N w_k[j]) with
    N ~ 16/tol, LLL-reduces, and keeps reduced vectors whose leading block is
    a nonzero integer form of height <= ``height`` vanishing on every input
    vector within ``tol``. The reported closure dimension (ambient minus the
    number of independent relations found) is an upper bound that holds with
    high probability; missed relations would only lower it.
    """
    if not vectors:
        raise DomainError("empty input")
    ws = [np.asarray(v, dtype=float) for v in vectors]
    n = ws[0].shape[0]
    if any(w.shape != (n,) for w in ws):
        raise DomainError("vectors have mismatched lengths")
    if height < 1:
        raise DomainError("height bound must be >= 1")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    scale = max(1.0, max(float(np.max(np.abs(w))) for w in ws))
    big = int(round(16.0 / tol))
    rows = []
    for j in range(n):
        row = [int(i == j) for i in range(n)]
        row += [int(round(big * float(w[j]) / scale)) for w in ws]
        rows.append(row)
    reduced = ex.lll_reduce(rows)
    candidates = [r[:n] for r in reduced]
    relations = _verified_relations(ws, candidates, height, tol)
    span_dim = int(np.linalg.matrix_rank(np.vstack(ws)))
    return ClosureReport(
        ambient_dim=n,
        span_dim=span_dim,
        closure_dim=n - len(relations),
        relations=tuple(relations),
        mode="detect",
        height=height,
        tol=tol,
    )


def rational_closure(vectors, mode: str = "exact", height: int = 100, tol: float = 1e-9) -> ClosureReport:
    if mode == "exact":
        return rational_closure_exact(vectors)
    if mode == "detect":
        return rational_closure_detect(vectors, height=height, tol=tol)
    raise DomainError(f"unknown mode {mode!r}")


@dataclasses.dataclass(frozen=True)
class IrrationalityVerdict:
    """Outcome of the full-irrationality test.

    ``fully_irrational`` True is probabilistic unless ``deterministic`` is
    set (the span already has full dimension); False verdicts carry an exact
    rational witness functional vanishing on the span within tolerance.
    """

    fully_irrational: bool
    deterministic: bool
    witness: tuple | None
    height: int
    tol: float


def is_fully_irrational(vectors, height: int = 100, tol: float = 1e-9) -> IrrationalityVerdict:
    """Test whether the rational closure of the span is the whole space."""
    ws = [np.asarray(v, dtype=float) for v in vectors]
    if not ws:
        raise DomainError("empty input")
    n = ws[0].shape[0]
    if int(np.linalg.matrix_rank(np.vstack(ws))) == n:
        return IrrationalityVerdict(True, True, None, height, tol)
    report = rational_closure_detect(vectors, height=height, tol=tol)
    if report.relations:
        return IrrationalityVerdict(False, False, report.relations[0], height, tol)
    return IrrationalityVerdict(True, False, None, height, tol)


@dataclasses.dataclass(frozen=True)
class PicardVerdict:
    """Outcome of the lattice-vector search orthogonal to a period plane."""

    trivial_up_to_height: bool
    witness: tuple[int, ...] | None
    height: int
    tol: float
    method: str


def picard_trivial(z, height: int = 10, tol: float = 1e-9, method: str = "auto") -> PicardVerdict:
    """Search for nonzero lattice vectors orthogonal to the period plane of z.

    Looks for integer v with sup-norm <= height and |b(v, a)|, |b(v, b)| < tol.
    A witness certifies a nontrivial orthogonal lattice vector (the period
    point then fails the trivial-Picard hypothesis); absence of a witness is
    a verdict "trivial up to the height bound". Methods: "exhaustive" scans
    the full box (small rank only), "lll" searches a reduced basis, "auto"
    picks exhaustive when the box is small.
    """
    from .period import gram_float

    L: QuadLattice = z.lattice
    n = L.rank
    if height < 1:
        return PicardVerdict(True, None, height, tol, "vacuous")
    g = gram_float(L)
    pa = g @ z.re
    pb = g @ z.im

    def pairs_ok(v: np.ndarray) -> bool:
        return abs(float(v @ pa)) < tol and abs(float(v @ pb)) < tol

    box_size = (2 * height + 1) ** n
    if method == "exhaustive" or (method == "auto" and box_size <= 2_000_000):
        import itertools

        for tup in itertools.product(range(-height, height + 1), repeat=n):
            if not any(tup):
                continue
            v = np.array(tup, dtype=float)
            if pairs_ok(v):
                return PicardVerdict(False, tuple(tup), height, tol, "exhaustive")
        return PicardVerdict(True, None, height, tol, "exhaustive")
    big = int(round(16.0 / tol))
    scale = max(1.0, float(np.max(np.abs(pa))), float(np.max(np.abs(pb))))
    rows = []
    for j in range(n):
        row = [int(i == j) for i in range(n)]
        row.append(int(round(big * float(pa[j]) / scale)))
        row.append(int(round(big * float(pb[j]) / scale)))
        rows.append(row)
    reduced = ex.lll_reduce(rows)
    for r in reduced:
        v = r[:n]
        if not any(v):
            continue
        if max(abs(x) for x in v) > height:
            continue
        if pairs_ok(np.array(v, dtype=float)):
            return PicardVerdict(False, tuple(int(x) for x in v), height, tol, "lll")
    return PicardVerdict(True, None, height, tol, "lll")
