"""Rational closure and full-irrationality detection for real subspaces.

Exact mode computes the smallest Q-defined subspace containing a rational
span by kernel computation over Q. Detect mode searches for bounded-height
integer linear forms nearly vanishing on the span via a scaled LLL embedding;
a "no relation found" verdict is probabilistic by nature, so the height
bound and tolerance are explicit everywhere.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import exactlin as ex
from .errors import DomainError
from .lattice import QuadLattice
from .period import float_rows, gram_float


@dataclasses.dataclass(frozen=True)
class ClosureReport:
    """Result of a rational-closure computation."""

    ambient_dim: int
    span_dim: int
    closure_dim: int
    relations: tuple[tuple, ...]  # rational forms vanishing on the span
    mode: str


def rational_closure_exact(vectors) -> ClosureReport:
    """Closure of a rational span: dimension and the exact vanishing forms.

    The closure of a rational span is the span itself; its dimension is the
    ambient dimension minus the number of independent rational forms
    vanishing on it, computed by an exact kernel computation.
    """
    rows = ex.exact_rows(vectors, "vectors", None)
    n = len(rows[0])
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


def _lll_relations(vectors: list[np.ndarray], height: int, tol: float) -> list[tuple[int, ...]]:
    """Integer forms of height <= ``height`` vanishing on every vector within ``tol``.

    LLL-reduces the lattice spanned by the rows (e_j | N w_1[j] | ... |
    N w_k[j]), with N ~ 16/tol over the largest entry (at least 1), and
    returns the leading blocks of the reduced rows that are nonzero, of
    sup-norm <= ``height`` and vanishing within ``tol``, in reduced order.
    Dividing by the scale before multiplying by N keeps each entry within N.
    """
    n = len(vectors[0])
    scale = max(1.0, max(float(np.max(np.abs(w))) for w in vectors))
    big = int(round(16.0 / tol))
    rows = [
        [int(i == j) for i in range(n)] + [int(round(float(w[j]) / scale * big)) for w in vectors]
        for j in range(n)
    ]
    found = []
    for row in ex.lll_reduce(rows):
        delta = row[:n]
        if not any(delta) or max(abs(x) for x in delta) > height:
            continue
        d = np.array(delta, dtype=float)
        if all(abs(float(d @ w)) < tol for w in vectors):
            found.append(tuple(int(x) for x in delta))
    return found


def _independent(relations: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The greedy independent subset, in order: the pivot columns of the matrix with the relations as columns.

    Repeats, negatives and zero forms are never pivots, so they drop out.
    """
    return [relations[c] for c in ex.pivot_columns(ex.transpose(relations))]


def _check_budget(height: int, tol: float, least: int) -> None:
    """Refuse a relation-search budget before any work: height >= least, tol finite and positive."""
    if ex.integer(height, "height bound", None) < least:
        raise DomainError(f"height bound must be >= {least}")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tolerance must be positive and finite")
    if not math.isfinite(16.0 / tol):  # the LLL scale of _lll_relations
        raise DomainError(f"tolerance {tol!r} is too small to scale the relation lattice")


def rational_closure_detect(vectors, height: int = 100, tol: float = 1e-9) -> ClosureReport:
    """Best-effort rational closure of a real span by integer-relation search.

    Keeps the independent forms among those ``_lll_relations`` finds: the
    LLL-reduced vectors whose leading block is a nonzero integer form of
    height <= ``height`` vanishing on every input vector within ``tol``. The
    reported closure dimension (ambient minus the number of independent
    relations found) is an upper bound that holds with high probability;
    missed relations would only lower it.
    """
    ws = float_rows(vectors, "vectors", None)
    n = ws[0].shape[0]
    _check_budget(height, tol, least=1)
    relations = _independent(_lll_relations(ws, height, tol))
    span_dim = int(np.linalg.matrix_rank(np.vstack(ws)))
    return ClosureReport(
        ambient_dim=n,
        span_dim=span_dim,
        closure_dim=n - len(relations),
        relations=tuple(relations),
        mode="detect",
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


def is_fully_irrational(vectors, height: int = 100, tol: float = 1e-9) -> IrrationalityVerdict:
    """Test whether the rational closure of the span is the whole space."""
    _check_budget(height, tol, least=1)
    ws = float_rows(vectors, "vectors", None)
    if int(np.linalg.matrix_rank(np.vstack(ws))) == ws[0].shape[0]:
        return IrrationalityVerdict(True, True, None)
    # the first relation found is the first independent one, detect mode's first relation
    found = _lll_relations(ws, height, tol)
    return IrrationalityVerdict(not found, False, found[0] if found else None)


@dataclasses.dataclass(frozen=True)
class PicardVerdict:
    """Outcome of the lattice-vector search orthogonal to a period plane.

    ``method`` names the search that ran: "exhaustive" (box scan), "lll"
    or "vacuous" (height 0; a negative height is a domain error).
    """

    trivial_up_to_height: bool
    witness: tuple[int, ...] | None
    method: str


# Box size (2 height + 1)^rank up to which picard_trivial scans the whole box,
# and the number of box points each step of the scan compares.
_BOX_SCAN_POINTS = 2_000_000
_BOX_BLOCK = 65_536


def _partial_sums(p: np.ndarray, height: int) -> np.ndarray:
    """sum_i x_i p_i for every integer tuple x in [-height, height]^len(p), in ``itertools.product`` order."""
    xs = np.arange(-height, height + 1, dtype=float)
    sums = np.zeros(1)
    for c in p:
        sums = (sums[:, None] + c * xs).ravel()
    return sums


def picard_trivial(z, height: int = 10, tol: float = 1e-9) -> PicardVerdict:
    """Search for nonzero lattice vectors orthogonal to the period plane of z.

    Looks for integer v with sup-norm <= height and |b(v, a)|, |b(v, b)| < tol.
    A witness certifies a nontrivial orthogonal lattice vector (the period
    point then fails the trivial-Picard hypothesis); absence of a witness is
    a verdict "trivial up to the height bound". The whole box is scanned when
    it holds at most ``_BOX_SCAN_POINTS`` vectors; otherwise the first form
    ``_lll_relations`` finds for (G a, G b) is the witness.

    The scan keeps two partial-sum tables per component p of (G a, G b): the
    trailing t coordinates, for the largest t with (2 height + 1)^t <=
    ``_BOX_BLOCK``, summed over their whole box once, and the leading
    coordinates as a prefix table. Each step adds a slice of prefixes to the
    whole suffix table, so the box is read in ``itertools.product`` order and
    the first hit is the first witness in that order; the zero vector, at flat
    index points // 2, is skipped.
    """
    _check_budget(height, tol, least=0)
    L: QuadLattice = z.lattice
    n = L.rank
    if height < 1:
        return PicardVerdict(True, None, "vacuous")
    g = gram_float(L)
    pa = g @ z.re
    pb = g @ z.im
    side = 2 * height + 1
    points = side**n
    if points > _BOX_SCAN_POINTS:
        found = _lll_relations([pa, pb], height, tol)
        return PicardVerdict(not found, found[0] if found else None, "lll")
    t = 0
    while t < n and side ** (t + 1) <= _BOX_BLOCK:
        t += 1
    prefix = [_partial_sums(p[: n - t], height) for p in (pa, pb)]
    suffix = [_partial_sums(p[n - t :], height) for p in (pa, pb)]
    width = suffix[0].size
    step = max(1, _BOX_BLOCK // width)
    for start in range(0, prefix[0].size, step):
        near = [np.abs(pre[start : start + step, None] + suf) < tol for pre, suf in zip(prefix, suffix)]
        hits = np.flatnonzero(near[0] & near[1]) + start * width
        hits = hits[hits != points // 2]
        if hits.size:
            witness = np.unravel_index(int(hits[0]), (side,) * n)
            return PicardVerdict(False, tuple(int(x) - height for x in witness), "exhaustive")
    return PicardVerdict(True, None, "exhaustive")
