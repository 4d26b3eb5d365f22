"""Cohomology rings as structure constants and the Lie algebras they carry.

A ring is a graded basis with integer cup-product structure constants, an
integration functional on the top degree, and a designated degree-2 block
identified with a quadratic lattice. On such data the module builds the
Lefschetz operators e_eta (cup product), the grading operator h (eigenvalue
2m - k on degree k), the dual operators f_eta completing sl2 triples, the
bracket closure of families of such operators, the Fujiki-constant fit, the
rotation generator realizing the weight decomposition of a period point, and
the Hodge decomposition with its signature certificates.

Sign conventions: [h, e] = -2e, [h, f] = +2f, [e, f] = -h.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactlin as ex
from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError, HardLefschetzError, NumericalError
from .lattice import QuadLattice, k3_lattice
from .period import (
    _norm,
    PeriodPoint,
    conic_contains,
    gram_float,
    PositiveThreePlane,
    qform,
)


@dataclasses.dataclass(frozen=True)
class CohomologyRing:
    """Graded ring with integer structure constants and a top-degree integral.

    degrees[i] is the cohomological degree of basis element i (0..4m).
    products maps (i, j) to a dict {k: c} meaning e_i e_j = sum c e_k.
    integration[i] is the integral of basis element i (nonzero only in the
    top degree). lattice_indices designate the degree-2 block whose cup
    products realize the bilinear form of ``lattice``.
    """

    m: int
    degrees: tuple[int, ...]
    products: tuple  # ((i, j, k, c), ...) sparse integer quadruples
    integration: tuple[int, ...]
    lattice_indices: tuple[int, ...]
    lattice: QuadLattice

    def __post_init__(self):
        """Shape checks, linear in the input; ``validate`` checks the algebra."""
        n = len(self.degrees)
        if any(d < 0 or d > 4 * self.m for d in self.degrees):
            raise DomainError("degrees out of range")
        if len(self.integration) != n:
            raise DomainError(f"integration needs one value per basis element ({n})")
        if any(len(t) != 4 or not all(0 <= x < n for x in t[:3]) for t in self.products):
            raise DomainError(f"structure constants must be [i, j, k, c] with i, j, k < {n}")
        block = self.lattice_indices
        if len(set(block)) != len(block) or len(block) != self.lattice.rank:
            raise DomainError("lattice block needs one distinct index per lattice basis vector")
        if any(not 0 <= i < n or self.degrees[i] != 2 for i in block):
            raise DomainError("lattice block must sit in degree 2")

    @cached_property
    def dim(self) -> int:
        return len(self.degrees)

    @cached_property
    def _table(self) -> dict:
        tab: dict = {}
        for i, j, k, c in self.products:
            tab.setdefault((i, j), {})[k] = tab.setdefault((i, j), {}).get(k, 0) + c
        return tab

    def validate(self) -> None:
        """Exact checks of the stored constants: grading, graded commutativity,
        associativity (naming the least failing triple) and Poincare
        nondegeneracy. Exhaustive, yet each visits only what can be nonzero:
        stored pairs, their products with one basis element, and the pairing
        one block H^k x H^(4m-k), k <= 2m, at a time (the others are their
        transposes up to sign).
        """
        top, deg, w = 4 * self.m, self.degrees, self.integration
        if any(w[i] and deg[i] != top for i in range(self.dim)):
            raise DomainError("integration supported off the top degree")
        tab = {key: {k: c for k, c in terms.items() if c} for key, terms in self._table.items()}
        if any(deg[k] != deg[i] + deg[j] for (i, j), terms in tab.items() for k in terms):
            raise DomainError("structure constants break the grading")
        for (i, j), terms in tab.items():
            sign = (-1) ** (deg[i] * deg[j])
            if tab.get((j, i), {}) != {k: sign * c for k, c in terms.items()}:
                raise DomainError("graded commutativity fails")
        rows: dict = {}  # rows[a][b] = e_a e_b
        cols: dict = {}  # cols[b][a] = e_a e_b
        for (i, j), terms in tab.items():
            rows.setdefault(i, {})[j] = terms
            cols.setdefault(j, {})[i] = terms

        def spread(x: dict, index: dict) -> dict:
            """{a: sum_l x_l index[l][a]}, zero results dropped."""
            out: dict = {}
            for l, c in x.items():
                for a, terms in index.get(l, {}).items():
                    acc = out.setdefault(a, {})
                    for r, v in terms.items():
                        acc[r] = acc.get(r, 0) + c * v
            return {a: nz for a, acc in out.items() if (nz := {r: v for r, v in acc.items() if v})}

        # (e_i e_j) e_k and e_i (e_j e_k) both vanish unless (i, j) or (j, k) is stored
        left = {(j, k): spread(jk, cols) for (j, k), jk in tab.items()}  # i -> e_i (e_j e_k)
        bad = [(i, j, k) for (j, k), by_i in left.items() for i in by_i if (i, j) not in tab]
        for (i, j), ij in tab.items():
            lhs = spread(ij, rows)  # k -> (e_i e_j) e_k
            rhs = {k: left[j, k][i] for k in rows.get(j, {}) if i in left[j, k]}
            bad += [(i, j, k) for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)]
        if bad:
            raise DomainError("associativity fails on ({},{},{})".format(*min(bad)))
        blocks = self._degree_blocks
        for low, high in zip(blocks[: top // 2 + 1], blocks[::-1]):
            pairing = [[sum(c * w[k] for k, c in tab.get((i, j), {}).items()) for j in high] for i in low]
            if len(low) != len(high) or ex.det(pairing) == 0:
                raise DomainError("Poincare pairing is degenerate")

    @cached_property
    def _lattice_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows (a, k, j) and float values c of the constants e_idx e_j = c e_k, idx the a-th lattice class."""
        terms = [
            (a, k, j, c)
            for a, idx in enumerate(self.lattice_indices)
            for j in range(self.dim)
            for k, c in self._table.get((idx, j), {}).items()
        ]
        index = np.array([t[:3] for t in terms], dtype=int).reshape(-1, 3).T
        return index, np.array([t[3] for t in terms], dtype=float)

    @cached_property
    def _degree_array(self) -> np.ndarray:
        return np.array(self.degrees)

    @cached_property
    def _degree_blocks(self) -> tuple[np.ndarray, ...]:
        """Basis indices of each degree 0..4m, ascending."""
        return tuple(np.flatnonzero(self._degree_array == d) for d in range(4 * self.m + 1))

    @cached_property
    def _h_diagonal(self) -> np.ndarray:
        """Eigenvalue 2m - k of the grading operator h on each basis element of degree k."""
        return np.array([2 * self.m - d for d in self.degrees], dtype=float)

    @cached_property
    def _support(self) -> dict[int, np.ndarray]:
        """Per degree shift d, the flat indices i * dim + j with deg i = deg j + d, ascending.

        These are the only entries a homogeneous operator of shift d can have
        nonzero; a shift missing here has none.
        """
        levels = set(self.degrees)
        deg = self._degree_array
        shift = (deg[:, None] - deg[None, :]).ravel()
        return {d: np.flatnonzero(shift == d) for d in sorted({a - b for a in levels for b in levels})}

    @cached_property
    def _off_support(self) -> dict[int, np.ndarray]:
        """Per degree shift d in ``_support``, the flat indices outside ``_support[d]``."""
        full = np.arange(self.dim**2)
        return {d: np.setdiff1d(full, cols, assume_unique=True) for d, cols in self._support.items()}

    @cached_property
    def _llv_algebras(self) -> dict[Tolerances, tuple]:
        """Per tolerances, the full LLV closure without its ring, filled by ``full_llv_closure``."""
        return {}

    def embed_lattice_vector(self, eta) -> np.ndarray:
        """Lift a lattice vector to ring coordinates on the degree-2 block."""
        out = np.zeros(self.dim)
        for a, idx in enumerate(self.lattice_indices):
            out[idx] = float(eta[a])
        return out


def k3_ring() -> CohomologyRing:
    """The rank-24 ring: unit, 22 degree-2 classes with the K3 form, point class."""
    L = k3_lattice()
    n = L.rank
    dim = n + 2
    degrees = [0] + [2] * n + [4]
    products = []
    for i in range(dim):
        products.append((0, i, i, 1))
        if i != 0:
            products.append((i, 0, i, 1))
    for a in range(n):
        for b in range(n):
            g = L.gram[a][b]
            if g:
                products.append((1 + a, 1 + b, dim - 1, g))
    integration = [0] * dim
    integration[dim - 1] = 1
    return CohomologyRing(
        m=1,
        degrees=tuple(degrees),
        products=tuple(products),
        integration=tuple(integration),
        lattice_indices=tuple(range(1, n + 1)),
        lattice=L,
    )


# -- graded operators -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GradedOperator:
    """Matrix on the total basis, homogeneous of a fixed degree shift."""

    ring: CohomologyRing
    matrix: np.ndarray
    degree: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.ring.dim
        if m.shape != (n, n):
            raise DomainError(f"operator matrix must be {n}x{n}")
        off = self.ring._off_support.get(self.degree)
        if np.count_nonzero(m if off is None else m.ravel()[off]):
            raise DomainError("matrix entries off the degree-shift blocks")
        object.__setattr__(self, "matrix", m)


def _assembled(ring: CohomologyRing, matrix: np.ndarray, degree: int) -> GradedOperator:
    """A GradedOperator of a matrix scattered onto ``ring._support[degree]``, homogeneous by construction: unchecked."""
    op = object.__new__(GradedOperator)
    op.__dict__.update(ring=ring, matrix=matrix, degree=degree)
    return op


# Bytes of dense operators a ring may need: a closure holds up to _CLOSURE_CAP
# dim x dim float matrices, 8 dim^2 bytes each. 2^30 admits dim <= 472, so
# K3^[2] (324) and OG6 (210) pass and a larger ring is refused before it allocates.
_DENSE_BYTES_BUDGET = 1 << 30


def _check_dense_budget(ring: CohomologyRing) -> None:
    need = 8 * ring.dim**2 * _CLOSURE_CAP
    if need > _DENSE_BYTES_BUDGET:
        raise DomainError(
            f"ring of dim {ring.dim} needs up to {need} bytes of dense operators"
            f" ({_CLOSURE_CAP} of {ring.dim}^2 floats), above the budget of {_DENSE_BYTES_BUDGET} bytes"
        )


def lefschetz_e(ring: CohomologyRing, eta) -> GradedOperator:
    """Cup product with a degree-2 class eta (lattice coordinates)."""
    _check_dense_budget(ring)
    if len(eta) != ring.lattice.rank:
        raise DomainError("eta must be a degree-2 class in lattice coordinates")
    coeffs = np.array([float(x) for x in eta])
    if not np.isfinite(coeffs).all():
        raise DomainError("eta must have finite coordinates")
    (a, k, j), c = ring._lattice_terms
    mat = np.zeros((ring.dim, ring.dim))
    np.add.at(mat, (k, j), coeffs[a] * c)
    return GradedOperator(ring, mat, degree=+2)


def grading_h(ring: CohomologyRing) -> GradedOperator:
    """Diagonal operator with eigenvalue 2m - k on the degree-k block."""
    _check_dense_budget(ring)
    return GradedOperator(ring, np.diag(ring._h_diagonal), degree=0)


_F_SOLVE_TOL = 1e-9  # sl2-completion residual, relative to |h|, past which hard Lefschetz fails


def lefschetz_f(ring: CohomologyRing, eta) -> GradedOperator:
    """The degree -2 operator completing (e_eta, h, f_eta) to an sl2 triple.

    Built one degree at a time from the Lefschetz decomposition, going up in
    degree k. For k <= 2m, H^k = e(H^{k-2}) + P^k, where the primitive part
    P^k is the kernel of e^{2m-k+1}: H^k -> H^{4m-k+2} and f vanishes on it;
    above the middle degree e(H^{k-2}) is all of H^k. On the image of e,
    [e, f] = -h applied to u in H^{k-2} reads f(e u) = e f(u) + h u, and
    f(u) lies in degree k - 4, already solved. So the block f_k: H^k ->
    H^{k-2} solves f_k e_{k-2} = R with R = e f_{k-2} + h on H^{k-2}, and
    f_k P^k = 0. By dimension count P^k is spanned by the last
    |H^k| - |H^{k-2}| right singular vectors of e^{2m-k+1}; with V the
    others, f_k = X V and X (V e_{k-2}) = R.

    Under hard Lefschetz the solution is unique: End(H) is an sl2-module
    under ad, the degree -2 operators have ad_h-weight +2 (so [h, f] = 2f
    holds for every block matrix), and ad_e lowers the weight by 2, which
    is injective on positive weights, so two solutions of [e, f] = -h agree.
    The assembled f is checked against [e, f] = -h in full: a residual past
    ``_F_SOLVE_TOL`` relative to |h| is exactly the failure of hard
    Lefschetz for eta and raises HardLefschetzError.
    """
    return sl2_triple(ring, eta)[2]


def sl2_triple(ring: CohomologyRing, eta) -> tuple[GradedOperator, GradedOperator, GradedOperator]:
    """(e_eta, h, f_eta), each built once; f_eta is lefschetz_f's completion of this e."""
    e = lefschetz_e(ring, eta)
    return e, grading_h(ring), GradedOperator(ring, _lefschetz_f(ring, e.matrix[None])[0], degree=-2)


def _lefschetz_f(ring: CohomologyRing, e_ops: np.ndarray) -> np.ndarray:
    """``lefschetz_f`` for a stack of e operators at once, (count, dim, dim) in and out,
    on the degree blocks e_k = e[H^{k+2}, H^k] (1 x 22 on K3) and f_k = f[H^{k-2}, H^k]."""
    blocks = ring._degree_blocks
    top = 4 * ring.m
    sizes = [len(b) for b in blocks]
    if sizes != sizes[::-1] or any(sizes[k] < sizes[k - 2] for k in range(2, 2 * ring.m + 1)):
        raise HardLefschetzError(f"degree blocks of sizes {sizes} admit no sl2 triple")
    steps = [k for k in range(2, top + 1) if sizes[k - 2] and sizes[k]]
    if not steps:
        raise HardLefschetzError("ring has no degree -2 block")

    def e_block(k: int) -> np.ndarray:
        return e_ops[:, blocks[k + 2][:, None], blocks[k]]

    h = ring._h_diagonal
    f_ops = np.zeros_like(e_ops)
    f_blocks: dict[int, np.ndarray] = {}
    for k in steps:
        lo, hi = blocks[k - 2], blocks[k]
        r = np.diag(h[lo]) + (e_block(k - 4) @ f_blocks[k - 2] if k - 2 in f_blocks else 0)
        lhs = e_block(k - 2)
        if k <= 2 * ring.m:
            power = e_block(k)
            for j in range(k + 2, top - k + 2, 2):
                power = e_block(j) @ power
            v = np.linalg.svd(power, full_matrices=False)[2]
            f_blocks[k] = r @ np.linalg.pinv(v @ lhs) @ v
        else:
            f_blocks[k] = r @ np.linalg.pinv(lhs)
        f_ops[:, lo[:, None], hi] = f_blocks[k]
    h_op = np.diag(h)
    residual = np.linalg.norm(e_ops @ f_ops - f_ops @ e_ops + h_op, axis=(1, 2)).max()  # worst member
    if not residual <= _F_SOLVE_TOL * max(np.linalg.norm(h_op), 1):
        raise HardLefschetzError(f"hard Lefschetz fails for this class (residual {residual:.3e})")
    return f_ops


def sl2_residuals(ring: CohomologyRing, eta) -> dict[str, float]:
    """Operator-norm residuals of the three bracket relations for eta."""
    return bracket_residuals(*sl2_triple(ring, eta))


def bracket_residuals(e: GradedOperator, h: GradedOperator, f: GradedOperator) -> dict[str, float]:
    """Operator-norm residuals of [h, e] = -2e, [h, f] = 2f and [e, f] = -h for a built triple."""
    e_op, h_op, f_op = e.matrix, h.matrix, f.matrix

    def br(x, y):
        return x @ y - y @ x

    return {
        "he_plus_2e": float(np.linalg.norm(br(h_op, e_op) + 2 * e_op, ord=2)),
        "hf_minus_2f": float(np.linalg.norm(br(h_op, f_op) - 2 * f_op, ord=2)),
        "ef_plus_h": float(np.linalg.norm(br(e_op, f_op) + h_op, ord=2)),
    }


# -- bracket closure ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LieClosure:
    """Orthonormalized basis of the Lie algebra generated by the input operators.

    The work counters are deterministic for a fixed input: brackets formed by
    the worklist, those that passed the screen into the rank decision, and
    those accepted into the basis.
    """

    ring: CohomologyRing
    elements: tuple[GradedOperator, ...]
    dimension: int
    by_degree: dict[int, int]
    residual: float
    brackets_formed: int
    brackets_tried: int
    brackets_accepted: int

    def degree_zero_basis(self) -> list[np.ndarray]:
        return [op.matrix for op in self.elements if op.degree == 0]


# Closure dimension past which a worklist is taken to run away (a fault bound).
_CLOSURE_CAP = 600
# Bracket pairs drawn, with a fixed seed, for the independent residual sweep.
_RESIDUAL_SAMPLES = 400
_RESIDUAL_SEED = 0
# Pairs bracketed per batched product in the residual sweep; bounds its scratch memory.
_SWEEP_CHUNK = 32


def lie_closure(generators, tol: Tolerances = DEFAULT_TOL) -> LieClosure:
    """Close a family of graded operators under the bracket, numerically.

    Works in support coordinates: an operator of degree shift d is the row of
    its entries at ``ring._support[d]``, the flat indices (i, j) with
    deg i = deg j + d and the only ones it can have nonzero (on K3, 44 of 576
    for d = +-2 and 486 for d = 0). Per degree, the basis is an orthonormal
    stack of such rows. Each accepted element is scattered to a dense matrix
    once, as it is accepted, and that matrix serves its pops, the generator
    stack, ``LieClosure.elements`` and the residual sweep; each bracket is
    gathered to its target degree's support.

    One rule decides zero and rank together, at tau = ``tol.lie``: every
    operand has unit norm (generators are normalized as they are taken in,
    and a zero generator is dropped), and a bracket joins its degree's basis
    when its residual after projection onto that basis exceeds tau. A
    bracket is never divided by its own norm, so one that nearly cancels
    stays at the size of its operands' noise.

    The worklist brackets each element only against the generators: the
    algebra generated by S is spanned by the right-normed brackets
    [s1, [s2, ..., sk]] (de Graaf, *Lie Algebras: Theory and Algorithms*,
    2000, ch. 1), so a span that contains S and is closed under ad(s) for
    every s in S is the whole algebra. Popped generator p skips the
    generators j <= p: [g_p, g_j] is bitwise -[g_j, g_p], formed and decided
    when g_j was popped, and [g_p, g_p] = 0. Brackets are processed in
    deterministic FIFO order, so the result is stable for a fixed input
    order. Raises when the dimension exceeds ``_CLOSURE_CAP`` (runaway
    non-closure).

    The brackets of one popped element are screened together before the
    one-at-a-time rank decision: per target degree, one product projects
    them all, once, against the basis as it stands, and a bracket is dropped
    when its projected residual is at most tau/2. The basis only grows, so
    the exact residual against the larger basis the rank decision would
    later use is never larger than the screened one. Both computed
    residuals, one pass here and two there, are within rounding of the exact
    ones (a bracket of unit-norm operands has norm at most 2, so about
    1e-15 against a basis orthonormal to that order), far below tau/2.
    Every dropped bracket would therefore have been rejected, and the
    accepted basis is the one the unscreened loop builds, bit for bit.
    """
    if not generators:
        raise DomainError("no generators")
    ring = generators[0].ring
    if any(g.ring is not ring and g.ring != ring for g in generators):
        raise DomainError("generators act on different rings")
    tau = tol.lie
    n = ring.dim
    support = ring._support
    # the first counts[d] rows of stacks[d] are the degree-d orthonormal basis;
    # the buffer doubles when full
    stacks: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    order: list[int] = []  # the degree of each element, as accepted
    mats: list[np.ndarray] = []  # the dense matrix of each element, scattered once as it is accepted

    def try_add(r: np.ndarray, degree: int) -> bool:
        k = counts.get(degree, 0)
        if k:
            q = stacks[degree][:k]
            r = r - q.T @ (q @ r)
            r -= q.T @ (q @ r)
        rnorm = _norm(r)
        if rnorm <= tau:
            return False
        if not k:
            stacks[degree] = np.empty((8, r.size))
        elif k == len(stacks[degree]):
            stacks[degree] = np.vstack([stacks[degree], np.empty_like(stacks[degree])])
        stacks[degree][k] = r / rnorm
        counts[degree] = k + 1
        order.append(degree)
        mat = np.zeros(n * n)
        mat[support[degree]] = stacks[degree][k]
        mats.append(mat.reshape(n, n))
        if len(order) > _CLOSURE_CAP:
            raise NumericalError(f"closure dimension exceeded the cap {_CLOSURE_CAP}")
        return True

    def screen(rows: np.ndarray, degree: int) -> np.ndarray:
        """Mask of the bracket rows that try_add might accept."""
        k = counts.get(degree, 0)
        if k:
            q = stacks[degree][:k]
            rows = rows - (rows @ q.T) @ q
        return np.linalg.norm(rows, axis=1) > tau / 2

    for g in generators:
        if g.degree in support:
            row = np.asarray(g.matrix, dtype=float).ravel()[support[g.degree]]
            norm = _norm(row)
            if norm:
                try_add(row / norm, g.degree)
    gen_count = len(order)
    gen_mats = np.array(mats)
    gen_degrees = np.array(order, dtype=int)
    by_gen_degree = {d: np.flatnonzero(gen_degrees == d) for d in sorted(set(gen_degrees.tolist()))}
    formed = tried = 0
    queue = deque(range(gen_count))
    while queue:
        p = queue.popleft()
        deg_x, x = order[p], mats[p]
        first = p + 1 if p < gen_count else 0
        gens = gen_mats[first:]
        brackets = (x[None, :, :] @ gens - gens @ x[None, :, :]).reshape(len(gens), n * n)
        formed += len(gens)
        live = []
        for d, idx in by_gen_degree.items():
            target = deg_x + d
            idx = idx[idx >= first]
            if target not in support or not len(idx):
                continue  # no generator left, or a shift with no entries, where every bracket is 0
            rows = brackets[(idx - first)[:, None], support[target]]
            keep = screen(rows, target)
            live += [(j, target, r) for j, r in zip(idx[keep].tolist(), rows[keep])]
        live.sort(key=lambda t: t[0])
        tried += len(live)
        for _, target, r in live:
            if try_add(r, target):
                queue.append(len(order) - 1)
    return LieClosure(
        ring=ring,
        elements=tuple(_assembled(ring, m, d) for d, m in zip(order, mats)),
        dimension=len(order),
        by_degree=dict(sorted(counts.items())),
        residual=_residual_sweep(list(zip(order, mats)), {d: stacks[d][:k] for d, k in counts.items()}, support),
        brackets_formed=formed,
        brackets_tried=tried,
        brackets_accepted=len(order) - gen_count,
    )


def _residual_sweep(elements: list[tuple[int, np.ndarray]], blocks: dict, support: dict) -> float:
    """Largest projected residual of the brackets of sampled element pairs.

    All pairs when there are at most ``_RESIDUAL_SAMPLES`` of them, otherwise
    that many pairs drawn with ``_RESIDUAL_SEED``. Elements are dense unit-norm
    matrices; ``blocks[d]`` holds the orthonormal basis rows of degree d on
    the columns ``support[d]``. Pairs are taken one target degree d at a
    time, ``_SWEEP_CHUNK`` per batched product, and their brackets gathered
    to the columns ``support[d]``. As in the closure's rule, a bracket is
    projected as it is, never divided by its own norm.
    """
    count = len(elements)
    if count * (count - 1) // 2 <= _RESIDUAL_SAMPLES:
        first, second = np.tril_indices(count, -1)
    else:
        rng = np.random.default_rng(_RESIDUAL_SEED)
        first = rng.integers(0, count, _RESIDUAL_SAMPLES)
        second = rng.integers(0, count, _RESIDUAL_SAMPLES)
    degrees = np.array([d for d, _ in elements], dtype=int)
    target = degrees[first] + degrees[second]
    worst = 0.0
    for d in sorted(set(target.tolist()) & set(support)):
        pairs = np.flatnonzero(target == d)
        for s in range(0, len(pairs), _SWEEP_CHUNK):
            chunk = pairs[s : s + _SWEEP_CHUNK]
            x = np.array([elements[a][1] for a in first[chunk]])
            y = np.array([elements[b][1] for b in second[chunk]])
            v = (x @ y - y @ x).reshape(len(chunk), -1)[:, support[d]]
            q = blocks.get(d)
            if q is not None:
                v = v - (v @ q.T) @ q
            worst = max(worst, float(np.linalg.norm(v, axis=1).max()))
    return worst


def lie_closure_exact(ring: CohomologyRing, generators: list[tuple[int, list[list]]]):
    """Exact-rational bracket closure: the oracle for the float path.

    Generators are (degree, matrix) pairs with Fraction/int entries. Returns
    (dimension, by_degree) computed with exact rank decisions. It brackets
    every pair of elements, so it does not rely on the right-normed argument
    that the generator-only float worklist uses.
    """
    blocks: dict[int, list[list[Fraction]]] = {}
    pivots: dict[int, list[int]] = {}
    elements: list[tuple[int, ex.Mat]] = []

    def try_add(mat: ex.Mat, degree: int) -> bool:
        flat = [x for row in mat for x in row]
        if all(x == 0 for x in flat):
            return False
        basis = blocks.setdefault(degree, [])
        piv = pivots.setdefault(degree, [])
        v = list(flat)
        for row, p in zip(basis, piv):
            if v[p]:
                f = v[p] / row[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is None:
            return False
        basis.append(v)
        piv.append(lead)
        elements.append((degree, mat))
        if len(elements) > _CLOSURE_CAP:
            raise NumericalError(f"closure dimension exceeded the cap {_CLOSURE_CAP}")
        return True

    for degree, mat in generators:
        try_add(ex.frmat(mat), degree)
    queue = deque(range(len(elements)))
    while queue:
        idx = queue.popleft()
        deg_x, x = elements[idx]
        for j in range(len(elements)):
            deg_y, y = elements[j]
            bracket_m = ex.mat_mul(x, y)
            yx = ex.mat_mul(y, x)
            bracket = [
                [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(bracket_m, yx)
            ]
            if try_add(bracket, deg_x + deg_y):
                queue.append(len(elements) - 1)
    by_degree = {d: len(b) for d, b in sorted(blocks.items()) if b}
    return len(elements), by_degree


def so5_closure(ring: CohomologyRing, plane: PositiveThreePlane, tol: Tolerances = DEFAULT_TOL) -> LieClosure:
    """Closure of the sl2 pairs over a q-orthonormal basis of a positive 3-plane."""
    es = [lefschetz_e(ring, eta) for eta in plane.frame]
    fs = _lefschetz_f(ring, np.array([e.matrix for e in es]))
    return lie_closure([op for e, f in zip(es, fs) for op in (e, GradedOperator(ring, f, degree=-2))], tol)


def full_llv_closure(ring: CohomologyRing, tol: Tolerances = DEFAULT_TOL) -> LieClosure:
    """Closure of the Lefschetz pairs over the whole degree-2 basis.

    e_eta enters for every basis vector; f_eta needs q(eta) != 0 (hard
    Lefschetz), so isotropic basis vectors are patched by the first partner
    that makes the square nonzero. The patched classes still span, which is
    what generation needs.

    The algebra is an invariant of the ring, so each ring keeps it per
    ``tol``, without the ring: the first call computes it and sets every
    element matrix read-only; each call wraps it in operators of the
    calling ring, with its own copy of ``by_degree``.
    """
    kept = ring._llv_algebras.get(tol)
    if kept is None:
        L = ring.lattice
        n = L.rank
        gens, f_classes = [], []
        for a in range(n):
            eta = [0] * n
            eta[a] = 1
            gens.append(lefschetz_e(ring, eta))
            if L.q(eta) == 0:
                partner = next(b for b in range(n) if b != a and L.q([int(i in (a, b)) for i in range(n)]))
                eta[partner] += 1
            f_classes.append(lefschetz_e(ring, eta).matrix)
        gens += [GradedOperator(ring, f, degree=-2) for f in _lefschetz_f(ring, np.array(f_classes))]
        closure = lie_closure(gens, tol)
        for op in closure.elements:
            op.matrix.flags.writeable = False
        kept = ring._llv_algebras[tol] = (
            tuple((op.degree, op.matrix) for op in closure.elements),
            dataclasses.replace(closure, ring=None, elements=()),
        )
    operators, fields = kept
    elements = tuple(_assembled(ring, m, d) for d, m in operators)
    return dataclasses.replace(fields, ring=ring, elements=elements, by_degree=dict(fields.by_degree))


# -- Fujiki constant ----------------------------------------------------------------


def fujiki_constant(ring: CohomologyRing, samples: int | None = None, seed: int = 0) -> Fraction:
    """The rational constant c with q(a)^m = c * integral(a^{2m}), fit exactly.

    Samples random integer degree-2 classes a with entries in [-9, 9] and
    requires a single consistent c across them; an inconsistent sample
    raises, naming the first offender in draw order. All samples come from
    one draw, the same stream as one draw per sample, and are evaluated
    together in exact integers: a^{t+1} = a^t a runs over the
    structure constants on integer columns, the integral is one product with
    the integration vector, q(a) is one einsum, and consistency with the
    first informative sample is a cross-multiplication.

    Columns are int64 when an a-priori magnitude bound lies below 2^62, and
    Python ints (dtype=object) otherwise, in the same loop. With S the
    largest sum of |c_ijk| over the constants that land in one basis element
    k and pair with a lattice class j, every entry and partial sum of a^t is
    at most 9^t S^(t-1), the integral at most max(sum|w|, 1) 9^(2m) S^(2m-1),
    and |q(a)| at most 81 sum|g_ij|. The bound is the integral's bound times
    the m-th power of q's, which caps every cross product and every value
    before it.
    """
    L = ring.lattice
    n = L.rank
    count = samples if samples is not None else max(2 * n * n, 32)
    position = {idx: a for a, idx in enumerate(ring.lattice_indices)}
    terms = [
        (i, position[j], k, c)
        for (i, j), out in ring._table.items()
        if j in position
        for k, c in out.items()
        if c
    ]
    per_target = [0] * ring.dim
    for _, _, k, c in terms:
        per_target[k] += abs(c)
    power_bound = 9 ** (2 * ring.m) * max(per_target) ** (2 * ring.m - 1)
    integral_bound = max(sum(map(abs, ring.integration)), 1) * power_bound
    q_bound = 81 * sum(abs(x) for row in L.gram for x in row)
    dtype = np.int64 if integral_bound * q_bound**ring.m < 2**62 else object

    a = np.random.default_rng(seed).integers(-9, 10, size=(max(count, 0), n)).astype(dtype)
    power = np.zeros((len(a), ring.dim), dtype=dtype)
    power[:, list(ring.lattice_indices)] = a
    for _ in range(2 * ring.m - 1):
        step = np.zeros_like(power)
        for i, j, k, c in terms:
            step[:, k] += c * power[:, i] * a[:, j]
        power = step
    integral = power @ np.array(ring.integration, dtype=dtype)
    qm = np.einsum("si,ij,sj->s", a, np.array(L.gram, dtype=dtype), a) ** ring.m

    live = a.any(axis=1)
    informative = live & (integral != 0)
    bad = live & ~informative & (qm != 0)
    if informative.any():
        w = int(np.argmax(informative))
        c_val = Fraction(int(qm[w]), int(integral[w]))
        bad |= informative & (qm * integral[w] != qm[w] * integral)
    if bad.any():
        s = int(np.argmax(bad))
        sample = [int(x) for x in a[s]]
        if not informative[s]:
            raise NumericalError(f"Fujiki relation violated on {sample}")
        raise NumericalError(
            f"Fujiki relation violated: {[int(x) for x in a[w]]} gives {c_val}, "
            f"{sample} gives {Fraction(int(qm[s]), int(integral[s]))}"
        )
    if not informative.any():
        raise NumericalError("no informative samples for the Fujiki fit")
    return c_val


# -- weight operator and Hodge decomposition ----------------------------------------


_WEIGHT_SOLVE_TOL = 1e-8  # weight-operator residual, relative to its right-hand side
_THIRD_FRAME_MIN = 1e-6  # q-square a frame row keeps off the period plane to give the third frame vector


def deligne_generator(closure: LieClosure, z: PeriodPoint) -> GradedOperator:
    """The rotation generator of the period plane inside the degree-0 part.

    Solves for X in the closure's degree-0 block with X a = 2b, X b = -2a,
    X = 0 on the rest of the 3-plane and on the unit; its eigenvalue on the
    line of sigma is -2i, on the conjugate +2i, and 0 on the rest of the
    degree-2 block, matching the infinitesimal weights -(p - q) i of the
    Hodge bigrading.
    """
    ring = closure.ring
    L = ring.lattice
    basis = closure.degree_zero_basis()
    if not basis:
        raise DomainError("closure has no degree-0 part")
    plane_vectors = _closure_plane(closure)
    if not conic_contains(plane_vectors, z):
        raise DomainError("period point does not lie on the conic of the closure plane")
    a_emb = ring.embed_lattice_vector(z.re)
    b_emb = ring.embed_lattice_vector(z.im)
    g = gram_float(L)
    # third frame vector of the plane, orthogonal to the period plane
    w = None
    for row in plane_vectors.frame:
        cand = row - (row @ g @ z.re) * z.re - (row @ g @ z.im) * z.im
        if qform(L, cand) > _THIRD_FRAME_MIN:
            w = cand / np.sqrt(qform(L, cand))
            break
    if w is None:
        raise NumericalError("could not extract the third frame vector")
    w_emb = ring.embed_lattice_vector(w)
    unit = np.zeros(ring.dim)
    unit[ring._degree_blocks[0][0]] = 1.0
    conditions = [
        (a_emb, 2 * b_emb),
        (b_emb, -2 * a_emb),
        (w_emb, np.zeros(ring.dim)),
        (unit, np.zeros(ring.dim)),
    ]
    rows = []
    rhs = []
    for vin, vout in conditions:
        block = np.array([mat @ vin for mat in basis]).T
        rows.append(block)
        rhs.append(vout)
    a_sys = np.vstack(rows)
    b_sys = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(a_sys, b_sys, rcond=None)
    residual = float(np.linalg.norm(a_sys @ sol - b_sys))
    if residual > _WEIGHT_SOLVE_TOL * max(1, float(np.linalg.norm(b_sys))):
        raise NumericalError(f"weight-operator solve inconsistent (residual {residual:.3e})")
    x_mat = sum(c * mat for c, mat in zip(sol, basis))
    return GradedOperator(ring, x_mat, degree=0)


def _closure_plane(closure: LieClosure) -> PositiveThreePlane:
    """Recover the positive 3-plane of an sl2-family closure from its e-block.

    The degree +2 part of the closure is the span of the cup operators of
    the plane's classes; reading off their degree-2 columns reconstructs the
    plane.
    """
    from .period import orient_three_plane

    ring = closure.ring
    vectors = []
    unit_index = ring._degree_blocks[0][0]
    for op in closure.elements:
        if op.degree != +2:
            continue
        col = op.matrix[:, unit_index]
        eta = np.array([col[idx] for idx in ring.lattice_indices])
        vectors.append(eta)
    if len(vectors) != 3:
        raise DomainError("closure degree +2 part does not define a 3-plane")
    return orient_three_plane(ring.lattice, vectors)


def weight_spectrum(ring: CohomologyRing, x: GradedOperator) -> dict[int, list[complex]]:
    """Eigenvalues of the weight operator per cohomological degree block."""
    out: dict[int, list[complex]] = {}
    for d, idx in enumerate(ring._degree_blocks):
        if not len(idx):
            continue
        block = x.matrix[np.ix_(idx, idx)]
        evals = np.linalg.eigvals(block)
        out[d] = sorted((complex(v) for v in evals), key=lambda c: (c.imag, c.real))
    return out


@dataclasses.dataclass(frozen=True)
class HodgeDecomposition:
    """The Hodge splitting of H^2(X, C) at a period point, built over R.

    With P the positive plane span(Re sigma, Im sigma), H^{1,1} = P^perp (x) C,
    so a real basis of P^perp spans it.
    """

    h20: np.ndarray  # complex line of sigma
    h02: np.ndarray  # conjugate line
    h11: np.ndarray  # real orthonormal basis of P^perp, spanning H^{1,1} over C
    inertia_h11: tuple[int, int]

    @property
    def dims(self) -> tuple[int, int, int]:
        return 1, self.h11.shape[0], 1


_HODGE_ORTH = 1e-8  # largest modulus |h_q(x, sigma)| = |h_q(x, conj sigma)| of an H^{1,1} basis row x
_INERTIA_CUT = 1e-9  # |eigenvalue| of the H^{1,1} hermitian form below which its sign is undecided


def hodge_decompose(L: QuadLattice, z: PeriodPoint) -> HodgeDecomposition:
    """Split the complexified lattice by the period point, with certificates.

    H^{2,0} = C sigma, H^{0,2} = C conj(sigma), and H^{1,1} their
    h_q-orthogonal complement. The split is built over R: H^{1,1} is spanned
    by the real q-complement of the plane (Re sigma, Im sigma), and on real
    vectors the hermitian form h_q is q. Verifies h_q-orthogonality, that
    the form has inertia (1, n - 3) on H^{1,1} (numerical eigenvalue count)
    and that h_q(sigma, sigma) > 0.
    """
    if z.lattice != L:
        raise DomainError("period point lives on another lattice")
    g = gram_float(L)
    frame_g = z._frame_g  # rows (Re sigma) G and (Im sigma) G, cached on the point
    h11 = np.linalg.svd(frame_g)[2][2:]
    # for real x, |h(x, sigma)| = |h(x, conj sigma)| = hypot(x G Re sigma, x G Im sigma)
    if np.hypot(*(frame_g @ h11.T)).max(initial=0) > _HODGE_ORTH:
        raise NumericalError("H^{1,1} fails h_q-orthogonality")
    evals = np.linalg.eigvalsh(h11 @ g @ h11.T)
    pos = int((evals > _INERTIA_CUT).sum())
    neg = int((evals < -_INERTIA_CUT).sum())
    if pos + neg != len(evals):
        raise NumericalError("H^{1,1} inertia is numerically ambiguous")
    expected = (1, L.rank - 3)
    if (pos, neg) != expected:
        raise NumericalError(
            f"H^(1,1) inertia {(pos, neg)} differs from {expected}; invalid input"
        )
    if float(np.vdot(frame_g, z.plane_frame())) <= 0:  # h_q(sigma, sigma) = q(Re sigma) + q(Im sigma)
        raise NumericalError("h_q is not positive on the sigma line")
    sigma = z.sigma
    return HodgeDecomposition(
        h20=sigma, h02=np.conj(sigma), h11=h11, inertia_h11=(pos, neg)
    )
