"""Integral quadratic lattices: signatures, dual forms, reflections, spinor norms.

All arithmetic in this module is exact (ints and Fractions). Floating point
is deliberately absent: signatures and spinor signs are discrete invariants
and must not depend on rounding. Per-lattice data is computed once: det and
signature come from one symmetric elimination at construction, which also
refuses a degenerate form; the adjugate, an integer positive p-plane and its
product with the gram are cached on first use. The spinor sign is the
orientation character of positive p-planes; the Cartan-Dieudonne
decomposition ``reflection_vectors`` is kept as its independent oracle.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import exactlin as ex
from .errors import DomainError, InternalInconsistencyError

# -- core types ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QuadLattice:
    """Free abelian group Z^rank with an integral symmetric bilinear form.

    gram[i][j] = b(e_i, e_j); the quadratic form is q(v) = v^T gram v.
    """

    gram: tuple[tuple[int, ...], ...]
    det: int = dataclasses.field(init=False, repr=False, compare=False)
    # exact inertia (p, m) of the gram matrix, p + m = rank
    signature: tuple[int, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if n == 0:
            raise DomainError("lattice rank must be positive")
        if any(len(row) != n for row in g):
            raise DomainError("gram matrix must be square")
        if any(not isinstance(x, int) for row in g for x in row):
            raise DomainError("gram entries must be integers")
        if not ex.is_symmetric(g):
            raise DomainError("gram matrix must be symmetric")
        pos, neg, _zero, det = ex._inertia_det_int(g)
        if det == 0:
            raise DomainError("degenerate form")
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "signature", (pos, neg))

    @classmethod
    def from_rows(cls, rows) -> "QuadLattice":
        """Decode entries exactly (ints or 'p/q'); non-integral entries are rejected."""
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise DomainError("gram must be a list of rows of integers")
        if all(type(x) is int for row in rows for x in row):
            return cls(tuple(map(tuple, rows)))
        entries = [ex.frvec(row) for row in rows]
        if any(x.denominator != 1 for row in entries for x in row):
            raise DomainError("gram entries must be integers")
        return cls(tuple(tuple(int(x.numerator) for x in row) for row in entries))  # int() for numpy ints

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def adjugate(self) -> list[list[int]]:
        """det * gram^{-1}, an integer matrix; computed once, used for dual values."""
        return ex.det_adjugate(self.gram)[1]

    @cached_property
    def positive_plane(self) -> list[list[int]]:
        """Integer basis of a positive p-plane, p the positive index; rows pairwise q-orthogonal.

        Exact Lagrange diagonalisation of the standard basis: take an
        anisotropic row v (or r_i + r_j when every row is isotropic, so that
        q(v) = 2 b(r_i, r_j) != 0), keep it if q(v) > 0, and replace the other
        rows by their projections q(v) r - b(r, v) v onto the q-complement of v.
        """
        def b(u, w):  # the integer form on integer rows
            return sum(x * sum(map(mul, row, w)) for x, row in zip(u, self.gram) if x)

        rows = [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]
        plane = []
        while len(plane) < self.signature[0]:
            k = next((i for i, r in enumerate(rows) if b(r, r)), None)
            if k is None:  # rows span a nondegenerate space, so some b(r_i, r_j) != 0
                i, j = next((i, j) for i in range(len(rows)) for j in range(i) if b(rows[i], rows[j]))
                rows[i] = [x + y for x, y in zip(rows[i], rows[j])]
                k = i
            v = rows.pop(k)
            qv = b(v, v)
            if qv > 0:
                plane.append(v)
            rows = [ex.primitive_vector([qv * x - b(r, v) * y for x, y in zip(r, v)]) for r in rows]
        return plane

    @cached_property
    def _plane_gram(self) -> list[list[int]]:
        """W gram for W the positive plane: the left factor of every spinor sign's b(W, g W)."""
        return ex.mat_mul(self.positive_plane, self.gram)

    def __hash__(self) -> int:
        """Hash of the gram, computed once; lattices key the per-lattice float caches."""
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.gram)

    def bform(self, u, v) -> Fraction:
        """b(u, v) = u . gram . v, exact; u and v are int/Fraction/'p/q' vectors of length rank."""
        if len(u) != self.rank or len(v) != self.rank:
            raise DomainError("vector length does not match the lattice rank")
        iu, du = ex.scale_to_integers(u)
        iv, dv = ex.scale_to_integers(v)
        total = sum(a * sum(map(mul, row, iv)) for a, row in zip(iu, self.gram) if a)
        return Fraction(total, du * dv)

    def q(self, v) -> Fraction:
        return self.bform(v, v)


@dataclasses.dataclass(frozen=True)
class WallForm:
    """Dual-lattice functional delta(v) = coords . v with rational coords.

    Coordinates are ints, 'p/q' strings or Fractions; each is stored as an
    int when integral and as a Fraction otherwise, so equal forms compare,
    hash and encode alike however they were given.
    """

    lattice: QuadLattice
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if type(self.coords) is not tuple or {*map(type, self.coords)} - {int}:
            object.__setattr__(self, "coords", tuple(map(_exact_coord, self.coords)))
        if len(self.coords) != self.lattice.rank:
            raise DomainError("wall form has wrong length")
        if not any(self.coords):
            raise DomainError("wall form must be nonzero")

    @classmethod
    def from_coords(cls, lattice: QuadLattice, coords) -> "WallForm":
        return cls(lattice, coords)

    def __call__(self, v) -> Fraction:
        return ex.dot(list(self.coords), ex.frvec(v))

    @cached_property
    def indivisible(self) -> bool:
        """True when the lcm-cleared integer coordinate vector has content 1."""
        cleared, _ = ex.scale_to_integers(self.coords)
        return ex.content(cleared) == 1

    @cached_property
    def dual_value(self) -> Fraction:
        return dual_value(self.lattice, self.coords)

    @cached_property
    def negative(self) -> bool:
        return is_negative_form(self.lattice, self.coords)


def _unchecked_wall(lattice: QuadLattice, coords: tuple[int, ...]) -> WallForm:
    """A WallForm of a nonzero tuple of ``lattice.rank`` ints, which ``__post_init__`` keeps as it is: unchecked."""
    wall = object.__new__(WallForm)
    wall.__dict__.update(lattice=lattice, coords=coords)
    return wall


def _exact_coord(c) -> int | Fraction:
    f = ex.fr(c)
    return f.numerator if f.denominator == 1 else f


# -- standard lattices ---------------------------------------------------------

_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def hyperbolic_plane() -> QuadLattice:
    """The even unimodular plane U with gram [[0,1],[1,0]]."""
    return QuadLattice.from_rows([[0, 1], [1, 0]])


def e8_lattice() -> QuadLattice:
    """Positive definite even unimodular E8 (Cartan-matrix gram)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = -1
    return QuadLattice.from_rows(g)


def rank_one(k: int) -> QuadLattice:
    if k == 0:
        raise DomainError("degenerate form")
    return QuadLattice.from_rows([[int(k)]])


def direct_sum(*lattices: QuadLattice) -> QuadLattice:
    if not lattices:
        raise DomainError("direct sum needs at least one summand")
    n = sum(L.rank for L in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for L in lattices:
        r = L.rank
        for i in range(r):
            for j in range(r):
                g[off + i][off + j] = L.gram[i][j]
        off += r
    return QuadLattice.from_rows(g)


def rescale(L: QuadLattice, s: int) -> QuadLattice:
    if s == 0:
        raise DomainError("cannot rescale a form by 0")
    return QuadLattice.from_rows([[s * x for x in row] for row in L.gram])


def k3_lattice() -> QuadLattice:
    """U^3 + E8(-1)^2: rank 22, signature (3,19), unimodular."""
    u = hyperbolic_plane()
    e8m = rescale(e8_lattice(), -1)
    return direct_sum(u, u, u, e8m, e8m)


def standard_lattice(name: str) -> QuadLattice:
    """The named lattice U, E8, K3 or U3; ``rank_one``, ``rescale`` and ``direct_sum`` build others."""
    key = name.upper()
    if key == "U":
        return hyperbolic_plane()
    if key == "E8":
        return e8_lattice()
    if key == "K3":
        return k3_lattice()
    if key == "U3":
        return direct_sum(*([hyperbolic_plane()] * 3))
    raise DomainError(f"unknown lattice name {name!r}; expected U, E8, K3 or U3")


# -- operations ----------------------------------------------------------------


def signature(L: QuadLattice) -> tuple[int, int]:
    return L.signature


def dual_value(L: QuadLattice, coords) -> Fraction:
    """q^vee(delta) = coords . gram^{-1} . coords, exact over Q.

    With D the lcm of the coordinate denominators and w = D coords integral,
    q^vee(delta) = w . adj(gram) . w / (det D^2).
    """
    w, scale = ex.scale_to_integers(coords)
    if len(w) != L.rank:
        raise DomainError("dual coordinates have wrong length")
    acc = sum(wi * sum(map(mul, row, w)) for wi, row in zip(w, L.adjugate) if wi)
    return Fraction(acc, L.det * scale * scale)


def kernel_signature(L: QuadLattice, coords) -> tuple[int, int]:
    """Exact inertia of q restricted to ker(delta); radical not counted.

    With c the lcm-cleared coordinate vector, the bordered matrix
    [[gram, c], [c^T, 0]] is congruent to (q on ker c) + a hyperbolic plane,
    so its inertia minus (1, 1) is the answer.
    """
    c, _ = ex.scale_to_integers(coords)
    if len(c) != L.rank:
        raise DomainError("dual coordinates have wrong length")
    if all(x == 0 for x in c):
        raise DomainError("zero functional")
    bordered = [list(row) + [x] for row, x in zip(L.gram, c)] + [c + [0]]
    # integral and symmetric by construction, so inertia's two scans are skipped
    pos, neg, _zero, _det = ex._inertia_det_int(bordered)
    return pos - 1, neg - 1


def is_negative_form(L: QuadLattice, coords) -> bool:
    """True iff the dual value q^vee(delta) is negative; the zero functional is refused.

    On a nondegenerate lattice of signature (p, m) this is the kernel
    criterion: with c* = gram^{-1} c, ker delta = c*^perp and q^vee(delta) =
    q(c*), so ker delta has signature (p, m - 1) exactly when q(c*) < 0.
    The tests check that equivalence against ``kernel_signature``.
    """
    c = ex.frvec(coords)
    if all(x == 0 for x in c):
        raise DomainError("zero functional")
    return dual_value(L, c) < 0


def reflection_matrix(L: QuadLattice, v) -> ex.Mat:
    """Matrix of r_v(x) = x - (2 b(x,v)/q(v)) v, exact over Q."""
    qv = L.q(v)
    if qv == 0:
        raise DomainError("isotropic reflection vector")
    vv = ex.frvec(v)
    gv = ex.mat_vec([list(r) for r in L.gram], vv)
    n = L.rank
    mat = ex.identity(n)
    for i in range(n):
        for j in range(n):
            mat[i][j] -= 2 * vv[i] * gv[j] / qv
    return mat


@dataclasses.dataclass(frozen=True)
class Reflection:
    """A rational reflection of the ambient quadratic space."""

    lattice: QuadLattice
    vector: tuple[Fraction, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    integral: bool

    @property
    def norm(self) -> Fraction:
        return self.lattice.q(self.vector)


def reflection(L: QuadLattice, v) -> Reflection:
    mat = reflection_matrix(L, v)
    integral = all(x.denominator == 1 for row in mat for x in row)
    return Reflection(
        lattice=L,
        vector=tuple(ex.frvec(v)),
        matrix=tuple(tuple(row) for row in mat),
        integral=integral,
    )


def _scaled_isometry(L: QuadLattice, g) -> tuple[list[list[int]], int] | None:
    """(D g, D) for D the positive lcm of g's denominators when g is an isometry of L, else None."""
    if len(g) != L.rank or any(len(row) != L.rank for row in g):
        return None
    h, d = ex.scale_matrix_to_integers(g)
    if ex.mat_mul(ex.mat_mul(ex.transpose(h), L.gram), h) != [[d * d * x for x in r] for r in L.gram]:
        return None
    return h, d


def _candidate_vectors(basis: list[list[int]], order: list[int] | None):
    """Basis vectors (permuted by ``order``), then sums and differences of pairs, lazily.

    Each candidate comes with the index of a basis vector on which it has a
    nonzero coefficient.
    """
    idx = list(range(len(basis)))
    if order:
        perm = [order[i % len(order)] % len(basis) for i in range(len(basis))]
        seen, idx = set(), []
        for p in perm:
            if p not in seen:
                seen.add(p)
                idx.append(p)
        idx += [i for i in range(len(basis)) if i not in seen]
    for i in idx:
        yield basis[i], i
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            u, w = basis[idx[a]], basis[idx[b]]
            yield [x + y for x, y in zip(u, w)], idx[a]
            yield [x - y for x, y in zip(u, w)], idx[a]


def reflection_vectors(L: QuadLattice, g: ex.Mat, order: list[int] | None = None) -> list[list[int]]:
    """Cartan-Dieudonne decomposition: vectors w_i with g = r_{w_1} ... r_{w_k}.

    Recursive: find an anisotropic v in the current invariant subspace and
    either recurse on v-perp (g fixes v), peel off one reflection in v - g v
    (anisotropic mirror), or two reflections via v + g v (isotropic mirror).
    Terminates in at most 2 * rank reflections. The ``order`` argument only
    permutes the candidate search and must not change the resulting spinor
    sign; tests rely on that.

    The arithmetic is in integers: a reflection and a span do not change
    when a vector is scaled, so every basis vector and mirror is kept
    primitive, and the running g as an integer matrix h over one positive
    denominator d. The returned mirrors are primitive integer vectors.
    """
    gram = [list(r) for r in L.gram]
    scaled = _scaled_isometry(L, g)
    if scaled is None:
        raise DomainError("matrix does not preserve the form")

    def qq(v):
        return ex.dot(v, ex.mat_vec(gram, v))

    def reflect(w: list[int], h: list[list[int]], d: int) -> tuple[list[list[int]], int]:
        """r_w (h / d) = (q(w) h - 2 w (w^T gram h)) / (q(w) d), reduced to lowest terms."""
        qw = qq(w)
        u = ex.mat_vec(ex.transpose(h), ex.mat_vec(gram, w))  # w^T gram h
        h2 = [[qw * x - 2 * wi * y for x, y in zip(row, u)] for row, wi in zip(h, w)]
        d2 = qw * d
        c = ex.content([d2] + [x for row in h2 for x in row])
        if d2 < 0:
            c = -c
        return [[x // c for x in row] for row in h2], d2 // c

    def recurse(h: list[list[int]], d: int, basis: list[list[int]]) -> list[list[int]]:
        if not basis:
            return []
        if all(ex.mat_vec(h, b) == [d * x for x in b] for b in basis):
            return []
        v, i = next(((c, i) for c, i in _candidate_vectors(basis, order) if qq(c) != 0), (None, None))
        if v is None:
            raise InternalInconsistencyError("no anisotropic vector in a nondegenerate subspace")
        v = ex.primitive_vector(v)
        hv = ex.mat_vec(h, v)  # d g v
        dv = [d * x for x in v]
        qv = qq(v)
        gram_v = ex.mat_vec(gram, v)  # b(b, v) = b . (gram v), gram v once per step
        # q(v) b - b(b, v) v spans the projection of b onto v-perp; v involves basis[i],
        # so dropping it leaves a basis of the projected span
        orth = [
            ex.primitive_vector([qv * x - ex.dot(b, gram_v) * y for x, y in zip(b, v)])
            for k, b in enumerate(basis)
            if k != i
        ]
        if hv == dv:
            return recurse(h, d, orth)
        w = ex.primitive_vector([x - y for x, y in zip(dv, hv)])
        if qq(w) != 0:
            h2, d2 = reflect(w, h, d)
            return [w] + recurse(h2, d2, orth)
        w1 = ex.primitive_vector([x + y for x, y in zip(dv, hv)])
        # q(v - gv) = 0 and q(v) != 0 force q(v + gv) = 4 q(v) != 0
        h2, d2 = reflect(v, *reflect(w1, h, d))
        return [w1, v] + recurse(h2, d2, orth)

    vectors = recurse(*scaled, [[int(i == j) for j in range(L.rank)] for i in range(L.rank)])
    if len(vectors) > 2 * L.rank:
        raise InternalInconsistencyError("reflection decomposition exceeded 2 * rank")
    return vectors


def spinor_norm_sign(L: QuadLattice, g) -> int:
    """Real spinor norm of g for the form -q, as a sign in {+1, -1}.

    This is the orientation character of positive p-planes: with W the
    cached ``L.positive_plane``, the sign of det b(W, g W). A reflection r_v
    reverses that orientation exactly when q(v) > 0, i.e. its sign is the
    sign of -q(v), and b(W, g W) is never singular (g W meets W^perp in 0).
    Its kernel is the index-2 subgroup O+ of O(q).
    """
    scaled = _scaled_isometry(L, g)
    if scaled is None:
        raise DomainError("matrix does not preserve the form")
    h, _ = scaled  # D g, D > 0, leaves the sign unchanged
    m = ex.mat_mul(L._plane_gram, ex.mat_mul(h, ex.transpose(L.positive_plane)))
    return 1 if ex.det(m) > 0 else -1


def in_o_sharp(L: QuadLattice, g) -> bool:
    """Membership in the kernel of the real spinor norm for -q inside O(q)."""
    return spinor_norm_sign(L, g) == +1
