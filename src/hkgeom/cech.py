"""Cech cochains of a finite nerve with coefficients in a finite abelian group.

Supports degrees 0..2 (with degree-3 coboundary values used internally for
the cocycle test), coboundaries, cocycle checks, coboundary solving by Smith
normal form over the integers per invariant factor, and cohomology by the
universal coefficient theorem. The coboundary has one implementation: the
nerve's face table, kept per degree, which d, the cocycle test and
``coboundary_matrix`` read; the Smith forms are kept per degree beside it.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from numbers import Integral
from operator import mul

from . import exactlin as ex
from .errors import DomainError, InternalInconsistencyError

MAX_DIM = 3  # simplices of up to 4 vertices: enough for degree-2 cocycle checks


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting seq; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _integer(x, what: str) -> int:
    """x as an int: numpy integer scalars are converted, bool and non-integers refused."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return int(x)


@dataclasses.dataclass(frozen=True)
class Nerve:
    """Finite simplicial complex: sorted vertex tuples closed under faces."""

    vertices: tuple
    simplices: frozenset

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise DomainError("duplicate vertices")
        for s in self.simplices:
            if tuple(sorted(s)) != s:
                raise DomainError(f"simplex {s} is not sorted")
            if len(set(s)) != len(s):
                raise DomainError(f"simplex {s} repeats a vertex")
            if len(s) - 1 > MAX_DIM:
                raise DomainError(f"simplex {s} exceeds dimension cap {MAX_DIM}")
            if not set(s) <= vset:
                raise DomainError(f"simplex {s} uses unknown vertices")
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                if face and face not in self.simplices:
                    raise DomainError(f"face {face} of {s} is missing")

    @classmethod
    def from_simplices(cls, simplices, vertices=None) -> "Nerve":
        """Build from generating simplices, closing under faces."""
        closed = set()
        stack = [tuple(sorted(s)) for s in simplices]
        for s in stack:
            if len(s) - 1 > MAX_DIM:
                raise DomainError(f"simplex {s} exceeds dimension cap {MAX_DIM}")
        while stack:
            s = stack.pop()
            if s in closed or not s:
                continue
            closed.add(s)
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                if face:
                    stack.append(face)
        verts = tuple(sorted(vertices)) if vertices is not None else tuple(
            sorted({v for s in closed for v in s})
        )
        for v in verts:
            closed.add((v,))
        return cls(vertices=verts, simplices=frozenset(closed))

    def simplices_of_dim(self, d: int) -> list[tuple]:
        """The d-simplices in sorted order, as a fresh list."""
        return list(self._sorted_simplices[d]) if 0 <= d <= MAX_DIM else []

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def coboundary_matrix(self, d: int) -> list[list[int]]:
        """Integer matrix of the coboundary C^d -> C^{d+1} in sorted bases, written from the face table.

        The degree d is one of the nerve's cochain degrees 0..MAX_DIM; any other raises ``DomainError``.
        """
        if not 0 <= d <= MAX_DIM:
            raise DomainError(f"coboundary degree must be in 0..{MAX_DIM}, got {d!r}")
        mat = [[0] * len(self.simplices_of_dim(d)) for _ in self.simplices_of_dim(d + 1)]
        for row, faces in zip(mat, self._face_table(d)):
            for j, sign in faces:
                row[j] = sign
        return mat

    def coboundary_smith_form(self, d: int) -> tuple:
        """Smith form U A V = S of A = ``coboundary_matrix(d)``: (diagonal of S, U, V), as tuples.

        V is n x n for the n d-simplices, also when A has no rows.
        The form does not depend on the coefficients, so it is computed on
        first use for each degree and kept with the nerve; cohomology and
        coboundary solving share it across calls and cyclic factors.
        """
        forms = self._smith_forms
        if d not in forms:
            a = self.coboundary_matrix(d)
            n = len(self.simplices_of_dim(d))
            if a:
                s, u, v = ex.smith_normal_form(a)
            else:
                s, u = [], []
                v = [[int(i == j) for j in range(n)] for i in range(n)]
            diagonal = tuple(s[i][i] for i in range(min(len(a), n)))
            forms[d] = (diagonal, *(tuple(map(tuple, m)) for m in (u, v)))
        return forms[d]

    @cached_property
    def _sorted_simplices(self) -> tuple[tuple[tuple, ...], ...]:
        """The simplices of each dimension 0..MAX_DIM, sorted once."""
        by_dim = [[] for _ in range(MAX_DIM + 1)]
        for s in self.simplices:
            by_dim[len(s) - 1].append(s)
        return tuple(tuple(sorted(b)) for b in by_dim)

    def _face_table(self, d: int) -> tuple:
        """The coboundary C^d -> C^{d+1}, kept on first use: for each sorted (d+1)-simplex s, the
        pairs (index of s minus its vertex i among the sorted d-simplices, (-1)^i)."""
        tables = self._face_tables
        if d not in tables:
            index = {s: j for j, s in enumerate(self.simplices_of_dim(d))}
            tables[d] = tuple(
                tuple((index[s[:i] + s[i + 1 :]], (-1) ** i) for i in range(len(s)))
                for s in self.simplices_of_dim(d + 1)
            )
        return tables[d]

    @cached_property
    def _face_tables(self) -> dict[int, tuple]:
        return {}

    @cached_property
    def _smith_forms(self) -> dict[int, tuple]:
        return {}


def octahedron_nerve() -> Nerve:
    """Boundary of the octahedron: 6 vertices, 8 faces, topologically S^2.

    Vertices 0/1, 2/3, 4/5 are antipodal pairs; faces pick one from each.
    """
    faces = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    return Nerve.from_simplices(faces)


def full_triangle_nerve() -> Nerve:
    """The full 2-simplex on three vertices (contractible)."""
    return Nerve.from_simplices([(0, 1, 2)])


@dataclasses.dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z/k_1 x ... x Z/k_r; elements are int tuples."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_integer(k, "a cyclic factor") for k in self.factors)
        if any(k < 1 for k in factors):
            raise DomainError("cyclic factors must be >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        n = 1
        for k in self.factors:
            n *= k
        return n

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, element) -> tuple[int, ...]:
        if len(element) != self.rank:
            raise DomainError("element has wrong number of coordinates")
        return tuple(_integer(x, "an element entry") % k for x, k in zip(element, self.factors))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % k for x, y, k in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % k for x, k in zip(a, self.factors))


@dataclasses.dataclass(frozen=True)
class Cochain:
    """Degree-d cochain: values on the sorted d-simplices of a nerve.

    Elements are validated and reduced into the group on construction.
    Values on arbitrarily ordered simplices follow the alternation rule:
    c(permuted simplex) = sign(permutation) * c(sorted simplex).
    """

    nerve: Nerve
    group: FiniteAbelianGroup
    degree: int
    values: tuple  # ((simplex, element), ...) sorted by simplex

    def __post_init__(self):
        expected = self.nerve.simplices_of_dim(self.degree)
        got = [s for s, _ in self.values]
        if got != expected:
            raise DomainError("cochain must be defined on exactly the d-simplices")
        object.__setattr__(self, "values", tuple((s, self.group.reduce(v)) for s, v in self.values))

    @classmethod
    def from_dict(cls, nerve: Nerve, group: FiniteAbelianGroup, degree: int, data) -> "Cochain":
        simplices = nerve.simplices_of_dim(degree)
        # built first, so that a bad element is reported before values on unknown simplices
        c = cls(nerve, group, degree, tuple((s, data.get(s, group.zero())) for s in simplices))
        extra = set(data) - set(simplices)
        if extra:
            raise DomainError(f"values on unknown simplices: {sorted(extra)}")
        return c

    @classmethod
    def zero(cls, nerve: Nerve, group: FiniteAbelianGroup, degree: int) -> "Cochain":
        return cls.from_dict(nerve, group, degree, {})

    def as_dict(self) -> dict:
        return dict(self.values)

    def value(self, simplex) -> tuple[int, ...]:
        """Value on an ordered simplex, with the alternation sign; ``DomainError`` off the cochain's simplices.

        A simplex of the right length on vertices of the nerve that repeats a
        vertex has value zero.
        """
        simplex = tuple(simplex)
        off_nerve = DomainError(f"{simplex} is not a {self.degree}-simplex of the nerve")
        if len(simplex) != self.degree + 1 or not set(simplex) <= set(self.nerve.vertices):
            raise off_nerve
        sign = _perm_sign(simplex)
        if sign == 0:
            return self.group.zero()
        v = self.as_dict().get(tuple(sorted(simplex)))
        if v is None:
            raise off_nerve
        return v if sign == 1 else self.group.neg(v)

    def is_zero(self) -> bool:
        z = self.group.zero()
        return all(v == z for _, v in self.values)

    def add(self, other: "Cochain") -> "Cochain":
        if (self.nerve, self.group, self.degree) != (other.nerve, other.group, other.degree):
            raise DomainError("cochain mismatch")
        values = tuple((s, tuple(map(sum, zip(a, b)))) for (s, a), (_, b) in zip(self.values, other.values))
        return Cochain(self.nerve, self.group, self.degree, values)

    def sub(self, other: "Cochain") -> "Cochain":
        negated = tuple((s, tuple(-x for x in v)) for s, v in other.values)
        return self.add(Cochain(other.nerve, other.group, other.degree, negated))


def _coboundary_values(c: Cochain) -> list[tuple[int, ...]]:
    """dc on the sorted (degree + 1)-simplices, read off the face table, not yet reduced."""
    elements = [v for _, v in c.values]
    return [
        tuple(sum(sign * elements[j][f] for j, sign in faces) for f in range(c.group.rank))
        for faces in c.nerve._face_table(c.degree)
    ]


def coboundary(c: Cochain) -> Cochain:
    """(dc)(s) = sum_i (-1)^i c(s with vertex i dropped)."""
    if c.degree + 1 > MAX_DIM - 1:
        raise DomainError("degree overflow")
    upper = c.nerve.simplices_of_dim(c.degree + 1)
    return Cochain(c.nerve, c.group, c.degree + 1, tuple(zip(upper, _coboundary_values(c))))


def is_cocycle(c: Cochain) -> bool:
    """For a degree-2 cochain: dc = 0 on all 3-simplices (vacuous if none)."""
    if c.degree != 2:
        raise DomainError("cocycle test is for degree-2 cochains")
    return not any(x % k for v in _coboundary_values(c) for x, k in zip(v, c.group.factors))


def cohomology(nerve: Nerve, group: FiniteAbelianGroup, degree: int) -> tuple[int, ...]:
    """Invariant factors of H^degree(nerve; group), canonicalized.

    By the universal coefficient theorem (Hatcher, Algebraic Topology, 2002,
    Thm 3A.3), with a_i and b_j the nonzero Smith diagonals of the
    coboundaries into and out of C^degree (``coboundary_smith_form``) and n
    the number of degree-simplices,
    H^degree(Z/k) = (Z/k)^(n - #a - #b) + sum_i Z/gcd(a_i, k) + sum_j Z/gcd(b_j, k).
    The coefficient group splits as a product of cyclic groups and cohomology
    distributes over the product; the cyclic orders of every factor are
    recombined into an invariant-factor chain.
    """
    if degree not in (0, 1, 2):
        raise DomainError("degree must be 0, 1 or 2")
    n = len(nerve.simplices_of_dim(degree))
    degrees = (degree - 1, degree) if degree else (0,)
    torsion = [s for d in degrees for s in nerve.coboundary_smith_form(d)[0] if s]
    orders: list[int] = []
    for k in group.factors:
        orders += [k] * (n - len(torsion)) + [ex.gcd(s, k) for s in torsion]
    return tuple(ex.invariant_factors(orders))


@dataclasses.dataclass(frozen=True)
class CoboundaryResult:
    """Outcome of solve_coboundary: a solution or an obstruction class.

    The obstruction is the class of the cocycle in coker(d^1 (x) Z/k), per
    cyclic factor Z/k; on a nerve without 3-simplices that cokernel is H^2.
    """

    solution: Cochain | None
    obstruction: tuple[int, ...] | None
    presentation: tuple[int, ...]  # cyclic orders the obstruction coordinates live in

    @property
    def solved(self) -> bool:
        return self.solution is not None


def solve_coboundary(c: Cochain) -> CoboundaryResult:
    """Solve d(x) = c for a degree-2 cocycle c, per invariant factor.

    One pass per cyclic factor Z/k over b = U c mod k and g_i = gcd(s_i, k),
    for the Smith form U d^1 V = S (s_i = 0 past the rank): c is solvable mod
    k iff every g_i divides b_i, and then x = V y with y_i = (b_i / g_i)
    (s_i / g_i)^-1 mod k / g_i, and d(x) = c exactly. Otherwise the class of c
    in coker(d^1 (x) Z/k) = sum_i Z/g_i is returned for each failing factor
    as the coordinates b_i mod g_i, with the orders g_i != 1 in ``presentation``.
    """
    if c.degree != 2:
        raise DomainError("solve_coboundary expects a degree-2 cochain")
    if not is_cocycle(c):
        raise DomainError("input is not a cocycle")
    nerve, group = c.nerve, c.group
    diagonal, u, v = nerve.coboundary_smith_form(1)
    diagonal += (0,) * (len(u) - len(diagonal))  # one s_i per row of U
    columns, obstruction, presentation = [], [], []  # columns: x mod k, per solved factor
    for idx, k in enumerate(group.factors):
        rhs = [x[idx] for _, x in c.values]
        b = [sum(map(mul, row, rhs)) % k for row in u]
        g = [ex.gcd(s, k) for s in diagonal]
        if any(bi % gi for bi, gi in zip(b, g)):
            presentation += [gi for gi in g if gi != 1]
            obstruction += [bi % gi for bi, gi in zip(b, g) if gi != 1]
        else:  # y_i = 0 where s_i = 0 (k / g_i = 1); map(mul, row, y) reads y as 0 past its end
            y = [bi // gi * pow(s // gi, -1, k // gi) % (k // gi) for bi, gi, s in zip(b, g, diagonal)]
            columns.append([sum(map(mul, row, y)) % k for row in v])
    if presentation:
        return CoboundaryResult(None, tuple(obstruction), tuple(presentation))
    edges = nerve.simplices_of_dim(1)
    x = Cochain(nerve, group, 1, tuple((e, tuple(col[j] for col in columns)) for j, e in enumerate(edges)))
    if coboundary(x).values != c.values:
        raise InternalInconsistencyError("internal check failed: d(x) != c")
    return CoboundaryResult(solution=x, obstruction=None, presentation=())
