"""Cech cochains of a finite nerve with coefficients in a finite abelian group.

Supports degrees 0..2 (with degree-3 coboundary values used internally for
the cocycle test), coboundaries, cocycle checks, coboundary solving by Smith
normal form over the integers per invariant factor, and cohomology by the
universal coefficient theorem.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from numbers import Integral
from operator import mul

from . import exactlin as ex
from .errors import DomainError

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
        """Integer matrix of the coboundary C^d -> C^{d+1} in sorted bases."""
        lower = self.simplices_of_dim(d)
        upper = self.simplices_of_dim(d + 1)
        index = {s: i for i, s in enumerate(lower)}
        mat = [[0] * len(lower) for _ in upper]
        for r, s in enumerate(upper):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                mat[r][index[face]] = (-1) ** i
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

    @classmethod
    def from_dict(cls, nerve: Nerve, group: FiniteAbelianGroup, degree: int, data) -> "Cochain":
        values = []
        for s in nerve.simplices_of_dim(degree):
            raw = data.get(s, group.zero())
            values.append((s, group.reduce(raw)))
        extra = set(data) - set(nerve.simplices_of_dim(degree))
        if extra:
            raise DomainError(f"values on unknown simplices: {sorted(extra)}")
        return cls(nerve, group, degree, tuple(values))

    @classmethod
    def zero(cls, nerve: Nerve, group: FiniteAbelianGroup, degree: int) -> "Cochain":
        return cls.from_dict(nerve, group, degree, {})

    def as_dict(self) -> dict:
        return dict(self.values)

    def value(self, simplex) -> tuple[int, ...]:
        """Value on an ordered simplex, with the alternation sign."""
        sign = _perm_sign(simplex)
        if sign == 0:
            return self.group.zero()
        v = self.as_dict()[tuple(sorted(simplex))]
        return v if sign == 1 else self.group.neg(v)

    def is_zero(self) -> bool:
        z = self.group.zero()
        return all(v == z for _, v in self.values)

    def add(self, other: "Cochain") -> "Cochain":
        if (self.nerve, self.group, self.degree) != (other.nerve, other.group, other.degree):
            raise DomainError("cochain mismatch")
        a, b = self.as_dict(), other.as_dict()
        return Cochain.from_dict(
            self.nerve, self.group, self.degree,
            {s: self.group.add(a[s], b[s]) for s in a},
        )

    def sub(self, other: "Cochain") -> "Cochain":
        if (self.nerve, self.group, self.degree) != (other.nerve, other.group, other.degree):
            raise DomainError("cochain mismatch")
        a, b = self.as_dict(), other.as_dict()
        return Cochain.from_dict(
            self.nerve, self.group, self.degree,
            {s: self.group.add(a[s], self.group.neg(b[s])) for s in a},
        )


def _coboundary_values(c: Cochain) -> dict:
    data = c.as_dict()
    out = {}
    for s in c.nerve.simplices_of_dim(c.degree + 1):
        acc = c.group.zero()
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            term = data[face]
            if i % 2:
                term = c.group.neg(term)
            acc = c.group.add(acc, term)
        out[s] = acc
    return out


def coboundary(c: Cochain) -> Cochain:
    """(dc)(s) = sum_i (-1)^i c(s with vertex i dropped)."""
    if c.degree + 1 > MAX_DIM - 1:
        raise DomainError("degree overflow")
    return Cochain.from_dict(c.nerve, c.group, c.degree + 1, _coboundary_values(c))


def is_cocycle(c: Cochain) -> bool:
    """For a degree-2 cochain: dc = 0 on all 3-simplices (vacuous if none)."""
    if c.degree != 2:
        raise DomainError("cocycle test is for degree-2 cochains")
    z = c.group.zero()
    return all(v == z for v in _coboundary_values(c).values())


def _solve_mod(smith: tuple, b: list[int], k: int) -> list[int] | None:
    """One solution of A x = rhs (mod k) for the Smith form (diagonal, U, V) of A and b = U rhs mod k, or None."""
    diagonal, _, v = smith
    y = [0] * len(v)
    for i, bi in enumerate(b):
        si = diagonal[i] if i < len(diagonal) else 0
        if si == 0:
            if bi:
                return None
            continue
        g = ex.gcd(si, k)
        if bi % g:
            return None
        kk = k // g
        y[i] = (bi // g) * pow(si // g, -1, kk) % kk if kk > 1 else 0
    return [sum(map(mul, row, y)) % k for row in v]


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

    Success returns x with d(x) = c exactly. Failure returns the class of c
    in coker(d^1 (x) Z/k) = sum_i Z/gcd(s_i, k) for each cyclic factor Z/k, as
    the coordinates (U c)_i mod gcd(s_i, k) from the Smith form U d^1 V = S
    (s_i = 0 past the rank), with the nontrivial orders in ``presentation``.
    """
    if c.degree != 2:
        raise DomainError("solve_coboundary expects a degree-2 cochain")
    if not is_cocycle(c):
        raise DomainError("input is not a cocycle")
    nerve, group = c.nerve, c.group
    edges = nerve.simplices_of_dim(1)
    faces = nerve.simplices_of_dim(2)
    smith = nerve.coboundary_smith_form(1)
    diagonal, u, _ = smith
    data = c.as_dict()
    sol_per_factor: list[list[int]] = []
    obstruction: list[int] = []
    presentation: list[int] = []
    solvable = True
    for idx, k in enumerate(group.factors):
        rhs = [data[s][idx] for s in faces]
        b = [sum(map(mul, row, rhs)) % k for row in u]  # U c mod k: the solve's and the obstruction's
        x = _solve_mod(smith, b, k)
        if x is not None:
            sol_per_factor.append(x)
            continue
        solvable = False
        for i, bi in enumerate(b):
            g = ex.gcd(diagonal[i] if i < len(diagonal) else 0, k)
            if g != 1:
                presentation.append(g)
                obstruction.append(bi % g)
    if solvable:
        xs = {
            e: group.reduce(tuple(sol[i] for sol in sol_per_factor))
            for i, e in enumerate(edges)
        }
        x = Cochain.from_dict(nerve, group, 1, xs)
        if not coboundary(x).sub(c).is_zero():
            raise DomainError("internal check failed: d(x) != c")
        return CoboundaryResult(solution=x, obstruction=None, presentation=())
    return CoboundaryResult(
        solution=None, obstruction=tuple(obstruction), presentation=tuple(presentation)
    )
