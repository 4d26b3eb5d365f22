"""Cech cochains of a finite nerve with coefficients in a finite abelian group.

Supports degrees 0..2 (with degree-3 coboundary values used internally for
the cocycle test), coboundaries, cocycle checks, coboundary solving by Smith
normal form over the integers per invariant factor, and the cohomology
oracle backing the solver.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
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
        """Smith form U A V = S of A = ``coboundary_matrix(d)``: (diagonal of S, U, V, V^-1), as tuples.

        V and V^-1 are n x n for the n d-simplices, also when A has no rows.
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
                vinv = ex.unimodular_inverse(v)
            else:
                s, u = [], []
                v = vinv = [[int(i == j) for j in range(n)] for i in range(n)]
            diagonal = tuple(s[i][i] for i in range(min(len(a), n)))
            forms[d] = (diagonal, *(tuple(map(tuple, m)) for m in (u, v, vinv)))
        return forms[d]

    def cohomology_presentation(self, degree: int, k: int) -> tuple | None:
        """H^degree(nerve; Z/k) presentation (V^-1, scales, U_R, factors), as tuples.

        None when the nerve has no degree-simplices (the trivial group).
        The columns of K = V diag(scales) generate the mod-k cocycle lattice
        X = {x : A x = 0 mod k} inside Z^n, for the SNF U A V = S of
        A = ``coboundary_matrix(degree)`` (``coboundary_smith_form``, shared by
        every k) and scales_i = k / gcd(s_i, k). V is unimodular, so
        K-coordinates K^-1 c = diag(1/scales) V^-1 c need only the integer
        inverse V^-1 and one exact division per entry (``_k_coords``); no
        rational arithmetic enters.
        R expresses im(B) + k Z^n in K-coordinates, for B =
        ``coboundary_matrix(degree - 1)``; the invariant factors of Z^n / R Z
        give the group, with coordinates read off through the SNF row
        transform U_R of R. R depends only on (degree, k), so the presentation
        is computed on first use for each pair and kept with the nerve.
        """
        presentations = self._presentations
        if (degree, k) not in presentations:
            n = len(self.simplices_of_dim(degree))
            presentation = None
            if n:
                diagonal, _, _, vinv = self.coboundary_smith_form(degree)
                # past the diagonal s_i = 0: free directions, scale k / gcd(0, k) = 1
                scales = [k // ex.gcd(diagonal[i] if i < len(diagonal) else 0, k) for i in range(n)]
                # relations: columns of B (none in degree 0) and k*I, in K-coordinates
                rel_cols = [list(col) for col in zip(*self.coboundary_matrix(degree - 1))] if degree else []
                rel_cols += [[k * int(i == j) for i in range(n)] for j in range(n)]
                r_mat = ex.transpose([_k_coords(vinv, scales, col) for col in rel_cols])
                s_r, u_r, _ = ex.smith_normal_form(r_mat)
                factors = tuple(s_r[i][i] for i in range(n))
                presentation = (vinv, tuple(scales), tuple(map(tuple, u_r)), factors)
            presentations[degree, k] = presentation
        return presentations[degree, k]

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

    @cached_property
    def _presentations(self) -> dict[tuple[int, int], tuple | None]:
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
        if any(k < 1 for k in self.factors):
            raise DomainError("cyclic factors must be >= 1")

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
        return tuple(int(x) % k for x, k in zip(element, self.factors))

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


def _solve_mod(smith: tuple, rhs: list[int], k: int) -> list[int] | None:
    """One solution of A x = rhs (mod k) for the Smith form (diagonal, U, V, V^-1) of A, or None."""
    diagonal, u, v, _ = smith
    y = [0] * len(v)
    for i, row in enumerate(u):
        si = diagonal[i] if i < len(diagonal) else 0
        bi = sum(map(mul, row, rhs)) % k
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


def _k_coords(vinv: list[list[int]], scales: list[int], c: list[int]) -> list[int]:
    """K^-1 c for K = V diag(scales): diag(1/scales) V^-1 c, divided exactly."""
    out = []
    for row, scale in zip(vinv, scales):
        q, r = divmod(sum(map(mul, row, c)), scale)
        if r:
            raise InternalInconsistencyError("vector is not in the mod-k cocycle lattice")
        out.append(q)
    return out


def _cohomology_data(nerve: Nerve, k: int, degree: int):
    """``nerve.cohomology_presentation(degree, k)`` with fresh lists for scales, the rows of U_R and factors."""
    data = nerve.cohomology_presentation(degree, k)
    if data is None:
        return None
    vinv, scales, u_r, factors = data
    return vinv, list(scales), [list(row) for row in u_r], list(factors)


def cohomology(nerve: Nerve, group: FiniteAbelianGroup, degree: int) -> tuple[int, ...]:
    """Invariant factors of H^degree(nerve; group), canonicalized.

    The coefficient group splits as a product of cyclic groups and cohomology
    distributes over the product; the combined cyclic orders are recombined
    into an invariant-factor chain.
    """
    if degree not in (0, 1, 2):
        raise DomainError("degree must be 0, 1 or 2")
    orders: list[int] = []
    for k in group.factors:
        if k == 1:
            continue
        data = _cohomology_data(nerve, k, degree)
        if data is None:
            continue
        _, _, _, factors = data
        orders.extend(f for f in factors if f != 1)
    if any(f == 0 for f in orders):
        raise DomainError("cohomology of a finite group must be finite")
    return tuple(ex.invariant_factors(orders))


@dataclasses.dataclass(frozen=True)
class CoboundaryResult:
    """Outcome of solve_coboundary: a solution or an obstruction class."""

    solution: Cochain | None
    obstruction: tuple[int, ...] | None
    presentation: tuple[int, ...]  # cyclic orders the obstruction coordinates live in

    @property
    def solved(self) -> bool:
        return self.solution is not None


def solve_coboundary(c: Cochain) -> CoboundaryResult:
    """Solve d(x) = c for a degree-2 cocycle c, per invariant factor.

    Success returns x with d(x) = c exactly. Failure returns the class of c
    in H^2 as residue coordinates in the per-factor presentation reported in
    ``presentation``.
    """
    if c.degree != 2:
        raise DomainError("solve_coboundary expects a degree-2 cochain")
    if not is_cocycle(c):
        raise DomainError("input is not a cocycle")
    nerve, group = c.nerve, c.group
    edges = nerve.simplices_of_dim(1)
    faces = nerve.simplices_of_dim(2)
    smith = nerve.coboundary_smith_form(1)
    data = c.as_dict()
    sol_per_factor: list[list[int]] = []
    obstruction: list[int] = []
    presentation: list[int] = []
    solvable = True
    for idx, k in enumerate(group.factors):
        rhs = [data[s][idx] for s in faces]
        if k == 1:
            sol_per_factor.append([0] * len(edges))
            continue
        x = _solve_mod(smith, rhs, k)
        if x is not None:
            sol_per_factor.append(x)
            continue
        solvable = False
        sol_per_factor.append([0] * len(edges))
        vinv, scales, u_r, factors = _cohomology_data(nerve, k, 2)
        y = _k_coords(vinv, scales, rhs)
        coords = [sum(u_r[i][j] * y[j] for j in range(len(y))) for i in range(len(y))]
        for f, co in zip(factors, coords):
            if f != 1:
                presentation.append(f)
                obstruction.append(co % f if f else co)
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
