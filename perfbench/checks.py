"""Reference checks for every job the benchmark times.

Each check compares a job's output with a reference that does not come from
the code being timed: committed golden bytes, committed brute-force wall
sets, cohomology known from topology, numpy's eigvalsh, a cochain
coboundary written here, and invariants (dimensions, weights, the Fujiki
constant of K3) known from the mathematics. A check returns a short
canonical text of what it verified, for the run digest, and raises
``CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """A job returned a wrong answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fmt(x: float) -> str:
    return f"{x:.6e}"


# -- cli-golden ---------------------------------------------------------------------


def cli_output(out, golden: bytes, expected_code: int) -> str:
    code, stdout = out
    require(code == expected_code, f"exit code {code}, expected {expected_code}")
    require(stdout == golden, "stdout differs from the golden bytes")
    return f"exit={code} bytes={len(stdout)}"


# -- k3-llv -------------------------------------------------------------------------


def closure(out, dimension: int, by_degree: dict, residual: float = 1e-8) -> str:
    require(out.dimension == dimension, f"closure dimension {out.dimension}, expected {dimension}")
    require(dict(out.by_degree) == by_degree, f"closure degrees {out.by_degree}, expected {by_degree}")
    require(out.residual < residual, f"closure residual {out.residual:.3e}")
    return f"dim={out.dimension} {sorted(out.by_degree.items())}"


def sl2(out) -> str:
    worst = max(out.values())
    require(worst < 1e-9, f"sl2 residual {worst:.3e}")
    return "sl2<1e-9"


def hodge(out, gram, sigma) -> str:
    g = np.asarray(gram, dtype=float)
    require(out.dims == (1, len(g) - 2, 1), f"Hodge dims {out.dims}")
    require(out.inertia_h11 == (1, len(g) - 3), f"H11 inertia {out.inertia_h11}")
    require(np.allclose(out.h20, sigma) and np.allclose(out.h02, np.conj(sigma)), "H20/H02 lines")
    require(float(np.real(sigma @ g @ np.conj(sigma))) > 0, "h_q not positive on sigma")
    cross = np.abs(out.h11 @ g @ np.vstack([sigma, np.conj(sigma)]).T)
    require(float(cross.max()) < 1e-8, "H11 not h_q-orthogonal to sigma")
    return f"dims={out.dims}"


def fujiki(out) -> str:
    # q(a) = integral(a^2) on K3, so the Fujiki constant is exactly 1.
    require(out == 1, f"Fujiki constant {out}, expected 1")
    return "c=1"


def weights(spectrum) -> str:
    """Weight pattern on H^2 of K3: -2i and +2i once, 0 on H^{1,1}."""
    imag = sorted(v.imag for v in spectrum)
    require(all(abs(v.real) < 1e-8 for v in spectrum), "weight spectrum not imaginary")
    require(abs(imag[0] + 2) < 1e-8 and abs(imag[-1] - 2) < 1e-8, "weights +-2i missing")
    require(all(abs(v) < 1e-8 for v in imag[1:-1]), "nonzero weight on H11")
    return f"weights n={len(imag)}"


# -- period-chains ------------------------------------------------------------------


def period_point(z, g) -> None:
    sigma = z.re + 1j * z.im
    require(abs(complex(sigma @ g @ sigma)) < 1e-8, "sampled point is not isotropic")
    require(float(np.real(sigma @ g @ np.conj(sigma))) > 0, "sampled point is not positive")


def in_span(frame: np.ndarray, rows: np.ndarray) -> bool:
    """Rows lie in the row span of frame (Euclidean projection test); for two
    2-frames this is equality of the planes."""
    q, _ = np.linalg.qr(frame.T)
    return float(np.abs(rows.T - q @ (q.T @ rows.T)).max()) < 1e-6


def chain(out, gram) -> str:
    z1, z2, links, rejected = out
    require(rejected is None, f"verify_chain rejects the chain: {rejected}")
    g = np.asarray(gram, dtype=float)
    period_point(z1, g)
    period_point(z2, g)
    require(len(links) >= 1 or in_span(z1.plane_frame(), z2.plane_frame()), "empty chain")
    prev = z1.plane_frame()
    for link in links:
        frame = link.plane.frame
        require(np.linalg.eigvalsh(frame @ g @ frame.T)[0] > 0, "link plane is not positive")
        for end in (link.entry, link.exit):
            require(in_span(frame, end.plane_frame()), "link end is off its plane")
        require(in_span(prev, link.entry.plane_frame()), "links do not meet")
        prev = link.exit.plane_frame()
    require(in_span(prev, z2.plane_frame()), "chain does not end at the target")
    return f"links={len(links)} frame={fmt(float(np.abs(links[-1].plane.frame).sum()))}" if links else "links=0"


# -- lattice-search -----------------------------------------------------------------


def walls(out, ref: dict, digest) -> str:
    coords = [list(w.coords) for w in out]
    require(len(coords) == ref["count"], f"{len(coords)} walls, reference has {ref['count']}")
    require(digest(coords) == ref["sha256"], "wall set differs from the brute-force reference")
    return f"walls={len(coords)}"


def signature(out, form) -> str:
    evals = np.linalg.eigvalsh(np.asarray(form, dtype=float))
    expected = (int((evals > 0).sum()), int((evals < 0).sum()))
    require(tuple(out) == expected, f"signature {out}, eigvalsh gives {expected}")
    return f"sig={expected}"


def spinor(out, gram, vectors) -> str:
    expected = 1
    for v in vectors:
        qv = sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
        expected *= 1 if -qv > 0 else -1
    require(out == expected, f"spinor sign {out}, reflections give {expected}")
    return f"spinor={expected}"


def cohomology(out, expected) -> str:
    require(tuple(out) == tuple(expected), f"cohomology {out}, topology gives {expected}")
    return f"H={tuple(expected)}"


def coboundary(triangles, x: dict, k: int) -> dict:
    """(dx)(a<b<c) = x(bc) - x(ac) + x(ab) mod k, written independently of hkgeom."""
    out = {}
    for a, b, c in triangles:
        out[(a, b, c)] = (x[(b, c)] - x[(a, c)] + x[(a, b)]) % k
    return out


def coboundary_solution(out, triangles, c: dict, k: int, solvable: bool) -> str:
    require(out.solved == solvable, f"solved={out.solved}, topology says {solvable}")
    if solvable:
        x = {e: int(v[0]) for e, v in out.solution.as_dict().items()}
        require(coboundary(triangles, x, k) == c, "d(solution) != c on replay")
        return "solved"
    require(any(out.obstruction), f"zero obstruction {out.obstruction} for an unsolvable cocycle")
    if k == 2:
        require(tuple(out.obstruction) == (1,), f"Z/2 obstruction {out.obstruction}")
    return f"obstruction={tuple(out.obstruction)}"


def relation(out, delta) -> str:
    found = []
    for r in out.relations:
        g = int(np.gcd.reduce(np.abs(np.array(r, dtype=np.int64))))
        found.append([x // g for x in r])
    neg = [-x for x in delta]
    require(any(r == delta or r == neg for r in found), f"planted relation {delta} not recovered")
    return f"delta={delta}"


def picard_witness(verdict, v, z, gram) -> str:
    """A period plane made orthogonal to the root v has v in its Picard lattice:
    the search must return a nonzero multiple of v, orthogonal to the plane."""
    require(not verdict.trivial_up_to_height, f"Picard reported trivial; planted class {v}")
    w = np.array(verdict.witness, dtype=np.int64)
    vv = np.array(v, dtype=np.int64)
    k = int(next(x for x in w if x)) // int(next(x for x in vv if x))
    require(k != 0 and np.array_equal(w, k * vv), f"witness {tuple(w)} is not a multiple of {v}")
    g = np.asarray(gram, dtype=float)
    require(abs(float(w @ g @ z.re)) < 1e-8 and abs(float(w @ g @ z.im)) < 1e-8,
            "witness is not orthogonal to the period plane")
    return f"picard={k}*{v}"


def irrational_line(ell, z, gram) -> str:
    g = np.asarray(gram, dtype=float)
    require(abs(float(ell @ g @ ell) - 1.0) < 1e-9, "line is not q-unit")
    require(abs(float(ell @ g @ z.re)) < 1e-8 and abs(float(ell @ g @ z.im)) < 1e-8,
            "line is not orthogonal to the period plane")
    return f"line={fmt(float(ell[0]))}"
