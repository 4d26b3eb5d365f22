"""JSON encoding and decoding for every value the CLI exchanges.

Rationals travel as ints or "p/q" strings so exact paths never see float
drift; vectors are JSON arrays of doubles or rational strings, and the exact
fast path is taken when every entry is rational.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Real
from typing import TYPE_CHECKING

from . import exactlin as ex
from .errors import DomainError
from .lattice import QuadLattice

# The float layers (llv, period, walls) and cech are imported by the decoders
# that construct their objects, so that exact subcommands never load numpy.
if TYPE_CHECKING:
    from . import cech as cech_mod
    from .lattice import WallForm
    from .llv import CohomologyRing
    from .period import OrientedTwoPlane, PeriodPoint, PositiveThreePlane, TwistorChain
    from .walls import WallSet


def encode_scalar(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, Integral):  # numpy integer scalars are registered as Integral
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Real):  # and numpy floating scalars as Real
        return float(x)
    raise DomainError(f"cannot encode scalar {x!r}")


def decode_scalar(v):
    if isinstance(v, bool):
        raise DomainError("boolean is not a scalar")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return ex.fr(v)
    if isinstance(v, float):
        return v
    raise DomainError(f"cannot decode scalar {v!r}")


def decode_int(v, what: str) -> int:
    """A JSON integer; bool, float and string are refused, never truncated."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"{what} must be an integer, got {v!r}")
    return v


def decode_vector(values) -> tuple[list, bool]:
    """Returns (entries, exact): exact when every entry is an int or 'p/q'."""
    if not isinstance(values, list):
        raise DomainError(f"a vector must be a JSON array, got {values!r}")
    out = [decode_scalar(v) for v in values]
    exact = all(not isinstance(x, float) for x in out)
    return out, exact


def decode_float_vector(values) -> list[float]:
    vec, _ = decode_vector(values)
    return [float(x) for x in vec]


def decode_exact_vector(values, what: str) -> list:
    vec, exact = decode_vector(values)
    if not exact:
        raise DomainError(f"{what} need rational coordinates")
    return vec


def encode_vector(values) -> list:
    return [encode_scalar(x) for x in values]


def encode_float_vector(values) -> list:
    return [float(x) for x in values]


# -- lattices ----------------------------------------------------------------


def encode_lattice(L: QuadLattice) -> dict:
    return {"rank": L.rank, "gram": [list(row) for row in L.gram]}


def decode_lattice(obj) -> QuadLattice:
    if isinstance(obj, str):
        from .lattice import standard_lattice

        return standard_lattice(obj)
    if "gram" not in obj:
        raise DomainError("lattice object needs a 'gram' field")
    gram = obj["gram"]
    if "rank" in obj and len(gram) != obj["rank"]:
        raise DomainError("rank does not match the gram matrix")
    return QuadLattice.from_rows(gram)


# -- period-domain values ------------------------------------------------------


def encode_period_point(z: PeriodPoint) -> dict:
    return {"re": encode_float_vector(z.re), "im": encode_float_vector(z.im)}


def decode_period_point(L: QuadLattice, obj, tol) -> PeriodPoint:
    from .period import period_point

    if "re" not in obj or "im" not in obj:
        raise DomainError("period point needs 're' and 'im' fields")
    return period_point(L, decode_float_vector(obj["re"]), decode_float_vector(obj["im"]), tol)


def encode_two_plane(p: OrientedTwoPlane) -> list:
    return [encode_float_vector(p.a), encode_float_vector(p.b)]


def encode_three_plane(p: PositiveThreePlane) -> dict:
    return {
        "frame": [encode_float_vector(row) for row in p.frame],
        "spin_positive": p.spin_positive,
    }


def encode_chain(chain: TwistorChain) -> list:
    return [
        {
            "plane": encode_three_plane(link.plane),
            "entry": encode_period_point(link.entry),
            "exit": encode_period_point(link.exit),
        }
        for link in chain.links
    ]


# -- walls ----------------------------------------------------------------------


def encode_wall(w: WallForm) -> dict:
    return {"coords": encode_vector(w.coords)}


def decode_wallset(L: QuadLattice, entries) -> WallSet:
    from .walls import WallSet

    coords = []
    for entry in entries:
        if isinstance(entry, dict):
            vec, _ = decode_vector(entry["coords"])
            sign = decode_int(entry.get("sign", 1), "wall sign")
            if sign not in (1, -1):
                raise DomainError("wall sign must be +1 or -1")
            coords.append([sign * x for x in vec])
        else:
            vec, _ = decode_vector(entry)
            coords.append(vec)
    return WallSet.from_coords(L, coords)


# -- rings -----------------------------------------------------------------------


def encode_ring(ring: CohomologyRing) -> dict:
    return {
        "m": ring.m,
        "degrees": list(ring.degrees),
        "structure_constants": [list(t) for t in ring.products],
        "integration": list(ring.integration),
        "lattice_block": {
            "indices": list(ring.lattice_indices),
            "gram": [list(row) for row in ring.lattice.gram],
        },
    }


def decode_ring(obj) -> CohomologyRing:
    from .llv import CohomologyRing, k3_ring

    if isinstance(obj, str):
        if obj.lower() == "k3":
            return k3_ring()
        raise DomainError(f"unknown ring alias {obj!r}")
    block = obj["lattice_block"]
    return CohomologyRing(
        m=decode_int(obj["m"], "ring m"),
        degrees=tuple(decode_int(d, "ring degree") for d in obj["degrees"]),
        products=tuple(
            tuple(decode_int(x, "structure constant") for x in t)
            for t in obj["structure_constants"]
        ),
        integration=tuple(decode_int(x, "integration value") for x in obj["integration"]),
        lattice_indices=tuple(decode_int(i, "lattice index") for i in block["indices"]),
        lattice=QuadLattice.from_rows(block["gram"]),
    )


# -- nerves, groups, cochains ------------------------------------------------------


def encode_nerve(n: cech_mod.Nerve) -> dict:
    return {
        "vertices": list(n.vertices),
        "simplices": sorted([list(s) for s in n.simplices], key=lambda s: (len(s), s)),
    }


def decode_nerve(obj) -> cech_mod.Nerve:
    from . import cech as cech_mod

    simplices = [tuple(s) for s in obj["simplices"]]
    vertices = obj.get("vertices")
    return cech_mod.Nerve.from_simplices(simplices, vertices=vertices)


def decode_group(obj) -> cech_mod.FiniteAbelianGroup:
    from . import cech as cech_mod

    return cech_mod.FiniteAbelianGroup(tuple(decode_int(k, "group factor") for k in obj["factors"]))


def _simplex_key(s) -> str:
    return ",".join(str(v) for v in s)


def _parse_simplex(key: str, sample_vertex) -> tuple:
    parts = key.split(",")
    if isinstance(sample_vertex, int):
        return tuple(int(p) for p in parts)
    return tuple(parts)


def encode_cochain(c: cech_mod.Cochain) -> dict:
    return {
        "degree": c.degree,
        "values": {_simplex_key(s): list(v) for s, v in c.values},
    }


def decode_cochain(
    nerve: cech_mod.Nerve, group: cech_mod.FiniteAbelianGroup, obj
) -> cech_mod.Cochain:
    from . import cech as cech_mod

    degree = decode_int(obj["degree"], "cochain degree")
    sample = nerve.vertices[0] if nerve.vertices else 0
    data = {
        _parse_simplex(key, sample): tuple(decode_int(x, "cochain value") for x in val)
        for key, val in obj.get("values", {}).items()
    }
    return cech_mod.Cochain.from_dict(nerve, group, degree, data)
