"""JSON encoding and decoding for every value the CLI exchanges.

Rationals travel as ints or "p/q" strings so exact paths never see float
drift; vectors are JSON arrays of doubles or rational strings, and the exact
fast path is taken when every entry is rational.
"""

from __future__ import annotations

import math
import sys
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


class Payload(dict):
    """A decoded JSON object: reading a field it lacks is a DomainError that names the field."""

    def __missing__(self, key):
        raise DomainError(f"missing field {key!r}")


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def expect(obj, kind, what: str):
    """obj if it is of the JSON kind (dict, list, str or a union of them), else a DomainError."""
    if not isinstance(obj, kind):
        names = " or ".join(_JSON_NAMES[t] for t in getattr(kind, "__args__", (kind,)))
        raise DomainError(f"{what} must be a JSON {names}, got {obj!r:.60}")
    return obj


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
    """An int, a finite float, or a 'p/q' string as a Fraction; booleans and the rest are refused."""
    if isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and math.isfinite(v):
        return v
    if isinstance(v, str):
        return ex.fr(v)
    raise DomainError(f"a scalar must be a finite number or a 'p/q' string, got {v!r:.60}")


def decode_int(v, what: str) -> int:
    """A JSON integer, by the library's integer rule: bool, float and string are refused, never truncated."""
    return ex.integer(v, what, None)


def decode_ints(values, what: str) -> tuple[int, ...]:
    return tuple(decode_int(v, what) for v in expect(values, list, what))


def decode_vector(values) -> tuple[list, bool]:
    """Returns (entries, exact): exact when every entry is an int or 'p/q'."""
    out = [decode_scalar(v) for v in expect(values, list, "a vector")]
    exact = all(not isinstance(x, float) for x in out)
    return out, exact


def decode_float(v) -> float:
    x = decode_scalar(v)
    if abs(x) > sys.float_info.max:
        raise DomainError(f"{v!r:.60} is past the float range")
    return float(x)


def decode_float_vector(values) -> list[float]:
    return [decode_float(v) for v in expect(values, list, "a vector")]


def decode_float_rows(rows, what: str) -> list[list[float]]:
    """A JSON array of float vectors; their lengths are the library's to check."""
    return [decode_float_vector(row) for row in expect(rows, list, what)]


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


def decode_gram(rows) -> QuadLattice:
    """A lattice from gram rows of JSON integers or integral 'p/q' strings."""
    rows = [expect(row, list, "a gram row") for row in expect(rows, list, "gram")]
    return QuadLattice.from_rows([[decode_scalar(x) for x in row] for row in rows])


def decode_lattice(obj) -> QuadLattice:
    if isinstance(expect(obj, str | dict, "lattice"), str):
        from .lattice import standard_lattice

        return standard_lattice(obj)
    L = decode_gram(obj["gram"])
    if "rank" in obj and obj["rank"] != L.rank:
        raise DomainError("rank does not match the gram matrix")
    return L


# -- period-domain values ------------------------------------------------------


def encode_period_point(z: PeriodPoint) -> dict:
    return {"re": encode_float_vector(z.re), "im": encode_float_vector(z.im)}


def decode_period_point(L: QuadLattice, obj, tol) -> PeriodPoint:
    from .period import period_point

    expect(obj, dict, "a period point")
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
    for entry in expect(entries, list, "walls"):
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

    if isinstance(expect(obj, str | dict, "ring"), str):
        if obj.lower() == "k3":
            return k3_ring()
        raise DomainError(f"unknown ring alias {obj!r}")
    block = expect(obj["lattice_block"], dict, "lattice_block")
    return CohomologyRing(
        m=decode_int(obj["m"], "ring m"),
        degrees=decode_ints(obj["degrees"], "ring degrees"),
        products=tuple(
            decode_ints(t, "a structure constant")
            for t in expect(obj["structure_constants"], list, "structure_constants")
        ),
        integration=decode_ints(obj["integration"], "integration values"),
        lattice_indices=decode_ints(block["indices"], "lattice indices"),
        lattice=decode_gram(block["gram"]),
    )


# -- nerves, groups, cochains ------------------------------------------------------


def encode_nerve(n: cech_mod.Nerve) -> dict:
    return {
        "vertices": list(n.vertices),
        "simplices": sorted([list(s) for s in n.simplices], key=lambda s: (len(s), s)),
    }


def decode_nerve(obj) -> cech_mod.Nerve:
    from . import cech as cech_mod

    simplices = expect(expect(obj, dict, "nerve")["simplices"], list, "simplices")
    simplices = [tuple(expect(s, list, "a simplex")) for s in simplices]
    vertices = obj.get("vertices")
    labels = [v for s in simplices for v in s]
    if vertices is not None:
        labels += expect(vertices, list, "vertices")
    if not (all(type(v) is int for v in labels) or all(type(v) is str for v in labels)):
        raise DomainError("nerve vertices must be all integers or all strings")
    return cech_mod.Nerve.from_simplices(simplices, vertices=vertices)


def decode_group(obj) -> cech_mod.FiniteAbelianGroup:
    from . import cech as cech_mod

    factors = expect(obj, dict, "group")["factors"]
    return cech_mod.FiniteAbelianGroup(decode_ints(factors, "group factors"))


def _simplex_key(s) -> str:
    return ",".join(str(v) for v in s)


def encode_cochain(c: cech_mod.Cochain) -> dict:
    return {
        "degree": c.degree,
        "values": {_simplex_key(s): list(v) for s, v in c.values},
    }


def decode_cochain(
    nerve: cech_mod.Nerve, group: cech_mod.FiniteAbelianGroup, obj
) -> cech_mod.Cochain:
    from . import cech as cech_mod

    degree = decode_int(expect(obj, dict, "cochain")["degree"], "cochain degree")
    simplices = {_simplex_key(s): s for s in nerve.simplices}
    data = {}
    for key, val in expect(obj.get("values", {}), dict, "cochain values").items():
        if key not in simplices:
            raise DomainError(f"cochain value on {key!r}, which names no simplex of the nerve")
        data[simplices[key]] = decode_ints(val, "a cochain value")
    return cech_mod.Cochain.from_dict(nerve, group, degree, data)
