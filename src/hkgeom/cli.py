"""Command-line surface: every module exposed with JSON in, JSON out.

Each subcommand reads a JSON payload (file or stdin), computes, and writes a
single JSON object {"ok": bool, "result": ..., "diagnostics": ...} to stdout.
Exit codes: 0 success, 1 domain/validation error, 2 numerical failure,
3 usage error. Output is byte-identical for identical input and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import serialize as ser
from .config import DEFAULT_TOL, TOL_NAMES, RunConfig
from .errors import DomainError, HkgeomError, NumericalError

# Each handler imports the library module it calls, so that a subcommand
# loads only its own layers: the exact ones never import numpy.
if TYPE_CHECKING:
    from .lattice import QuadLattice

CONFIG_ENV = "HKGEOM_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting; a flag must be spelt in full, never abbreviated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _load_config(args) -> RunConfig:
    """The leaf's settings: its config file (--config, else HKGEOM_CONFIG), then its flags.

    A leaf without --config takes no setting, and reads neither.
    """
    if "config" not in args:
        return RunConfig()
    flags = vars(args)
    tol = DEFAULT_TOL
    seed = None
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as err:  # ValueError: malformed JSON or text
            raise DomainError(f"cannot read config {path}: {err}") from err
        if not isinstance(data, dict) or not set(data) <= {"tolerances", "seed"}:
            raise DomainError("config must be a JSON object with keys 'tolerances', 'seed' only")
        overrides = data.get("tolerances", {})
        if not isinstance(overrides, dict) or not set(overrides) <= set(TOL_NAMES):
            raise DomainError(f"config 'tolerances' may only set {', '.join(TOL_NAMES)}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in overrides.values()):
            raise DomainError("config tolerances must be JSON numbers")
        tol = tol.replace(**{k: float(v) for k, v in overrides.items()})
        seed = data.get("seed", seed)
    for name in TOL_NAMES:
        if flags.get(f"tol_{name}") is not None:
            tol = tol.replace(**{name: flags[f"tol_{name}"]})
    if flags.get("seed") is not None:
        seed = flags["seed"]
    return RunConfig(tol=tol, seed=seed)


def _read_payload(args) -> dict:
    """The payload object, blank input as {}; every JSON object in it is a ``ser.Payload``."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        payload = json.loads(text.strip() or "{}", object_hook=ser.Payload)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: malformed JSON or text
        raise DomainError(f"cannot read the payload: {err}") from err
    return ser.expect(payload, dict, "the payload")


def _payload_lattice(payload) -> QuadLattice:
    return ser.decode_lattice(payload.get("lattice", payload))


# -- handlers -------------------------------------------------------------------


def _h_lattice_signature(payload, args, cfg):
    L = _payload_lattice(payload)
    p, m = L.signature
    return [p, m], {"rank": L.rank, "det": L.det}


def _h_lattice_dual(payload, args, cfg):
    from . import lattice as lat

    L = _payload_lattice(payload)
    coords = ser.decode_exact_vector(payload["coords"], "dual values")
    return {"value": ser.encode_scalar(lat.dual_value(L, coords))}, {}


def _h_lattice_negative(payload, args, cfg):
    from . import lattice as lat

    L = _payload_lattice(payload)
    coords = ser.decode_exact_vector(payload["coords"], "negativity tests")
    value = lat.dual_value(L, coords)
    return {
        "negative": value < 0,  # is_negative_form's criterion, on the value reported
        "dual_value": ser.encode_scalar(value),
        "kernel_signature": list(lat.kernel_signature(L, coords)),  # refuses the zero functional
    }, {}


def _h_lattice_spinor(payload, args, cfg):
    from . import lattice as lat

    L = _payload_lattice(payload)
    rows = [ser.decode_vector(row)[0] for row in ser.expect(payload["matrix"], list, "matrix")]
    sign = lat.spinor_norm_sign(L, rows)
    return {"sign": sign, "in_o_sharp": sign == 1}, {}


def _h_period_validate(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    return {
        "point": ser.encode_period_point(z),
        "q_re": per.qform(L, z.re),
        "q_im": per.qform(L, z.im),
        "pairing": per.bform(L, z.re, z.im),
    }, {}


def _h_period_convert(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    if "point" in payload:
        z = ser.decode_period_point(L, payload["point"], cfg.tol)
        plane = per.point_to_plane(z)
        return {"plane": ser.encode_two_plane(plane)}, {}
    if "plane" in payload:
        rows = ser.decode_float_rows(payload["plane"], "plane")
        if len(rows) != 2:
            raise DomainError("a 2-plane needs exactly two spanning vectors")
        plane = per.oriented_two_plane(L, rows[0], rows[1], cfg.tol)
        z = per.plane_to_point(plane, cfg.tol)
        return {"point": ser.encode_period_point(z)}, {}
    raise DomainError("convert needs a 'point' or a 'plane' field")


def _h_period_cone(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    vec = ser.decode_float_vector(payload["vector"])
    return {"contains": per.positive_cone_contains(z, vec, cfg.tol)}, {}


def _h_period_sample(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    if cfg.seed is None:
        raise DomainError("sampling commands require an explicit --seed")
    seed = cfg.seed
    z = per.sample_period_point(L, seed, cfg.tol)
    result = {"point": ser.encode_period_point(z)}
    if args.line:
        ell = per.sample_irrational_line(
            z, height=args.height, relation_tol=args.tol_relation, seed=seed, tol=cfg.tol
        )
        result["line"] = ser.encode_float_vector(ell)
    return result, {"seed": seed}


def _h_twistor_plane(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    plane = per.twistor_plane(z, ser.decode_float_vector(payload["line"]), cfg.tol)
    return {"plane": ser.encode_three_plane(plane)}, {}


def _h_twistor_point(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    span = ser.decode_float_rows(payload["plane"], "plane")
    plane = per.orient_three_plane(L, span, cfg.tol)
    z = per.conic_point(plane, ser.decode_float_vector(payload["direction"]), cfg.tol)
    return {"point": ser.encode_period_point(z)}, {}


def _h_twistor_chain(payload, args, cfg):
    from . import period as per

    L = _payload_lattice(payload)
    source = ser.decode_period_point(L, payload["source"], cfg.tol)
    target = ser.decode_period_point(L, payload["target"], cfg.tol)
    chain = per.chain_connect(source, target, tol=cfg.tol)
    per.verify_chain(chain, source, target, cfg.tol)
    return {"links": ser.encode_chain(chain), "count": len(chain)}, {}


def _h_irrational_closure(payload, args, cfg):
    from . import irrational as irr

    vectors = ser.expect(payload["vectors"], list, "vectors")
    mode = payload.get("mode", "exact")
    if mode == "exact":
        decoded = [ser.decode_exact_vector(row, "exact mode vectors") for row in vectors]
        report = irr.rational_closure_exact(decoded)
    elif mode == "detect":
        rows = ser.decode_float_rows(vectors, "vectors")
        report = irr.rational_closure_detect(rows, height=args.height, tol=args.tol_relation)
    else:
        raise DomainError(f"mode must be 'exact' or 'detect', got {mode!r}")
    return {
        "mode": report.mode,
        "ambient_dim": report.ambient_dim,
        "span_dim": report.span_dim,
        "closure_dim": report.closure_dim,
        "relations": [ser.encode_vector(r) for r in report.relations],
    }, {}


def _h_irrational_test(payload, args, cfg):
    from . import irrational as irr

    rows = ser.decode_float_rows(payload["vectors"], "vectors")
    verdict = irr.is_fully_irrational(rows, height=args.height, tol=args.tol_relation)
    return {
        "fully_irrational": verdict.fully_irrational,
        "deterministic": verdict.deterministic,
        "witness": ser.encode_vector(verdict.witness) if verdict.witness else None,
    }, {"height": args.height, "tol": args.tol_relation}


def _h_irrational_picard(payload, args, cfg):
    from . import irrational as irr

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    verdict = irr.picard_trivial(z, height=args.height, tol=args.tol_relation)
    return {
        "trivial_up_to_height": verdict.trivial_up_to_height,
        "witness": list(verdict.witness) if verdict.witness else None,
        "method": verdict.method,
    }, {"height": args.height, "tol": args.tol_relation}


def _h_walls_enum(payload, args, cfg):
    from . import walls as wl

    L = _payload_lattice(payload)
    span = [ser.decode_vector(row)[0] for row in ser.expect(payload["span"], list, "span")]
    d = ser.decode_int(payload.get("square", -2), "wall square")
    radius = ser.decode_scalar(payload.get("radius", 2))
    if isinstance(radius, float):
        raise DomainError("radius must be an int or a 'p/q' string")
    walls = wl.enumerate_walls_near(L, span, d, radius)
    mj = wl.majorant(L, span)
    return {
        "walls": [ser.encode_wall(w) for w in walls],
        "count": len(walls),
        "square": d,
        "radius": ser.encode_scalar(radius),
        "majorant_gram": [ser.encode_vector(row) for row in mj.matrix],
    }, {}


def _h_walls_avoid(payload, args, cfg):
    from . import period as per
    from . import walls as wl

    L = _payload_lattice(payload)
    span = ser.decode_float_rows(payload["span"], "span")
    plane = per.orient_three_plane(L, span, cfg.tol)
    walls = ser.decode_wallset(L, payload["walls"])
    report = wl.wall_avoidance(plane, walls, cfg.tol)
    return {
        "avoided": report.avoided,
        "min_restriction_norm": report.min_restriction_norm
        if report.nearest is not None
        else None,
        "nearest": ser.encode_wall(report.nearest) if report.nearest else None,
    }, {}


def _h_walls_chamber(payload, args, cfg):
    from . import walls as wl

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    walls = ser.decode_wallset(L, payload["walls"])
    vec = ser.decode_float_vector(payload["vector"])
    contains = wl.kahler_chamber_contains(z, walls, vec, cfg.tol)
    relevant = wl.relevant_walls(z, walls, cfg.tol)
    return {
        "contains": contains,
        "relevant_walls": [ser.encode_wall(w) for w in relevant],
    }, {}


def _h_walls_ueps(payload, args, cfg):
    from . import walls as wl

    L = _payload_lattice(payload)
    span = ser.decode_float_rows(payload["span"], "span")
    vec = ser.decode_float_vector(payload["vector"])
    eps = ser.decode_float(payload.get("eps", 0.5))
    return {"contains": wl.in_u_eps(L, span, vec, eps), "eps": eps}, {}


def _h_llv_e(payload, args, cfg):
    from . import llv

    ring = ser.decode_ring(payload["ring"])
    op = llv.lefschetz_e(ring, ser.decode_float_vector(payload["eta"]))
    return {"matrix": [ser.encode_float_vector(r) for r in op.matrix], "degree": 2}, {}


def _h_llv_f(payload, args, cfg):
    from . import llv

    ring = ser.decode_ring(payload["ring"])
    eta = ser.decode_float_vector(payload["eta"])
    e, h, f = llv.sl2_triple(ring, eta)
    res = llv.bracket_residuals(e, h, f)
    return {
        "matrix": [ser.encode_float_vector(r) for r in f.matrix],
        "degree": -2,
        "bracket_residual": max(res.values()),
    }, {}


def _h_llv_closure(payload, args, cfg):
    from . import llv
    from . import period as per

    ring = ser.decode_ring(payload["ring"])
    full = payload.get("full", False)
    if not isinstance(full, bool):
        raise DomainError(f"full must be true or false, got {full!r}")
    if full:
        closure = llv.full_llv_closure(ring, cfg.tol)
    else:
        span = ser.decode_float_rows(payload["span"], "span")
        plane = per.orient_three_plane(ring.lattice, span, cfg.tol)
        closure = llv.so5_closure(ring, plane, cfg.tol)
    return {
        "dimension": closure.dimension,
        "by_degree": {str(d): n for d, n in closure.by_degree.items()},
        "residual": closure.residual,
    }, {"tau_lie": cfg.tol.lie}


def _h_llv_fujiki(payload, args, cfg):
    from . import llv

    ring = ser.decode_ring(payload["ring"])
    c = llv.fujiki_constant(ring, seed=cfg.seed or 0)
    return {"constant": ser.encode_scalar(c)}, {"seed": cfg.seed or 0}


def _h_llv_hodge(payload, args, cfg):
    from . import llv

    L = _payload_lattice(payload)
    z = ser.decode_period_point(L, payload["point"], cfg.tol)
    dec = llv.hodge_decompose(L, z)
    return {
        "dims": list(dec.dims),
        "inertia_h11": list(dec.inertia_h11),
    }, {}


def _h_llv_deligne(payload, args, cfg):
    from . import llv
    from . import period as per

    ring = ser.decode_ring(payload["ring"])
    span = ser.decode_float_rows(payload["span"], "span")
    plane = per.orient_three_plane(ring.lattice, span, cfg.tol)
    closure = llv.so5_closure(ring, plane, cfg.tol)
    z = ser.decode_period_point(ring.lattice, payload["point"], cfg.tol)
    x = llv.deligne_generator(closure, z, cfg.tol)
    spec = llv.weight_spectrum(ring, x)
    deg2 = sorted(round(v.imag, 9) for v in spec[2])
    return {
        "weights_im_degree2": deg2,
        "max_real_part": max(abs(v.real) for vals in spec.values() for v in vals)
        if spec
        else 0.0,
    }, {}


def _h_cech_d(payload, args, cfg):
    from . import cech as cech_mod

    nerve = ser.decode_nerve(payload["nerve"])
    group = ser.decode_group(payload["group"])
    c = ser.decode_cochain(nerve, group, payload["cochain"])
    return {"cochain": ser.encode_cochain(cech_mod.coboundary(c))}, {}


def _h_cech_cocycle(payload, args, cfg):
    from . import cech as cech_mod

    nerve = ser.decode_nerve(payload["nerve"])
    group = ser.decode_group(payload["group"])
    c = ser.decode_cochain(nerve, group, payload["cochain"])
    return {"is_cocycle": cech_mod.is_cocycle(c)}, {}


def _h_cech_solve(payload, args, cfg):
    from . import cech as cech_mod

    nerve = ser.decode_nerve(payload["nerve"])
    group = ser.decode_group(payload["group"])
    c = ser.decode_cochain(nerve, group, payload["cochain"])
    res = cech_mod.solve_coboundary(c)
    if res.solved:
        return {"solution": ser.encode_cochain(res.solution)}, {}
    raise _Obstructed(res)


class _Obstructed(Exception):
    def __init__(self, result):
        self.result = result


def _h_cech_cohomology(payload, args, cfg):
    from . import cech as cech_mod

    nerve = ser.decode_nerve(payload["nerve"])
    group = ser.decode_group(payload["group"])
    degree = ser.decode_int(payload.get("degree", 0), "cohomology degree")
    factors = cech_mod.cohomology(nerve, group, degree)
    return {"degree": degree, "factors": list(factors)}, {}


# The settings a leaf reads, as flags. A leaf whose handler reads cfg.tol takes
# --config and every --tol-* flag; one that reads cfg.seed takes --seed and
# --config; any other takes neither, and reads no config file.
_SEED = ("--seed", {"type": int, "default": None})
_CONFIG = ("--config", {"default": None, "help": "config JSON path"})
_TOL = (
    _CONFIG,
    *((f"--tol-{name}", {"dest": f"tol_{name}", "type": float, "default": None}) for name in TOL_NAMES),
)
# Relation searches read these two.
_SEARCH_FLAGS = (
    ("--height", {"type": int, "default": 100, "help": "height bound for relation searches"}),
    (
        "--tol-relation",
        {"type": float, "default": 1e-9, "help": "vanishing tolerance for relation searches"},
    ),
)

# group -> op -> (handler, the flags it takes besides -i): the one table of the CLI.
LEAVES = {
    "lattice": {
        "signature": (_h_lattice_signature, ()),
        "dual": (_h_lattice_dual, ()),
        "negative": (_h_lattice_negative, ()),
        "spinor": (_h_lattice_spinor, ()),
    },
    "period": {
        "validate": (_h_period_validate, _TOL),
        "convert": (_h_period_convert, _TOL),
        "cone": (_h_period_cone, _TOL),
        "sample": (
            _h_period_sample,
            (_SEED, *_TOL, ("--line", {"action": "store_true"}), *_SEARCH_FLAGS),
        ),
    },
    "twistor": {
        "plane": (_h_twistor_plane, _TOL),
        "point": (_h_twistor_point, _TOL),
        "chain": (_h_twistor_chain, _TOL),
    },
    "irrational": {
        "closure": (_h_irrational_closure, _SEARCH_FLAGS),
        "test": (_h_irrational_test, _SEARCH_FLAGS),
        "picard": (_h_irrational_picard, (*_TOL, *_SEARCH_FLAGS)),
    },
    "walls": {
        "enum": (_h_walls_enum, ()),
        "avoid": (_h_walls_avoid, _TOL),
        "chamber": (_h_walls_chamber, _TOL),
        "ueps": (_h_walls_ueps, ()),
    },
    "llv": {
        "e": (_h_llv_e, ()),
        "f": (_h_llv_f, ()),
        "closure": (_h_llv_closure, _TOL),
        "fujiki": (_h_llv_fujiki, (_SEED, _CONFIG)),
        "hodge": (_h_llv_hodge, _TOL),
        "deligne": (_h_llv_deligne, _TOL),
    },
    "cech": {
        "d": (_h_cech_d, ()),
        "cocycle": (_h_cech_cocycle, ()),
        "solve": (_h_cech_solve, ()),
        "cohomology": (_h_cech_cohomology, ()),
    },
}


def _build_parser(argv: list[str]) -> _Parser:
    """The CLI's parser, with only the leaf that ``argv`` dispatches to built in full.

    Every group and op name is registered, so help, choice lists and usage
    errors read as for the whole tree. The top level and the groups take no
    option but -h, so argparse reaches the leaf (group, op) only when these
    are the first two tokens of ``argv`` that do not start with '-'.
    """
    dispatched = [token for token in argv if not token.startswith("-")][:2]
    parser = _Parser(prog="hkgeom", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, ops in LEAVES.items():
        sub = groups.add_parser(group)
        if dispatched[:1] != [group]:
            continue
        sub = sub.add_subparsers(dest="op", required=True)
        for op, (handler, flags) in ops.items():
            leaf = sub.add_parser(op)
            if dispatched != [group, op]:
                continue
            leaf.add_argument("-i", "--input", default="-", help="JSON input path or - for stdin")
            for flag, options in flags:
                leaf.add_argument(flag, **options)
            leaf.set_defaults(handler=handler)
    return parser


def _emit(obj) -> None:
    """Write obj as one line of strict JSON; a NaN or infinity in it is a NumericalError."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericalError(f"the result is not finite: {err}") from err
    sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except UsageError as err:
        _emit({"ok": False, "error": {"type": "usage", "message": str(err)}})
        return 3
    try:
        cfg = _load_config(args)
        payload = _read_payload(args)
        result, diagnostics = args.handler(payload, args, cfg)
        _emit({"ok": True, "result": result, "diagnostics": diagnostics})
        return 0
    except _Obstructed as obs:
        _emit(
            {
                "ok": False,
                "error": {"type": "obstruction", "message": "cocycle is not a coboundary"},
                "obstruction": list(obs.result.obstruction),
                "presentation": list(obs.result.presentation),
            }
        )
        return 1
    except DomainError as err:
        _emit({"ok": False, "error": {"type": "domain", "message": str(err)}})
        return 1
    except NumericalError as err:
        _emit({"ok": False, "error": {"type": "numerical", "message": str(err)}})
        return 2
    except HkgeomError as err:
        _emit({"ok": False, "error": {"type": "internal", "message": str(err)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
