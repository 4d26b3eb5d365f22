import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkgeom
from hkgeom import cli
from hkgeom.config import TOL_NAMES

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "hkgeom"
FIXTURES = REPO / "fixtures"


def _imports(module: str) -> set[str]:
    """Top-level names each import statement of ``module`` reaches; package-relative ones as '.name'."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add("." + node.module.split(".")[0])
            else:
                names.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0])
    return names


def test_exact_modules_never_import_numpy():
    # the exact layers and every package module they import, followed transitively
    todo, seen = ["lattice", "exactlin", "cech"], set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        names = _imports(module)
        assert "numpy" not in names, f"{module}.py imports numpy"
        todo += [n[1:] for n in names if n.startswith(".")]
    assert "errors" in seen  # the walk followed the package-relative imports


OCTAHEDRON = json.loads((FIXTURES / "octahedron_nerve.json").read_text())


def _octahedron_cochain(simplex):
    cochain = {"degree": len(simplex) - 1, "values": {",".join(map(str, simplex)): [1]}}
    return {"nerve": OCTAHEDRON, "group": {"factors": [2]}, "cochain": cochain}


FLOAT_ONLY = ("hkgeom.llv", "hkgeom.walls", "hkgeom.cech", "hkgeom.irrational")
# Runs one CLI leaf and reports, on stderr, every module the process loaded.
COLD_START = (
    "import sys\n"
    "from hkgeom.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(' '.join(sys.modules))\n"
    "sys.exit(code)\n"
)
COLD_LEAVES = [
    (["lattice", "signature"], "k3_lattice.json", ("numpy",)),
    (["lattice", "dual"], {"lattice": "U3", "coords": [-1, 1, 0, 0, 0, 0]}, ("numpy",)),
    (["lattice", "negative"], {"lattice": "U3", "coords": [-1, 1, 0, 0, 0, 0]}, ("numpy",)),
    (["lattice", "spinor"], "spinor_job.json", ("numpy",)),
    (["cech", "d"], _octahedron_cochain([0, 2]), ("numpy",)),
    (["cech", "cocycle"], _octahedron_cochain([0, 2, 4]), ("numpy",)),
    (
        ["cech", "solve"],
        {
            "nerve": {"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]},
            "group": {"factors": [2]},
            "cochain": {"degree": 2, "values": {"0,1,2": [1]}},
        },
        ("numpy",),
    ),
    (["cech", "cohomology"], "cech_cohomology_job.json", ("numpy",)),
    (["period", "cone"], "cone_job_u3.json", FLOAT_ONLY),
    (["twistor", "chain"], "chain_job_u3.json", FLOAT_ONLY),
    (["llv", "closure"], "llv_closure_job.json", ("hkgeom.walls", "hkgeom.cech", "hkgeom.irrational", "scipy")),
]


@pytest.mark.parametrize("argv,payload,unloaded", COLD_LEAVES, ids=[" ".join(c[0]) for c in COLD_LEAVES])
def test_cold_start_loads_only_the_leaf_modules(argv, payload, unloaded, tmp_path):
    # exact subcommands never import numpy; float ones skip the layers they never call
    if isinstance(payload, str):
        path = FIXTURES / payload
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv, "-i", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["ok"] is True
    loaded = set(proc.stderr.split())
    assert "hkgeom.cli" in loaded
    assert not loaded & set(unloaded)


# The package's public names: `from hkgeom import *` exports exactly these.
PUBLIC = [
    "Cochain", "FiniteAbelianGroup", "Nerve", "coboundary", "cohomology", "is_cocycle",
    "octahedron_nerve", "solve_coboundary",
    "DEFAULT_TOL", "RunConfig", "Tolerances",
    "DomainError", "HardLefschetzError", "HkgeomError", "InternalInconsistencyError",
    "NumericalError",
    "is_fully_irrational", "picard_trivial", "rational_closure",
    "QuadLattice", "Reflection", "WallForm", "direct_sum", "dual_value", "e8_lattice",
    "hyperbolic_plane", "in_o_sharp", "is_negative_form", "k3_lattice", "kernel_signature",
    "rank_one", "reflection", "reflection_matrix", "rescale", "signature", "spinor_norm_sign",
    "standard_lattice",
    "CohomologyRing", "GradedOperator", "LieClosure", "deligne_generator", "fujiki_constant",
    "full_llv_closure", "grading_h", "hodge_decompose", "k3_ring", "lefschetz_e",
    "lefschetz_f", "lie_closure", "so5_closure",
    "OrientedTwoPlane", "PeriodPoint", "PositiveThreePlane", "TwistorChain", "chain_connect",
    "conic_contains", "conic_point", "orient_three_plane", "period_point", "plane_to_point",
    "point_to_plane", "positive_cone_contains", "sample_irrational_line",
    "sample_period_point", "twistor_plane", "verify_chain",
    "MajorantForm", "WallSet", "enumerate_walls_near", "in_u_eps", "kahler_chamber_contains",
    "majorant", "relevant_walls", "wall_avoidance",
]


def test_public_namespace_resolves_lazily():
    assert hkgeom.__all__ == PUBLIC
    listed = dir(hkgeom)
    for name in PUBLIC:
        obj = getattr(hkgeom, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in listed
    namespace = {}
    exec("from hkgeom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    # a fresh `import hkgeom` loads no submodule; attribute access loads one on demand
    probe = (
        "import sys, hkgeom\n"
        "before = sorted(m for m in sys.modules if m.startswith('hkgeom'))\n"
        "print(before, hkgeom.lattice.k3_lattice().rank, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.stdout.split() == ["['hkgeom']", "22", "False"], proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        hkgeom.not_a_name


def test_modules_import_only_numpy_and_the_standard_library():
    # every other package, scipy included when it is installed, is outside the runtime dependencies
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _imports(path.stem):
            allowed = name.startswith(".") or name == "numpy" or name in sys.stdlib_module_names
            assert allowed, f"{path.name} imports {name}"


def test_no_module_imports_sympy():
    # sympy is a test oracle only; the package runs on numpy and the standard library
    for path in sorted(PACKAGE.glob("*.py")):
        assert "sympy" not in _imports(path.stem), f"{path.name} imports sympy"


def _function_names(module: str, function: str) -> set[str]:
    """Every name and attribute the body of a top-level function reads."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_exact_closure_oracle_stays_independent_of_the_float_path():
    # the oracle may neither call the float closure nor touch numpy
    assert not {"np", "numpy", "lie_closure"} & _function_names("llv", "lie_closure_exact")


def test_negativity_is_one_computation():
    # the kernel inertia is a test-side equivalence, not a runtime cross-check
    assert "kernel_signature" not in _function_names("lattice", "is_negative_form")


def test_brute_force_wall_oracle_stays_independent_of_the_enumerator():
    reached = _function_names("walls", "brute_force_walls")
    assert not {"enumerate_walls_near", "_enumerate_ellipsoid_int", "_isqrt", "_bareiss", "_BLOCK"} & reached


@pytest.mark.parametrize("module", ["walls", "cech", "exactlin", "llv"])
def test_exact_module_holds_no_cache(module):
    # caches live on the objects they derive from (a nerve, a lattice, a ring), never in a module-level dict
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
        )
        assert not is_dict, f"{module}.py line {node.lineno} binds a module-level dict"
        if isinstance(node, ast.FunctionDef):
            wrappers = {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] for d in node.decorator_list}
            assert not wrappers & {"cache", "lru_cache"}, f"{module}.py caches {node.name} for the process"


def test_float_thresholds_are_named():
    # a float compared against in src/hkgeom is a named constant or a Tolerances field, never a literal
    bare = [
        f"{path.name} line {node.lineno}: {ast.unparse(operand)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        if any(isinstance(c, ast.Constant) and isinstance(c.value, float) for c in ast.walk(operand))
    ]
    assert not bare, bare


def _cfg_reads(handler: str) -> set[str]:
    """The settings a CLI handler reads: the attributes of its ``cfg`` argument."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == handler)
    reads = [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "cfg"]
    uses = [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "cfg"]
    assert len(uses) == len(reads), handler  # cfg is never handed on, so the walk sees every read
    return {n.attr for n in reads}


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_each_leaf_takes_exactly_the_settings_its_handler_reads():
    tolerances = {f"--tol-{name}" for name in TOL_NAMES}
    total = 0
    for group, ops in cli.LEAVES.items():
        for op, (handler, _) in ops.items():
            leaf = _subparser(_subparser(cli._build_parser([group, op]), group), op)
            flags = [a.option_strings[-1] for a in leaf._actions if not isinstance(a, argparse._HelpAction)]
            total += len(flags)
            reads = _cfg_reads(handler.__name__)
            assert reads <= {"tol", "seed"}, (group, op)
            assert "--input" in flags
            assert set(flags) & tolerances == (tolerances if "tol" in reads else set()), (group, op)
            assert ("--seed" in flags) == ("seed" in reads), (group, op)
            assert ("--config" in flags) == bool(reads), (group, op)
    assert total == 118


# Every parameter with a default, per function, across the package: trailing
# defaulted positional parameters and keyword-only ones with defaults. A new
# knob, or one a change forgot to retire, fails the test by name.
DEFAULTED = {
    "cech.from_simplices": ["vertices"],
    "cli.main": ["argv"],
    "irrational.rational_closure_detect": ["height", "tol"],
    "irrational.rational_closure": ["mode", "height", "tol"],
    "irrational.is_fully_irrational": ["height", "tol"],
    "irrational.picard_trivial": ["height", "tol"],
    "lattice.reflection_vectors": ["order"],
    "llv.lie_closure": ["tol"],
    "llv.so5_closure": ["tol"],
    "llv.full_llv_closure": ["tol"],
    "llv.fujiki_constant": ["samples", "seed"],
    "period.orthonormal_pair": ["tol"],
    "period.oriented_two_plane": ["tol"],
    "period.period_point": ["tol"],
    "period.plane_to_point": ["tol"],
    "period.orient_three_plane": ["tol"],
    "period.positive_cone_contains": ["tol"],
    "period.twistor_plane": ["tol"],
    "period.conic_contains": ["tol"],
    "period.conic_point": ["tol"],
    "period.verify_chain": ["tol"],
    "period._complement": ["drop"],
    "period._perp_positive_direction": ["drop"],
    "period.chain_connect": ["tol"],
    "period.sample_period_point": ["tol"],
    "period.sample_irrational_line": ["height", "relation_tol", "seed", "tol"],
    "walls.wall_avoidance": ["tol"],
    "walls.relevant_walls": ["tol"],
    "walls.kahler_chamber_contains": ["tol"],
}


def test_defaulted_parameters_are_the_listed_ones():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if names:
                found[f"{path.stem}.{node.name}"] = names
    assert found == DEFAULTED
    assert sum(map(len, found.values())) == 38
