import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkgeom"


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


def test_no_module_imports_sympy():
    # sympy is a test oracle only; the package runs on numpy and the standard library
    for path in sorted(PACKAGE.glob("*.py")):
        assert "sympy" not in _imports(path.stem), f"{path.name} imports sympy"


def test_exact_closure_oracle_stays_independent_of_the_float_path():
    # the oracle may neither call the float closure nor touch numpy
    tree = ast.parse((PACKAGE / "llv.py").read_text(encoding="utf-8"))
    oracle = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "lie_closure_exact"
    )
    names = {n.id for n in ast.walk(oracle) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(oracle) if isinstance(n, ast.Attribute)}
    assert not {"np", "numpy", "lie_closure"} & names


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
    "lattice.spinor_norm_sign": ["order"],
    "llv.lie_closure": ["tau"],
    "llv.so5_closure": ["tau"],
    "llv.full_llv_closure": ["tau"],
    "llv.fujiki_constant": ["samples", "seed"],
    "period.orthonormal_pair": ["tol"],
    "period.oriented_two_plane": ["tol"],
    "period.period_point": ["tol"],
    "period.plane_to_point": ["tol"],
    "period.orient_three_plane": ["tol"],
    "period.positive_cone_contains": ["tol"],
    "period.twistor_plane": ["tol"],
    "period.conic_contains": ["tol"],
    "period.conic_point": ["tol", "index_order"],
    "period.verify_chain": ["tol"],
    "period._complement": ["drop"],
    "period._perp_positive_direction": ["drop"],
    "period.chain_connect": ["tol"],
    "period.sample_period_point": ["tol"],
    "period.sample_irrational_line": ["height", "relation_tol", "seed", "tol"],
    "walls.wall_avoidance": ["tau"],
    "walls.relevant_walls": ["tau"],
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
    assert sum(map(len, found.values())) == 40
