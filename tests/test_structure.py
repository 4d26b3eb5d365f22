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


def test_exact_closure_oracle_stays_independent_of_the_float_path():
    # the oracle may neither call the float closure nor touch numpy
    tree = ast.parse((PACKAGE / "llv.py").read_text(encoding="utf-8"))
    oracle = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "lie_closure_exact"
    )
    names = {n.id for n in ast.walk(oracle) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(oracle) if isinstance(n, ast.Attribute)}
    assert not {"np", "numpy", "lie_closure"} & names
