"""The CLI contract over every leaf: one strict JSON object, exit 0-3, nothing escapes.

Each of the 28 leaves starts from a payload that exits 0. Hypothesis then
replaces one top-level field by arbitrary JSON (NaN and Infinity literals,
1e400 and 400-digit integers included) or deletes it, and runs ``main`` in
process on the result. A second test replaces one nested entry instead: a
gram entry, a cochain value or a simplex vertex.
"""

import ast
import builtins
import contextlib
import copy
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hkgeom.cli import LEAVES, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


DIAG_U3 = _fixture("diagonal_plane_u3.json")["span"]
DIAG_K3 = _fixture("diagonal_plane_k3.json")["span"]
POINT_U3 = {"re": [1, 1, 0, 0, 0, 0], "im": [0, 0, 1, 1, 0, 0]}
# a positive 3-plane of U3 and a q-unit vector in it, both exact
PLANE_U3 = DIAG_U3[:2] + [[0, 0, 0, 0, 1, "1/2"]]
ETA = [1, 1] + [0] * 20
OCTA = _fixture("octahedron_nerve.json")
Z2 = {"factors": [2]}
EDGE_COCHAIN = {"degree": 1, "values": {"0,2": [1]}}
FACE_COCHAIN = {"degree": 2, "values": {"0,2,4": [1]}}
TRIANGLE_COCYCLE = {
    "nerve": {"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]},
    "group": Z2,
    "cochain": {"degree": 2, "values": {"0,1,2": [1]}},
}

# (flags, a payload on which the leaf exits 0), one per leaf
BASES = {
    ("lattice", "signature"): ([], _fixture("k3_lattice.json")),
    ("lattice", "dual"): ([], {"lattice": "U3", "coords": [-1, 1, 0, 0, 0, 0]}),
    ("lattice", "negative"): ([], {"lattice": "U3", "coords": [-1, 1, 0, 0, 0, 0]}),
    ("lattice", "spinor"): ([], _fixture("spinor_job.json")),
    ("period", "validate"): ([], {"lattice": "U3", "point": POINT_U3}),
    ("period", "convert"): ([], {"lattice": "U3", "point": POINT_U3}),
    ("period", "cone"): ([], _fixture("cone_job_u3.json")),
    ("period", "sample"): (["--seed", "7"], {"lattice": "U3"}),
    ("twistor", "plane"): ([], {"lattice": "U3", "point": POINT_U3, "line": DIAG_U3[2]}),
    ("twistor", "point"): ([], {"lattice": "U3", "plane": PLANE_U3, "direction": PLANE_U3[2]}),
    ("twistor", "chain"): ([], _fixture("chain_job_u3.json")),
    ("irrational", "closure"): ([], {"vectors": DIAG_U3[:2], "mode": "exact"}),
    ("irrational", "test"): ([], {"vectors": DIAG_U3[:2]}),
    ("irrational", "picard"): ([], {"lattice": "U3", "point": POINT_U3}),
    ("walls", "enum"): ([], _fixture("walls_enum_job.json")),
    ("walls", "avoid"): ([], {"lattice": "U3", "span": DIAG_U3, "walls": [[-1, 1, 0, 0, 0, 0]]}),
    ("walls", "chamber"): (
        [],
        {"lattice": "U3", "point": POINT_U3, "walls": [[0, 0, 0, 0, 1, -1]], "vector": DIAG_U3[2]},
    ),
    ("walls", "ueps"): ([], {"lattice": "U3", "span": DIAG_U3, "vector": [1, -1, 0, 0, 0, 0], "eps": 0.5}),
    ("llv", "e"): ([], {"ring": "k3", "eta": ETA}),
    ("llv", "f"): ([], {"ring": "k3", "eta": ETA}),
    ("llv", "closure"): ([], {**_fixture("llv_closure_job.json"), "full": False}),
    ("llv", "fujiki"): ([], _fixture("llv_fujiki_job.json")),
    ("llv", "hodge"): ([], _fixture("hodge_job.json")),
    ("llv", "deligne"): ([], {"ring": "k3", "span": DIAG_K3, "point": {"re": DIAG_K3[0], "im": DIAG_K3[1]}}),
    ("cech", "d"): ([], {"nerve": OCTA, "group": Z2, "cochain": EDGE_COCHAIN}),
    ("cech", "cocycle"): ([], {"nerve": OCTA, "group": Z2, "cochain": FACE_COCHAIN}),
    ("cech", "solve"): ([], TRIANGLE_COCYCLE),
    ("cech", "cohomology"): ([], _fixture("cech_cohomology_job.json")),
}
LEAF_IDS = [" ".join(leaf) for leaf in BASES]

# a JSON number no float holds: it parses to inf, so it is written as the literal
HUGE = "@1e400@"


def _text(payload) -> str:
    return json.dumps(payload).replace(f'"{HUGE}"', "1e400")


def _run(argv, text):
    """main in process on a payload given as stdin text: (exit code, stdout)."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*argv, "-i", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _refuse(token):
    raise AssertionError(f"stdout holds the non-JSON token {token}")


# a message like "TypeError: ..." leaks an exception the decoders did not name
PYTHON_EXCEPTION = re.compile(r"[A-Z]\w*(Error|Exception|Warning)\b")


def _check_contract(code, out):
    assert code in (0, 1, 2, 3)
    assert out.endswith("\n") and out.count("\n") == 1, out
    obj = json.loads(out, parse_constant=_refuse)
    assert isinstance(obj, dict) and obj["ok"] is (code == 0)
    if code:
        assert not PYTHON_EXCEPTION.match(obj["error"]["message"]), obj
    return obj


def test_every_leaf_has_a_base_payload_that_exits_0():
    assert set(BASES) == {(g, op) for g, ops in LEAVES.items() for op in ops}
    for (group, op), (flags, payload) in BASES.items():
        code, out = _run([group, op, *flags], _text(payload))
        assert code == 0, (group, op, out)
        _check_contract(code, out)


SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, HUGE, 10**400, -(10**400), "1/0", "3/2", "12", "", True]
)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | SPECIAL


def _shaped(n, i, x, rows):
    """A vector of length n with x at i, or that many distinct cyclic shifts of it as rows."""
    v = [1, 1] + [0] * (n - 2)
    v[i % n] = x
    return [v[j:] + v[:j] for j in range(rows)] if rows else v


# vectors of the base lattices' lengths reach past the decoders into the library
SHAPED = st.builds(_shaped, st.sampled_from([6, 22]), st.integers(0, 21), SCALARS, st.integers(0, 4))
JSON = SHAPED | st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
DELETE = object()


@pytest.mark.parametrize("leaf", list(BASES), ids=LEAF_IDS)
@settings(
    max_examples=25,
    derandomize=True,
    deadline=5000,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_payload_keeps_the_contract(leaf, data):
    flags, base = BASES[leaf]
    key = data.draw(st.sampled_from(sorted(base)), label="field")
    value = data.draw(st.just(DELETE) | JSON, label="value")
    payload = {k: v for k, v in base.items() if k != key}
    if value is not DELETE:
        payload[key] = value
    _check_contract(*_run([*leaf, *flags], _text(payload)))


# one nested entry per case: (leaf, path into its base payload); an int step is taken modulo the length
INDEX = st.integers(0, 99)
SIMPLEX_VERTEX = st.tuples(st.just("nerve"), st.just("simplices"), INDEX, INDEX)
NESTED = {
    "gram entry": (("lattice", "signature"), st.tuples(st.just("gram"), INDEX, INDEX)),
    "cochain value": (("cech", "solve"), st.just(("cochain", "values", "0,1,2", 0))),
    "solve simplex vertex": (("cech", "solve"), SIMPLEX_VERTEX),
    "cohomology simplex vertex": (("cech", "cohomology"), SIMPLEX_VERTEX),
}


def _replace_nested(payload, path, value):
    """A deep copy of payload with the entry at path replaced by value."""
    node = out = copy.deepcopy(payload)
    for step in path:
        parent, key = node, step % len(node) if isinstance(step, int) else step
        node = parent[key]
    parent[key] = value
    return out


@pytest.mark.parametrize("case", list(NESTED))
@settings(
    max_examples=40,
    derandomize=True,
    deadline=5000,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_nested_mutation_keeps_the_contract(case, data):
    leaf, paths = NESTED[case]
    flags, base = BASES[leaf]
    path = data.draw(paths, label="path")
    payload = _replace_nested(base, path, data.draw(SCALARS | JSON, label="value"))
    _check_contract(*_run([*leaf, *flags], _text(payload)))


def test_main_catches_no_builtin_exception():
    # refusals come from the decoders and the library's own errors, not from relabelled built-ins
    tree = ast.parse((REPO / "src" / "hkgeom" / "cli.py").read_text(encoding="utf-8"))
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = set()
    for handler in ast.walk(main_def):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught |= {ast.unparse(t) for t in types}
    assert caught and not caught & set(dir(builtins))
