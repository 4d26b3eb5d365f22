"""One smoke test per CLI subcommand, exercising every handler end to end."""

import json
from pathlib import Path

import pytest

from hkgeom import llv
from hkgeom.cli import main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

U3 = json.loads((FIXTURES / "u3_lattice.json").read_text())
DIAG = json.loads((FIXTURES / "diagonal_plane_u3.json").read_text())["span"]
OCTA = json.loads((FIXTURES / "octahedron_nerve.json").read_text())
POINT = {"re": DIAG[0], "im": DIAG[1]}


def run(tmp_path, argv, payload=None):
    args = list(argv)
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        args += ["-i", str(path)]
    return args


@pytest.fixture
def invoke(tmp_path, capsys):
    def _invoke(argv, payload=None, expect=0):
        code = main(run(tmp_path, argv, payload))
        out = capsys.readouterr().out
        assert code == expect, out
        return json.loads(out)

    return _invoke


def test_lattice_dual(invoke):
    data = invoke(
        ["lattice", "dual"],
        {"lattice": U3, "coords": [-1, 1, 0, 0, 0, 0]},
    )
    assert data["result"]["value"] == -2


def test_lattice_negative(invoke):
    data = invoke(
        ["lattice", "negative"],
        {"lattice": U3, "coords": [-1, 1, 0, 0, 0, 0]},
    )
    assert data["result"]["negative"] is True
    assert data["result"]["kernel_signature"] == [3, 2]


def test_period_validate(invoke):
    data = invoke(["period", "validate"], {"lattice": U3, "point": POINT})
    assert data["result"]["q_re"] == pytest.approx(1.0)


def test_period_cone(invoke):
    data = invoke(
        ["period", "cone"],
        {"lattice": U3, "point": POINT, "vector": DIAG[2]},
    )
    assert isinstance(data["result"]["contains"], bool)


def test_period_sample_with_line(invoke):
    data = invoke(
        ["period", "sample", "--seed", "3", "--line"],
        {"lattice": U3},
    )
    assert "line" in data["result"]
    assert len(data["result"]["line"]) == 6


def test_twistor_plane_and_point(invoke):
    data = invoke(
        ["twistor", "plane"],
        {"lattice": U3, "point": POINT, "line": DIAG[2]},
    )
    frame = data["result"]["plane"]["frame"]
    assert len(frame) == 3
    data2 = invoke(
        ["twistor", "point"],
        {"lattice": U3, "plane": DIAG, "direction": frame[2]},
    )
    assert "re" in data2["result"]["point"]


def test_irrational_closure_detect(invoke):
    data = invoke(
        ["irrational", "closure"],
        {"vectors": [[1.0, 2.0**0.5, 0.0, 0.0, 0.0, 0.0]], "mode": "detect"},
    )
    assert data["result"]["closure_dim"] == 2


def test_irrational_picard(invoke):
    data = invoke(
        ["irrational", "picard", "--height", "2"],
        {"lattice": U3, "point": POINT},
    )
    assert data["result"]["trivial_up_to_height"] is False
    assert data["result"]["witness"] is not None


def test_walls_avoid(invoke):
    data = invoke(
        ["walls", "avoid"],
        {"lattice": U3, "span": DIAG, "walls": [[-1, 1, 0, 0, 0, 0]]},
    )
    assert data["result"]["avoided"] is False


def test_walls_chamber(invoke):
    payload = {
        "lattice": U3,
        "point": POINT,
        "walls": [[0, 0, 0, 0, 1, -1]],
        "vector": DIAG[2],
    }
    data = invoke(["walls", "chamber"], payload)
    assert isinstance(data["result"]["contains"], bool)
    assert len(data["result"]["relevant_walls"]) == 1


def test_llv_e_and_f(invoke):
    eta = [0] * 22
    eta[0] = eta[1] = 1
    data = invoke(["llv", "e"], {"ring": "k3", "eta": eta})
    assert data["result"]["degree"] == 2
    data = invoke(["llv", "f"], {"ring": "k3", "eta": eta})
    assert data["result"]["degree"] == -2
    assert data["result"]["bracket_residual"] < 1e-9


def test_llv_f_builds_f_once_and_keeps_its_output(invoke, monkeypatch):
    ring = llv.k3_ring()
    eta = [2, 1, 0, 3] + [0] * 16 + [1, -1]
    # the leaf's output as two separate calls would give it, one f each: lefschetz_f, then sl2_residuals
    want = {
        "matrix": [[float(x) for x in row] for row in llv.lefschetz_f(ring, eta).matrix],
        "degree": -2,
        "bracket_residual": max(llv.sl2_residuals(ring, eta).values()),
    }
    solve, calls = llv._lefschetz_f, []
    monkeypatch.setattr(llv, "_lefschetz_f", lambda *args: calls.append(1) or solve(*args))
    data = invoke(["llv", "f"], {"ring": "k3", "eta": eta})
    assert len(calls) == 1
    assert json.dumps(data["result"], sort_keys=True) == json.dumps(want, sort_keys=True)


def test_llv_closure_full(invoke):
    data = invoke(["llv", "closure"], {"ring": "k3", "full": True})
    assert data["result"]["dimension"] == 276


def test_llv_deligne(invoke):
    span = json.loads((FIXTURES / "diagonal_plane_k3.json").read_text())["span"]
    payload = {
        "ring": "k3",
        "span": span,
        "point": {"re": span[0], "im": span[1]},
    }
    data = invoke(["llv", "deligne"], payload)
    weights = data["result"]["weights_im_degree2"]
    assert weights[0] == -2.0 and weights[-1] == 2.0
    assert weights.count(0.0) == 20
    assert data["result"]["max_real_part"] < 1e-8


def test_cech_d_and_cocycle(invoke):
    edges = [s for s in OCTA["simplices"] if len(s) == 2]
    payload = {
        "nerve": OCTA,
        "group": {"factors": [2]},
        "cochain": {"degree": 1, "values": {",".join(map(str, edges[0])): [1]}},
    }
    data = invoke(["cech", "d"], payload)
    assert data["result"]["cochain"]["degree"] == 2
    payload2 = dict(payload, cochain=data["result"]["cochain"])
    data2 = invoke(["cech", "cocycle"], payload2)
    assert data2["result"]["is_cocycle"] is True


def test_cech_solve_success_path(invoke):
    tri = {"vertices": [0, 1, 2], "simplices": [[0, 1, 2]]}
    payload = {
        "nerve": tri,
        "group": {"factors": [2]},
        "cochain": {"degree": 2, "values": {"0,1,2": [1]}},
    }
    data = invoke(["cech", "solve"], payload)
    assert data["ok"] is True
    assert data["result"]["solution"]["degree"] == 1
