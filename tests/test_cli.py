import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hkgeom import cli
from hkgeom.cli import LEAVES, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
GOLDEN = FIXTURES / "golden"

GOLDEN_RUNS = [
    ("lattice_signature_k3.json", ["lattice", "signature", "-i", "k3_lattice.json"], 0),
    ("llv_closure_diag.json", ["llv", "closure", "-i", "llv_closure_job.json"], 0),
    ("llv_fujiki_k3.json", ["llv", "fujiki", "-i", "llv_fujiki_job.json"], 0),
    ("llv_hodge_diag.json", ["llv", "hodge", "-i", "hodge_job.json"], 0),
    ("cech_solve_octahedron.json", ["cech", "solve", "-i", "cech_solve_octahedron.json"], 1),
    (
        "cech_cohomology_octahedron.json",
        ["cech", "cohomology", "-i", "cech_cohomology_job.json"],
        0,
    ),
    ("walls_enum_u3.json", ["walls", "enum", "-i", "walls_enum_job.json"], 0),
    ("spinor_swap_u3.json", ["lattice", "spinor", "-i", "spinor_job.json"], 0),
    (
        "period_sample_u3_seed7.json",
        ["period", "sample", "-i", "u3_lattice.json", "--seed", "7"],
        0,
    ),
    ("twistor_chain_u3.json", ["twistor", "chain", "-i", "chain_job_u3.json"], 0),
    ("period_cone_u3.json", ["period", "cone", "-i", "cone_job_u3.json"], 0),
    (
        "irrational_picard_u3.json",
        ["irrational", "picard", "-i", "picard_job_u3.json", "--height", "2"],
        0,
    ),
    (
        "irrational_closure_detect.json",
        ["irrational", "closure", "-i", "closure_detect_job.json"],
        0,
    ),
]


def run_cli(argv, capsys):
    argv = list(argv)
    for i, a in enumerate(argv):
        if a == "-i":
            argv[i + 1] = str(FIXTURES / argv[i + 1])
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("golden,argv,expected_code", GOLDEN_RUNS)
def test_golden_outputs(golden, argv, expected_code, capsys):
    code, out = run_cli(argv, capsys)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    # round trip: the serialized output parses back to the same object
    assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out


@pytest.mark.parametrize(
    "change, message",
    [({"square": 2}, "wall square d must be negative"), ({"radius": -1}, "radius must be positive"),
     ({"square": 2, "radius": -1}, "wall square d must be negative")],
    ids=["square", "radius", "square-before-radius"],
)
def test_walls_enum_refuses_square_and_radius_before_the_span(change, message, tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({**json.loads((FIXTURES / "walls_enum_job.json").read_text()), **change,
                               "span": [[1, 0, 0, 0, 0, 0]]}))  # a span the majorant would refuse
    code = main(["walls", "enum", "-i", str(job)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1 and error["type"] == "domain" and error["message"] == message


def test_byte_identical_repeat_runs(capsys):
    _, out1 = run_cli(["period", "sample", "-i", "u3_lattice.json", "--seed", "7"], capsys)
    _, out2 = run_cli(["period", "sample", "-i", "u3_lattice.json", "--seed", "7"], capsys)
    assert out1 == out2


def test_signature_expected_value(capsys):
    code, out = run_cli(["lattice", "signature", "-i", "k3_lattice.json"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == [3, 19]


def test_llv_closure_expected_value(capsys):
    code, out = run_cli(["llv", "closure", "-i", "llv_closure_job.json"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dimension"] == 10
    assert result["by_degree"] == {"-2": 3, "0": 4, "2": 3}


def test_cech_solve_obstruction_exit_code(capsys):
    code, out = run_cli(["cech", "solve", "-i", "cech_solve_octahedron.json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["obstruction"] == [1]


def test_usage_error_exit_3(capsys):
    code = main(["lattice", "nonsense", "-i", "whatever"])
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["error"]["type"] == "usage"


def _full_tree_parser():
    """The CLI parser with every leaf built in full, as ``main`` once built it on each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", default="-", help="JSON input path or - for stdin")
    parser = cli._Parser(prog="hkgeom", description=cli.__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, ops in LEAVES.items():
        sub = groups.add_parser(group).add_subparsers(dest="op", required=True)
        for op, (handler, flags) in ops.items():
            leaf = sub.add_parser(op, parents=[common])
            for flag, options in flags:
                leaf.add_argument(flag, **options)
            leaf.set_defaults(handler=handler)
    return parser


HELP_ARGVS = (
    [["--help"]]
    + [[group, "--help"] for group in LEAVES]
    + [[group, op, "-h"] for group, ops in LEAVES.items() for op in ops]
)
USAGE_ERRORS = [
    [], ["-x"], ["bogus"], ["ll"], ["-", "llv"], ["-i", "x", "llv", "closure"], ["--", "llv", "closure"],
    ["llv"], ["llv", "bogus"], ["llv", "clos"], ["llv", "--", "closure"], ["llv", "--x", "closure", "-i", "f"],
    ["llv", "closure", "--bogus"], ["llv", "closure", "-i"], ["llv", "closure", "--", "x"],
    ["llv", "closure", "--height", "3"], ["period", "sample", "--seed"], ["period", "validate", "--tol-lie", "abc"],
    ["period", "sample", "--height", "x"], ["period", "sample", "--line", "3"], ["irrational", "picard", "--tol", "1"],
    ["lattice", "signature", "--seed", "3"], ["cech", "solve", "--tol-iso", "1e-3"], ["walls", "enum", "--config", "c.json"],
    ["llv", "e", "--tol-lie", "1e-7"], ["llv", "fujiki", "--tol-lie", "1e-7"], ["llv", "closure", "--seed", "3"],
    ["irrational", "test", "--tol-rel", "1e-5"], ["irrational", "test", "--tol", "1"],
    ["period", "sample", "--tol-rel", "1e-5"], ["period", "sample", "--inp", "job.json"],
]
PARSED = [
    ["llv", "closure"], ["period", "sample", "-i", "job.json", "--seed", "3", "--tol-lie", "1e-7"],
    ["period", "sample", "--line", "--height", "5"], ["irrational", "test", "--tol-relation", "1e-5"],
    ["llv", "fujiki", "--config", "c.json", "-i", "-"], ["period", "sample", "--input", "job.json"],
]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_reads_as_for_the_full_tree(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    lazy = capsys.readouterr().out
    with pytest.raises(SystemExit):
        _full_tree_parser().parse_args(argv)
    assert lazy == capsys.readouterr().out
    assert lazy.startswith("usage: hkgeom")


def test_usage_errors_and_parses_read_as_for_the_full_tree(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 3
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        with pytest.raises(cli.UsageError) as err:
            _full_tree_parser().parse_args(argv)
        assert message == str(err.value), argv
    for argv in PARSED:
        assert vars(cli._build_parser(argv).parse_args(argv)) == vars(_full_tree_parser().parse_args(argv))


def test_domain_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "gram": [[1, 1], [1, 1]]}))
    code = main(["lattice", "signature", "-i", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert "degenerate" in data["error"]["message"]


def test_numerical_error_exit_2(tmp_path, capsys):
    # an isotropic eta has no hard Lefschetz partner f
    bad = tmp_path / "eta.json"
    bad.write_text(json.dumps({"ring": "k3", "eta": [1] + [0] * 21}))
    code = main(["llv", "f", "-i", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "numerical"


def test_sample_requires_seed(capsys):
    code, out = run_cli(["period", "sample", "-i", "u3_lattice.json"], capsys)
    assert code == 1
    assert "seed" in json.loads(out)["error"]["message"]


def test_tolerance_flag_roundtrip(tmp_path, capsys):
    # a slightly off-isotropic point passes only with a loosened tolerance
    job = {
        "lattice": json.loads((FIXTURES / "u3_lattice.json").read_text()),
        "point": {"re": [1, 1, 1e-5, 0, 0, 0], "im": [0, 0, 1, 1, 0, 0]},
    }
    path = tmp_path / "point.json"
    path.write_text(json.dumps(job))
    code = main(["period", "validate", "-i", str(path)])
    capsys.readouterr()
    assert code == 1
    code = main(["period", "validate", "-i", str(path), "--tol-iso", "1e-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["ok"]


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 7}))
    monkeypatch.setenv("HKGEOM_CONFIG", str(cfgfile))
    code, out = run_cli(["period", "sample", "-i", "u3_lattice.json"], capsys)
    assert code == 0
    assert out == (GOLDEN / "period_sample_u3_seed7.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "config",
    [
        {"tolerances": {"bogus": 1}},
        {"tolerances": {"iso": None}},
        {"tolerances": [1e-9]},
        {"tolerances": {"iso": float("nan")}},
        {"tolerances": {"iso": "1e-2"}},
        {"tolerances": {"iso": True}},
        {"threads": 1},
        {"seed": "7"},
        {"seed": -1},
        [7],
    ],
    ids=[
        "unknown-tolerance",
        "null-tolerance",
        "tolerances-not-object",
        "nan-tolerance",
        "string-tolerance",
        "bool-tolerance",
        "unknown-top-level-key",
        "string-seed",
        "negative-seed",
        "not-an-object",
    ],
)
def test_malformed_config_is_domain_error(config, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    code, out = run_cli(["period", "validate", "-i", "cone_job_u3.json", "--config", str(cfgfile)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


def test_leaf_without_settings_reads_no_config(tmp_path, capsys, monkeypatch):
    # HKGEOM_CONFIG reaches only the leaves that take --config
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{")
    monkeypatch.setenv("HKGEOM_CONFIG", str(cfgfile))
    code, out = run_cli(["lattice", "signature", "-i", "u3_lattice.json"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == [3, 3]
    code, out = run_cli(["period", "validate", "-i", "cone_job_u3.json"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "domain" and error["message"].startswith("cannot read config")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_non_positive_or_non_finite_tolerance_rejected(value, capsys):
    code, out = run_cli(["period", "validate", "-i", "cone_job_u3.json", f"--tol-iso={value}"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "domain"
    assert error["message"].startswith("tolerance iso must be positive and finite")


@pytest.mark.parametrize("gram", [[[1.5]], [["3/2"]], [1]])
def test_non_integral_gram_exit_1(gram, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gram": gram}))
    code = main(["lattice", "signature", "-i", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["type"] == "domain"


def _run_fresh(argv, payload, tmp_path):
    """One CLI run in a fresh process; returns (exit code, the one JSON object)."""
    job = tmp_path / "job.json"
    job.write_text(payload if isinstance(payload, str) else json.dumps(payload))  # str: verbatim
    proc = subprocess.run(
        [sys.executable, "-m", "hkgeom.cli", *argv, "-i", str(job)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,  # a run that spins fails the test instead of hanging the suite
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, json.loads(proc.stdout)


WALLS_JOB = json.loads((FIXTURES / "walls_enum_job.json").read_text())
COHOMOLOGY_JOB = json.loads((FIXTURES / "cech_cohomology_job.json").read_text())
EDGE = next(s for s in COHOMOLOGY_JOB["nerve"]["simplices"] if len(s) == 2)
EDGE_COCHAIN = {
    "nerve": COHOMOLOGY_JOB["nerve"],
    "group": {"factors": [2]},
    "cochain": {"degree": 1, "values": {",".join(map(str, EDGE)): [1.9]}},
}
CONE_JOB = json.loads((FIXTURES / "cone_job_u3.json").read_text())
CHAMBER_JOB = {
    "lattice": "U3",
    "point": {"re": [1, 1, 0, 0, 0, 0], "im": [0, 0, 1, 1, 0, 0]},
    "walls": [{"coords": [0, 0, 0, 0, 1, -1], "sign": 1.5}],
    "vector": [0, 0, 0, 0, 1, 1],
}
UEPS_JOB = {"lattice": "U3", "span": WALLS_JOB["span"], "vector": [1, -1, 0, 0, 0, 0]}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["walls", "enum"], {"lattice": "U3", "span": 5}),
        (["lattice", "dual"], {"lattice": "U3", "coords": 5}),
        (["walls", "enum"], {**WALLS_JOB, "square": -2.5}),
        (["cech", "cohomology"], {**COHOMOLOGY_JOB, "group": {"factors": [2.9]}}),
        (["cech", "cohomology"], {**COHOMOLOGY_JOB, "degree": 1.7}),
        (["cech", "cohomology"], {**COHOMOLOGY_JOB, "degree": True}),
        (["cech", "d"], EDGE_COCHAIN),
        (["walls", "chamber"], CHAMBER_JOB),
        (["irrational", "closure"], {"vectors": [[1.0, 0.5]], "mode": "detcet"}),
        (["llv", "fujiki"], ["ring", "k3"]),
        (["lattice", "dual"], {"lattice": "U3", "coords": ["1/0", 0, 0, 0, 0, 1]}),
        (["lattice", "negative"], {"lattice": "U3", "coords": ["1/0", 0, 0, 0, 0, 1]}),
        (["period", "cone"], {**CONE_JOB, "vector": ["1/0", 0, 0, 0, 1, 1]}),
        (["lattice", "signature"], {"lattice": {"gram": [["1/0", 0], [0, 1]]}}),
        (["period", "cone"], {**CONE_JOB, "vector": [10**400, 0, 0, 0, 1, 1]}),
        (["llv", "e"], {"ring": "k3", "eta": [10**400] + [0] * 21}),
        (["walls", "ueps"], {**UEPS_JOB, "eps": 10**400}),
        (
            ["period", "validate"],
            '{"lattice": "U3", "point": {"re": [1e400, 1, 0, 0, 0, 0], "im": [0, 0, 1, 1, 0, 0]}}',
        ),
        (["lattice", "signature"], {"gram": ["12", "21"]}),
        (["walls", "avoid"], {"lattice": "U3", "span": WALLS_JOB["span"], "walls": {}}),
        (["cech", "cohomology"], {**COHOMOLOGY_JOB, "nerve": {"simplices": [[0, "a"]]}}),
        (["twistor", "plane"], {"lattice": "U3", "point": CONE_JOB["point"], "line": [0, 0, 0, 1, 1]}),
        (["walls", "enum"], {**WALLS_JOB, "span": [row + [1] for row in WALLS_JOB["span"]]}),
        (["walls", "enum"], {**WALLS_JOB, "span": [row[:5] for row in WALLS_JOB["span"]]}),
    ],
    ids=[
        "walls-enum-scalar-span",
        "lattice-dual-scalar-coords",
        "walls-enum-float-square",
        "cech-cohomology-float-factor",
        "cech-cohomology-float-degree",
        "cech-cohomology-bool-degree",
        "cech-d-float-cochain-value",
        "walls-chamber-float-sign",
        "irrational-closure-unknown-mode",
        "llv-fujiki-payload-not-an-object",
        "lattice-dual-zero-denominator",
        "lattice-negative-zero-denominator",
        "period-cone-zero-denominator",
        "lattice-signature-zero-denominator-gram",
        "period-cone-400-digit-coordinate",
        "llv-e-400-digit-eta",
        "walls-ueps-400-digit-eps",
        "period-validate-1e400-coordinate",
        "lattice-signature-string-gram-rows",
        "walls-avoid-walls-object",
        "cech-cohomology-mixed-vertex-labels",
        "twistor-plane-short-line",
        "walls-enum-7-coordinate-span",
        "walls-enum-5-coordinate-span",
    ],
)
def test_wrong_payload_shape_exit_1(argv, payload, tmp_path):
    code, out = _run_fresh(argv, payload, tmp_path)
    assert code == 1
    assert out["error"]["type"] == "domain"


@pytest.mark.parametrize(
    "files,config",
    [
        ({}, False),
        ({"job.json": "{"}, False),
        ({"job.json": '{"lattice": "U3"}'}, True),
        ({"job.json": '{"lattice": "U3"}', "cfg.json": "{"}, True),
    ],
    ids=["missing-payload-file", "malformed-payload", "missing-config-file", "malformed-config"],
)
def test_unreadable_input_is_domain_error(files, config, tmp_path, capsys):
    # a file that cannot be read or parsed is refused where it is read
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ["period", "validate", "-i", str(tmp_path / "job.json")]
    code = main(argv + ["--config", str(tmp_path / "cfg.json")] if config else argv)
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1 and error["type"] == "domain"
    assert error["message"].startswith("cannot read")


def test_walls_enum_radius_with_a_huge_denominator_finds_no_walls(tmp_path):
    # only the origin lies inside: an empty answer, not an int64 overflow
    code, out = _run_fresh(["walls", "enum"], {**WALLS_JOB, "radius": f"1/{2**64}"}, tmp_path)
    assert code == 0
    assert out["result"]["walls"] == [] and out["result"]["count"] == 0


def test_non_finite_result_is_a_numerical_error(monkeypatch, capsys):
    # stdout is strict JSON: a NaN in a result becomes a refusal, never a bare NaN token
    handler = lambda payload, args, cfg: ({"value": float("nan")}, {})  # noqa: E731
    monkeypatch.setitem(LEAVES["lattice"], "signature", (handler, ()))
    code, out = run_cli(["lattice", "signature", "-i", "u3_lattice.json"], capsys)
    assert code == 2
    assert out.count("\n") == 1
    error = json.loads(out, parse_constant=pytest.fail)["error"]
    assert error["type"] == "numerical" and error["message"].startswith("the result is not finite")


def test_irrational_picard_negative_height_exit_1(tmp_path):
    # height 0 is the vacuous verdict; a negative bound is refused before any search
    job = {"lattice": "U3", "point": CONE_JOB["point"]}
    code, out = _run_fresh(["irrational", "picard", "--height=-3"], job, tmp_path)
    assert code == 1
    assert out["error"] == {"type": "domain", "message": "height bound must be >= 0"}


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["walls", "enum", "--square", "0"], WALLS_JOB),
        (["walls", "enum", "--square", "-4"], WALLS_JOB),
        (["walls", "ueps", "--eps", "0"], UEPS_JOB),
        (["lattice", "signature", "--height", "5", "--tol-relation", "3"], {"lattice": "U3"}),
        (["lattice", "signature", "--seed", "3"], {"lattice": "U3"}),
        (["cech", "solve", "--tol-iso", "1e-3"], json.loads((FIXTURES / "cech_solve_octahedron.json").read_text())),
        (["walls", "enum", "--config", "c.json"], WALLS_JOB),
        (["llv", "e", "--tol-lie", "1e-7"], {"ring": "k3", "eta": [1, 1] + [0] * 20}),
    ],
    ids=[
        "walls-enum-square-flag",
        "walls-enum-square-flag-beside-payload",
        "walls-ueps-eps-flag",
        "lattice-signature-search-flags",
        "lattice-signature-seed",
        "cech-solve-tolerance",
        "walls-enum-config",
        "llv-e-tolerance",
    ],
)
def test_data_flag_is_usage_error_exit_3(argv, payload, tmp_path):
    # data values travel in the payload; search flags, tolerances, the seed and
    # the config file exist only where a handler reads them
    code, out = _run_fresh(argv, payload, tmp_path)
    assert code == 3
    assert out["error"]["type"] == "usage"


DETECT_JOB = {"vectors": [[1.0, 2**0.5, 0.5]], "mode": "detect"}
FULL_RANK_JOB = {"vectors": [[1.0, 0.0], [0.0, 1.0]]}
PICARD_JOB = {"lattice": "U3", "point": CONE_JOB["point"]}


@pytest.mark.parametrize(
    "argv,payload,message",
    [
        (["irrational", "closure", "--tol-relation", "inf"], DETECT_JOB, "tolerance must be positive and finite"),
        (["irrational", "closure", "--tol-relation", "nan"], DETECT_JOB, "tolerance must be positive and finite"),
        (
            ["irrational", "picard", "--height", "1", "--tol-relation", "inf"],
            PICARD_JOB,
            "tolerance must be positive and finite",
        ),
        (["irrational", "test", "--tol-relation", "nan"], FULL_RANK_JOB, "tolerance must be positive and finite"),
        (["irrational", "test", "--height", "-5"], FULL_RANK_JOB, "height bound must be >= 1"),
        (
            ["irrational", "test", "--tol-relation", "1e-310"],
            FULL_RANK_JOB,
            "tolerance 1e-310 is too small to scale the relation lattice",
        ),
        (["period", "sample", "--seed", "-1"], {"lattice": "U3"}, "seed must be a non-negative integer, got -1"),
        (["llv", "fujiki", "--seed", "-1"], {"ring": "k3"}, "seed must be a non-negative integer, got -1"),
    ],
    ids=[
        "irrational-closure-inf-tolerance",
        "irrational-closure-nan-tolerance",
        "irrational-picard-inf-tolerance",
        "irrational-test-nan-tolerance-full-rank",
        "irrational-test-negative-height-full-rank",
        "irrational-test-subnormal-tolerance",
        "period-sample-negative-seed",
        "llv-fujiki-negative-seed",
    ],
)
def test_bad_relation_search_budget_exit_1(argv, payload, message, tmp_path):
    # refused before any search, the full-rank shortcut of `irrational test` included
    code, out = _run_fresh(argv, payload, tmp_path)
    assert code == 1
    assert out["error"] == {"type": "domain", "message": message}


# the ring of a rank-one lattice <2>: unit, one degree-2 class x, point class
SMALL_RING = {
    "m": 1,
    "degrees": [0, 2, 4],
    "structure_constants": [
        [0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [0, 2, 2, 1], [2, 0, 2, 1], [1, 1, 2, 2]
    ],
    "integration": [0, 0, 1],
    "lattice_block": {"indices": [1], "gram": [[2]]},
}


def _ring_with(**changes):
    block = {**SMALL_RING["lattice_block"], **changes.pop("lattice_block", {})}
    return {**SMALL_RING, **changes, "lattice_block": block}


@pytest.mark.parametrize(
    "argv,ring",
    [
        (["llv", "e"], _ring_with(structure_constants=[[1, 1, 9, 1]])),
        (["llv", "f"], _ring_with(structure_constants=[[1, 1, 9, 1]])),
        (["llv", "e"], _ring_with(lattice_block={"indices": [7]})),
        (["llv", "fujiki"], _ring_with(lattice_block={"indices": [7]})),
        (["llv", "fujiki"], _ring_with(lattice_block={"indices": [1, 1], "gram": [[2, 0], [0, 2]]})),
        (["llv", "fujiki"], _ring_with(lattice_block={"indices": [0]})),
        (["llv", "fujiki"], _ring_with(integration=[0, 1])),
        (["llv", "e"], _ring_with(structure_constants=[[1, 1, 2]])),
    ],
    ids=[
        "e-product-index-past-basis",
        "f-product-index-past-basis",
        "e-lattice-index-past-basis",
        "fujiki-lattice-index-past-basis",
        "fujiki-repeated-lattice-index",
        "fujiki-lattice-index-off-degree-2",
        "fujiki-short-integration",
        "e-product-not-a-quadruple",
    ],
)
def test_malformed_ring_exit_1(argv, ring, tmp_path):
    code, out = _run_fresh(argv, {"ring": ring, "eta": [1]}, tmp_path)
    assert code == 1
    assert out["ok"] is False and out["error"]["type"] == "domain"


def test_small_ring_payload_is_well_formed(tmp_path):
    # the ring the malformed cases above start from: e_x sends 1 to x and x to 2 pt
    code, out = _run_fresh(["llv", "e"], {"ring": SMALL_RING, "eta": [1]}, tmp_path)
    assert code == 0
    assert out["result"]["matrix"] == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]


@pytest.mark.parametrize("leaf", ["e", "f"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_eta_exit_1(leaf, value, tmp_path):
    # the decoder refuses the payload's NaN/Infinity literal before any operator is built
    code, out = _run_fresh(["llv", leaf], {"ring": "k3", "eta": [value] + [0] * 21}, tmp_path)
    assert code == 1
    message = f"a scalar must be a finite number or a 'p/q' string, got {value!r}"
    assert out["error"] == {"type": "domain", "message": message}


@pytest.mark.parametrize("name", ["rank1", "rescale"])
def test_parameterized_lattice_name_is_domain_error(name, tmp_path):
    code, out = _run_fresh(["lattice", "signature"], {"lattice": name}, tmp_path)
    assert code == 1
    assert out["error"]["type"] == "domain"
    assert "U, E8, K3 or U3" in out["error"]["message"]


def test_walls_enum_oversized_radius_fails_fast(tmp_path):
    # ~5e15 lattice points by the volume estimate: refused before any enumeration
    job = json.loads((FIXTURES / "walls_enum_job.json").read_text())
    job["radius"] = 100000
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hkgeom.cli", "walls", "enum", "-i", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=5,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one JSON object
    assert out["error"]["type"] == "domain"
    assert "budget" in out["error"]["message"]
    assert "Traceback" not in proc.stderr


def _wide_ring(dim):
    """A ring payload of the given dim: a U lattice block, unit products and one cup product."""
    units = [[0, i, i, 1] for i in range(dim)] + [[i, 0, i, 1] for i in range(1, dim)]
    return {
        "m": 1,
        "degrees": [0] + [2] * (dim - 2) + [4],
        "structure_constants": units + [[1, 2, dim - 1, 1], [2, 1, dim - 1, 1]],
        "integration": [0] * (dim - 1) + [1],
        "lattice_block": {"indices": [1, 2], "gram": [[0, 1], [1, 0]]},
    }


@pytest.mark.parametrize(
    "argv,dim,fields",
    [
        (["llv", "closure"], 15_000, {"full": True}),
        (["llv", "closure"], 3_000, {"full": True}),
        (["llv", "e"], 3_000, {"eta": [1, 0]}),
        (["llv", "f"], 3_000, {"eta": [1, 1]}),
    ],
    ids=["closure-15000", "closure-3000", "e-3000", "f-3000"],
)
def test_ring_past_the_dense_budget_is_refused_fast(argv, dim, fields, tmp_path, capsys):
    # the payload decodes, and the leaf refuses it before allocating a dim x dim operator
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"ring": _wide_ring(dim), **fields}))
    start = time.perf_counter()
    code = main([*argv, "-i", str(path)])
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["type"] == "domain"
    assert f"ring of dim {dim} needs up to {8 * dim**2 * 600} bytes" in out["error"]["message"]
    assert "above the budget of 1073741824 bytes" in out["error"]["message"]


def test_walls_ueps_subcommand(tmp_path, capsys):
    job = {
        "lattice": json.loads((FIXTURES / "u3_lattice.json").read_text()),
        "span": json.loads((FIXTURES / "diagonal_plane_u3.json").read_text())["span"],
        "vector": [1, -1, 0, 0, 0, 0],
        "eps": 0.5,
    }
    path = tmp_path / "ueps.json"
    path.write_text(json.dumps(job))
    code = main(["walls", "ueps", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["contains"] is True


def test_irrational_subcommands(tmp_path, capsys):
    job = {"vectors": [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]], "mode": "exact"}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(job))
    code = main(["irrational", "closure", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["closure_dim"] == 2
    code = main(["irrational", "test", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["fully_irrational"] is False


@pytest.mark.parametrize("op", ["closure", "test"])
def test_irrational_leaf_answers_on_an_entry_of_1e300(op, tmp_path, capsys):
    # the relation lattice's N w_j / scale overflowed to inf before the division: a traceback, no stdout
    path = tmp_path / "job.json"
    path.write_text('{"vectors": [[1e300, 1.0, 2.0]], "mode": "detect"}')
    code = main(["irrational", op, "-i", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"] is True


def test_llv_deligne_reads_its_orthogonality_tolerance(tmp_path, capsys):
    # a point 1e-11 off the diagonal plane is on its conic at the default tol.orth, not at 1e-14
    span = json.loads((FIXTURES / "diagonal_plane_k3.json").read_text())["span"]
    re = list(span[0])
    re[6] = 1e-11
    path = tmp_path / "deligne.json"
    path.write_text(json.dumps({"ring": "k3", "span": span, "point": {"re": re, "im": span[1]}}))
    assert main(["llv", "deligne", "-i", str(path)]) == 0
    capsys.readouterr()
    assert main(["llv", "deligne", "--tol-orth", "1e-14", "-i", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "domain", "message": "period point does not lie on the conic of the closure plane"}


def test_period_convert_round_trip(tmp_path, capsys):
    job = {
        "lattice": json.loads((FIXTURES / "u3_lattice.json").read_text()),
        "point": {"re": [1, 1, 0, 0, 0, 0], "im": [0, 0, 1, 1, 0, 0]},
    }
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(job))
    code = main(["period", "convert", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    plane = json.loads(out)["result"]["plane"]
    job2 = {"lattice": job["lattice"], "plane": plane}
    path.write_text(json.dumps(job2))
    code = main(["period", "convert", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    point = json.loads(out)["result"]["point"]
    assert point["re"] == pytest.approx([x / 2**0.5 for x in [1, 1, 0, 0, 0, 0]])


def test_fixtures_are_current():
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "regen_fixtures.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_console_script_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "hkgeom.cli", "lattice", "signature", "-i",
         str(FIXTURES / "u3_lattice.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"] == [3, 3]
