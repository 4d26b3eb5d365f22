"""The verdict rule of scripts/bench_compare.py, on recorded run values (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_compare", REPO / "scripts" / "bench_compare.py")
bc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bc)

END_TO_END = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
# ten runs' job_p50_ms and run_s, in the range that lattice-search seed 1 reads
PARENT_P50 = [0.1385, 0.1317, 0.1402, 0.1356, 0.1298, 0.1371, 0.1420, 0.1339, 0.1365, 0.1310]
PARENT_RUN_S = [0.1173, 0.1210, 0.1190, 0.1168, 0.1251, 0.1202, 0.1185, 0.1231, 0.1177, 0.1199]


def _runs(p50, run_s, digest="d0"):
    return [{"metrics": {"setup_s": 0.17, "run_s": r, "job_p50_ms": p, "job_tail_ms": 1.7,
                         "success_share": 0.994, "peak_rss_mb": 43.5}, "digest": digest}
            for p, r in zip(p50, run_s)]


def test_a_tree_against_itself_has_no_metric_past_its_bound():
    runs = _runs(PARENT_P50, PARENT_RUN_S)
    result = bc.compare_runs(runs, runs, END_TO_END)
    assert result["digests_match"]
    for name, m in result["metrics"].items():
        assert m["verdict"] in ("within bound", "unresolved"), name
        assert m["won"] == m["lost"] == 0 and m["change_vs_parent"] == 0


def test_a_consistent_drop_past_the_parent_spread_is_better():
    change = [0.8 * x for x in PARENT_P50]
    m = bc.compare_metric(PARENT_P50, change, "lower", 0.25)
    assert m["verdict"] == "better" and (m["won"], m["lost"], m["pairs"]) == (10, 0, 10)
    assert m["change"]["median"] == pytest.approx(0.8 * m["parent"]["median"])


def test_nine_of_ten_pairs_is_enough_and_eight_is_not():
    change = [0.8 * x for x in PARENT_P50]
    change[0] = 0.2  # one pair lost
    assert bc.compare_metric(PARENT_P50, change, "lower", 0.25)["verdict"] == "better"
    change[1] = PARENT_P50[1]  # a tie counts for neither side
    m = bc.compare_metric(PARENT_P50, change, "lower", 0.25)
    assert (m["won"], m["lost"]) == (8, 1) and m["verdict"] != "better"


def test_a_drop_inside_the_parent_spread_is_not_better():
    change = [x - 0.002 for x in PARENT_P50]  # wins every pair, but moves less than the IQR
    m = bc.compare_metric(PARENT_P50, change, "lower", 0.25)
    assert m["won"] == 10 and m["verdict"] == "within bound"


def test_a_rise_past_the_bound_is_worse_in_either_direction():
    assert bc.compare_metric(PARENT_RUN_S, [1.3 * x for x in PARENT_RUN_S], "lower", 0.25)["verdict"] == "worse"
    shares = [0.994] * 10
    assert bc.compare_metric(shares, [0.95] * 10, "higher", 0.02)["verdict"] == "worse"
    assert bc.compare_metric(shares, [0.99] * 10, "higher", 0.02)["verdict"] == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bc.compare_metric(wide, list(reversed(wide)), "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run reads better than every parent run
    assert bc.compare_metric(wide, [0.9] * 10, "lower", 0.25)["verdict"] == "within bound"


def test_digests_that_differ_are_reported():
    result = bc.compare_runs(_runs(PARENT_P50, PARENT_RUN_S), _runs(PARENT_P50, PARENT_RUN_S, "d1"), END_TO_END)
    assert not result["digests_match"] and result["digests"] == ["d0", "d1"]


def test_kind_summary_takes_medians_over_runs_and_shares_of_the_pass():
    # three runs' job_ms_by_kind in the shape of a k3-llv pass: 40 so5 closures, 80 Hodge splittings, one full closure
    runs = [{"job_ms_by_kind": {"so5_closure": {"median": so5, "samples": 40},
                                "hodge_decompose": {"median": hodge, "samples": 80},
                                "full_llv_closure": {"median": full, "samples": 1}}}
            for so5, hodge, full in [(1.80, 0.18, 0.40), (1.74, 0.17, 0.35), (1.85, 0.19, 0.45)]]
    kinds = bc.kind_summary(runs)
    assert list(kinds) == ["full_llv_closure", "hodge_decompose", "so5_closure"]
    assert [kinds[k]["median_ms"] for k in kinds] == [0.40, 0.18, 1.80]
    assert [kinds[k]["samples"] for k in kinds] == [1, 80, 40]
    total = 0.40 + 80 * 0.18 + 40 * 1.80  # 86.8 ms of jobs a pass
    assert kinds["so5_closure"]["share"] == pytest.approx(72.0 / total)
    assert kinds["hodge_decompose"]["share"] == pytest.approx(14.4 / total)
    assert sum(k["share"] for k in kinds.values()) == pytest.approx(1.0)
    # a kind some runs lack is summarized over the runs that have it
    runs[0]["job_ms_by_kind"]["deligne+weights"] = {"median": 0.5, "samples": 1}
    assert bc.kind_summary(runs)["deligne+weights"]["median_ms"] == 0.5
