#!/usr/bin/env python3
"""Alternating parent/change runs of the unchanged benchmark, with a verdict per metric.

    python3 scripts/bench_compare.py --parent REV --workload W --pairs N --seed S [--out FILE]

Both trees are exported with ``git archive`` into a temporary directory, and
each runs its own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` (T is ``run_seconds`` of BENCHMARK.json). The side that runs
first alternates from pair to pair. The change is the working tree's
tracked files (``git stash create``, or HEAD on a clean tree), so stage new
files first.

The result is merged into ``--out`` (default BENCH.json) under the key
"W seed S": per end-to-end metric, each side's median and quartiles, the
pairs the change won and lost (ties count for neither), and a verdict;
whether every run printed the same digest; each run's metrics, digest and
per-kind job medians (``job_ms_by_kind``); and per side and job kind, the
median over runs of that kind's job median and its share of the pass. The
verdicts follow this rule for a claimed gain and for a regression:

- "better": the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
- "worse": the change's median is worse than the parent's by more than the
  metric's bound (relative to the parent's median);
- "unresolved": neither, and the parent's interquartile range is wider than
  the bound, unless every change run reads better than every parent run;
- "within bound": otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary and verdict for one metric over paired runs; ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change reads better
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    iqr, scale = p3 - p1, abs(p_med)
    gain = sign * (p_med - c_med)
    if won >= WIN_SHARE * len(gains) and gain > iqr:
        verdict = "better"
    elif -gain > bound * scale:
        verdict = "worse"
    elif iqr > bound * scale and not min(sign * (p - c) for p in parent for c in change) > 0:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": p_med, "quartiles": [p1, p3]},
        "change": {"median": c_med, "quartiles": [c1, c3]},
        "change_vs_parent": c_med / p_med - 1 if p_med else None,
        "pairs": len(gains),
        "won": won,
        "lost": lost,
        "bound": bound,
        "verdict": verdict,
    }


def compare_runs(parent_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of paired run records ({"metrics": {name: value}, "digest": str})."""
    digests = {r["digest"] for r in parent_runs} | {r["digest"] for r in change_runs}
    metrics = {
        m["name"]: compare_metric([r["metrics"][m["name"]] for r in parent_runs],
                                  [r["metrics"][m["name"]] for r in change_runs], m["better"], m["bound"])
        for m in end_to_end
    }
    return {"digests_match": len(digests) == 1, "digests": sorted(digests), "metrics": metrics}


def kind_summary(runs: list[dict]) -> dict:
    """Per job kind over one side's runs: the median of its per-run job medians, its jobs per run,
    and its share of the pass, median x jobs over the sum of that product across the kinds."""
    kinds: dict[str, list[dict]] = {}
    for r in runs:
        for kind, stats in r["job_ms_by_kind"].items():
            kinds.setdefault(kind, []).append(stats)
    out = {kind: {"median_ms": statistics.median(s["median"] for s in stats),
                  "samples": statistics.median(s["samples"] for s in stats)}
           for kind, stats in sorted(kinds.items())}
    total = sum(k["median_ms"] * k["samples"] for k in out.values())
    for k in out.values():
        k["share"] = k["median_ms"] * k["samples"] / total if total else None
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not last.get("correct"):
        raise SystemExit(f"bench_compare: {workload} seed {seed} in {tree.name} failed:\n{proc.stderr[-2000:]}")
    digest = next(line.rsplit("sha256=", 1)[1] for line in lines if line.startswith("digest "))
    details = json.loads((tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()}, "digest": digest,
            "job_ms_by_kind": details["job_ms_by_kind"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="BENCH.json", help="JSON file to merge the result into")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    change = _git("stash", "create") or "HEAD"
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", change)}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_compare-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            _export(rev, trees[side])
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(_run(trees[side], args.workload, args.seed, bench["run_seconds"]))
            print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
                f"{side} job_p50_ms={runs[side][-1]['metrics']['job_p50_ms']:.4f}" for side in runs), flush=True)
    result = compare_runs(runs["parent"], runs["change"], bench["end_to_end"])
    result.update(revisions=revs, trees={side: _git("rev-parse", f"{rev}^{{tree}}") for side, rev in revs.items()},
                  seconds=bench["run_seconds"], runs=runs, kinds={side: kind_summary(runs[side]) for side in runs})
    out = Path(args.out)
    merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    merged[f"{args.workload} seed {args.seed}"] = result
    out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"({m['won']}/{m['lost']} of {m['pairs']}) {m['verdict']}")
    for kind, p in result["kinds"]["parent"].items():
        c = result["kinds"]["change"].get(kind)
        print(f"{kind}: {p['median_ms']:.4g} ms ({p['share']:.1%})" + (
            f" -> {c['median_ms']:.4g} ms ({c['share']:.1%})" if c else " -> absent"))
    print(f"digests match: {result['digests_match']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
