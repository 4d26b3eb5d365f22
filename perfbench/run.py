"""hkgeom benchmark: one workload, end to end, with every output checked.

    python3 perfbench/run.py --workload k3-llv --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; hkgeom is imported from ./src,
never from an installed copy. Set-up is timed in this process and in four
fresh probe processes (median reported). The workload's job lists (passes,
each drawn from the seed) then run round after round by one closed-loop
client with single-threaded BLAS; the number of passes and rounds is fixed
by the workload and --seconds. Job times are scaled by a speed probe timed
between jobs (speed.py); every untraced execution of a job is one latency
sample (README.md). Each job is checked against an independent reference
outside the timed region; a wrong output ends the run with exit code 1.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every odd round runs with spans around the library's public
functions and the line carries the per-layer metrics instead. Details,
provenance and the output digest are printed on the lines before it and
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One client, no extra threads: pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Both seeds verify; claims of a gain are checked on the held-out one too.
DEFAULT_SEED, HELD_OUT_SEED = 1, 2
# Rounds per run: every pass runs once per round, and every round of a job
# must give the same verified output.
ROUNDS = {"cli-golden": 4, "k3-llv": 3, "period-chains": 3, "lattice-search": 4}
# Measured length of one pass on the reference machine (see README.md). The
# pass count is round(seconds / (rounds * this)), fixed for a given --seconds.
PASS_SECONDS = {"cli-golden": 4.5, "k3-llv": 7.0, "period-chains": 0.75, "lattice-search": 5.0}
SETUP_PROBES = 4
PROBE_EVERY_S = 0.2
# A job's time is scaled by the mean of the probes taken from this long
# before it starts to this long after it ends (README.md, Noise).
PROBE_WINDOW_S = 2.0
IMPORT_PROBES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / (ROUNDS[workload] * PASS_SECONDS[workload])))


def nearest_rank(sorted_values: list, pct: float):
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def tail(values: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile of
    PERCENTILES that still leaves at least ten samples beyond it; the
    maximum (percentile 100) when there are too few samples for any."""
    s = sorted(values)
    best = (100, s[-1], 0)
    for pct in PERCENTILES:
        value = nearest_rank(s, pct)
        beyond = sum(1 for v in s if v > value)
        if beyond >= 10:
            best = (pct, value, beyond)
    return best


def provenance(seed: int) -> dict:
    import numpy
    import sympy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True)
        git = {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.CalledProcessError):
        pass  # a plain source tree: the src digest below identifies the code
    src = hashlib.sha256()
    for path in sorted((SRC / "hkgeom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
        "src_sha256": src.hexdigest(),
    }


def import_library():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hkgeom

    if not Path(hkgeom.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hkgeom was imported from {hkgeom.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(args) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes doing this run's set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        p = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        out.append(json.loads(p.stdout.splitlines()[-1])["setup_s"])
    return out


def probe_import_ms(env: dict) -> float:
    """Fresh-process `import hkgeom.cli` minus a bare interpreter, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, acc in (("pass", bare), ("import hkgeom.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            acc.append(time.perf_counter() - t0)
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def run_rounds(workloads, passes, repeats: int, rec, trace: bool) -> dict:
    """Run every pass once per round, `repeats` rounds; check every execution.

    Every execution is checked, and all executions of a job must give the
    same verified output. Between jobs, at most every PROBE_EVERY_S, a fixed
    computation that does not touch hkgeom is timed (speed.py); each job's
    time is scaled by the reference time expected on the reference machine
    over the mean of the probes within PROBE_WINDOW_S of it (always the two
    probes just before and just after it). Every untraced execution is one
    latency sample, and every untraced run of a pass one pass-time sample.
    With trace, odd rounds run with spans installed and only count towards
    the per-layer figures and the tracing overhead.
    """
    import speed  # imports numpy, whose import time belongs to setup_s

    texts = [[None] * len(jobs) for jobs in passes]
    job_ids = [sum(len(jobs) for jobs in passes[:p]) for p in range(len(passes))]
    executions = []  # (round, pass, job, start, seconds, index of the probe before it, traced)
    probes = [speed.probe_seconds()]
    probe_at = [time.perf_counter()]
    failures: dict[str, int] = {}
    attempted = failed = 0
    for r in range(repeats):
        traced = trace and r % 2 == 1
        if traced:
            rec.install()
        try:
            for p, jobs in enumerate(passes):
                for i, job in enumerate(jobs):
                    rec.job_id = job_ids[p] + i
                    t0 = time.perf_counter()
                    try:
                        out = job.run_traced(rec) if traced and job.run_traced else job.run()
                    except workloads.DOCUMENTED_ERRORS as err:
                        dt = time.perf_counter() - t0
                        text = f"error {type(err).__name__}: {err}"
                        failures[f"{job.kind}: {text}"] = failures.get(f"{job.kind}: {text}", 0) + 1
                        failed += 1
                    else:
                        dt = time.perf_counter() - t0
                        try:
                            text = job.check(out)
                        except workloads.checks.CheckFailed as err:
                            raise WrongOutput(f"round {r} pass {p} job {i} ({job.kind}): {err}") from err
                    attempted += 1
                    executions.append((r, p, i, t0, dt, len(probes) - 1, traced))
                    if texts[p][i] is None:
                        texts[p][i] = text
                    elif texts[p][i] != text:
                        raise WrongOutput(f"round {r} pass {p} job {i} ({job.kind}): output changed "
                                          f"between repeats: {texts[p][i]!r} then {text!r}")
                    if time.perf_counter() - probe_at[-1] >= PROBE_EVERY_S:
                        probes.append(speed.probe_seconds())
                        probe_at.append(time.perf_counter())
        finally:
            rec.uninstall()
    probes.append(speed.probe_seconds())
    probe_at.append(time.perf_counter())
    per_round = [0.0] * repeats
    latencies, raw_latencies = [], []
    pass_s: dict[tuple, float] = {}
    raw_pass_s: dict[tuple, float] = {}
    kind_ms: dict[str, list[float]] = {}
    for r, p, i, t0, dt, k, traced in executions:
        lo = min(k, bisect.bisect_left(probe_at, t0 - PROBE_WINDOW_S))
        hi = max(k + 2, bisect.bisect_right(probe_at, t0 + dt + PROBE_WINDOW_S))
        scaled = dt * speed.REFERENCE_SECONDS / statistics.fmean(probes[lo:hi])
        per_round[r] += scaled
        if not traced:
            latencies.append(scaled)
            raw_latencies.append(dt)
            pass_s[r, p] = pass_s.get((r, p), 0.0) + scaled
            raw_pass_s[r, p] = raw_pass_s.get((r, p), 0.0) + dt
            kind_ms.setdefault(passes[p][i].kind, []).append(1e3 * scaled)
    traced_rounds = {r for r, *_, traced in executions if traced}
    round_s = {
        "untraced": [t for r, t in enumerate(per_round) if r not in traced_rounds],
        "traced": [t for r, t in enumerate(per_round) if r in traced_rounds],
    }
    digest = hashlib.sha256()
    for p, jobs in enumerate(passes):
        for i, job in enumerate(jobs):
            digest.update(f"{p}:{i}:{job.kind}:{texts[p][i]}\n".encode())
    return {
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "pass_s": list(pass_s.values()),
        "raw_pass_s": list(raw_pass_s.values()),
        "round_s": round_s,
        "probes_s": probes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "kind_ms": kind_ms,
        "digest": digest.hexdigest(),
    }


class WrongOutput(Exception):
    pass


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hkgeom benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=list(ROUNDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for checking a claimed gain)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hkgeom" / "__init__.py").is_file() or not (ROOT / "fixtures" / "golden").is_dir():
        print(f"perfbench: no hkgeom source tree (src/hkgeom, fixtures/golden) under {ROOT}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    n_passes = passes_for(args.workload, args.seconds)
    rounds = ROUNDS[args.workload]
    t0 = time.perf_counter()
    workloads = import_library()
    try:
        passes = workloads.SETUP[args.workload](args.seed, n_passes)
    except workloads.checks.CheckFailed as err:
        print(f"perfbench: WRONG OUTPUT during warm-up: {err}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
        return 1
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        emit({"setup_s": setup_s})
        return 0

    import tracing

    rec = tracing.Recorder()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={n_passes} rounds={rounds} jobs/pass={len(passes[0])}", flush=True)
    try:
        res = run_rounds(workloads, passes, rounds, rec, trace)
    except WrongOutput as err:
        print(f"perfbench: WRONG OUTPUT {err}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
        return 1
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-golden" else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    setup_samples = [setup_s] + ([] if trace else probe_setup(args))

    attempted, failed = res["attempted"], res["failed"]
    ms = sorted(1e3 * x for x in res["latencies"])
    pct, tail_ms, beyond = tail(ms)
    details = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "passes": n_passes,
        "rounds": rounds,
        "executions": attempted,
        "failed": failed,
        "failures": res["failures"],
        "digest": res["digest"],
        "job_p50_ms": statistics.median(ms),
        "job_tail": {"percentile": pct, "ms": tail_ms, "samples_beyond": beyond, "samples": len(ms)},
        "pass_seconds": res["pass_s"],
        "unscaled": {
            "run_s": statistics.median(res["raw_pass_s"]),
            "job_p50_ms": 1e3 * statistics.median(res["raw_latencies"]),
            "job_tail_ms": tail(sorted(1e3 * x for x in res["raw_latencies"]))[1],
            "speed_probe_median_s": statistics.median(res["probes_s"]),
        },
        "round_seconds": res["round_s"],
        "job_ms_by_kind": {k: {"median": statistics.median(v), "samples": len(v)}
                           for k, v in sorted(res["kind_ms"].items())},
        "setup_samples_s": setup_samples,
    }
    if trace:
        metrics = trace_metrics(rec, res["round_s"], workloads.child_env(), tracing)
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "run_s": (statistics.median(res["pass_s"]), "s"),
            "job_p50_ms": (statistics.median(ms), "ms"),
            "job_tail_ms": (tail_ms, "ms"),
            "success_share": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    details["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print("provenance " + json.dumps(details["provenance"], sort_keys=True))
    print(f"samples={len(ms)} executions={attempted} failed={failed} p50={details['job_p50_ms']:.3f}ms "
          f"tail=p{pct}={tail_ms:.3f}ms ({beyond} of {len(ms)} beyond)")
    for what, count in sorted(res["failures"].items()):
        print(f"documented error x{count}: {what}")
    print(f"digest {args.workload} seed={args.seed} passes={n_passes} sha256={res['digest']}")
    emit({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


def trace_metrics(rec, round_s, env, tracing) -> dict:
    layer = tracing.layer_metrics(rec)
    out = {}
    for name, unit in tracing.per_layer_metric_names():
        if name == "cli.import_ms":
            value = probe_import_ms(env)
        elif name == "trace.overhead_share":
            value = statistics.median(round_s["traced"]) / statistics.median(round_s["untraced"]) - 1.0
        elif name == "period.sample_irrational_line.useful_share":
            calls = layer.get("period.sample_irrational_line.calls", 0)
            bad = layer.get("period.sample_irrational_line.failed", 0)
            value = (calls - bad) / calls if calls else 0.0
        elif name == "cli.main.self_ms":
            value = 1e3 * layer.get("cli.main.self_s", 0.0)
        elif name.endswith(".busy_ms"):
            value = 1e3 * layer.get(name[: -len(".busy_ms")] + ".busy_s", 0.0)
        else:
            value = layer.get(name, 0)
        out[name] = (value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
