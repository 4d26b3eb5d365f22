"""Spans around hkgeom's public functions, recorded from outside the library.

``Recorder.install`` replaces each listed function with a wrapper in every
hkgeom module that binds it (``llv`` and ``walls`` import ``gram_float``
from ``period``, for instance), and ``uninstall`` puts the originals back.
Spans (name, start, end, parent, job, failed) are kept in flat arrays in
memory and written out once, at the end of a run. ``layer_metrics`` turns
them into the per-layer figures: calls, self time (a span's duration minus
its direct children's) and failures per function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (module, function): calls, self_s and failed are reported for each.
SPAN_TARGETS = (
    ("llv", "lie_closure"),
    ("llv", "full_llv_closure"),
    ("llv", "so5_closure"),
    ("llv", "fujiki_constant"),
    ("llv", "sl2_residuals"),
    ("llv", "hodge_decompose"),
    ("period", "chain_connect"),
    ("period", "verify_chain"),
    ("period", "sample_period_point"),
    ("period", "sample_irrational_line"),
    ("walls", "enumerate_walls_near"),
    ("walls", "majorant"),
    ("lattice", "signature"),
    ("lattice", "spinor_norm_sign"),
    ("exactlin", "inertia"),
    ("exactlin", "smith_normal_form"),
    ("exactlin", "lll_reduce"),
    ("cech", "cohomology"),
    ("cech", "solve_coboundary"),
    ("irrational", "is_fully_irrational"),
    ("irrational", "rational_closure"),
    ("irrational", "picard_trivial"),
)
# gram_float runs on every float q/b evaluation: a span per call would
# dominate the trace, so it is only counted.
COUNTED = (("period", "gram_float"),)
SERIALIZE_PREFIXES = ("decode", "encode")
# Prefix of the stderr line on which a traced CLI child reports its spans.
SPAN_MARK = "PERFBENCH-SPANS "


def _links(rec, out):
    rec.add("period.chain_connect.links", len(out))


def _walls(rec, out):
    rec.add("walls.enumerate_walls_near.walls", len(out))


def _snf_bits(rec, out):
    _, u, v = out
    bits = max((abs(int(x)).bit_length() for m in (u, v) for row in m for x in row), default=0)
    rec.extra["exactlin.smith_normal_form.max_entry_bits"] = max(
        bits, rec.extra.get("exactlin.smith_normal_form.max_entry_bits", 0)
    )


INSPECT = {
    "period.chain_connect": _links,
    "walls.enumerate_walls_near": _walls,
    "exactlin.smith_normal_form": _snf_bits,
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [
        ("cli.import_ms", "ms"),
        ("cli.main.self_ms", "ms"),
        ("serialize.decode.busy_ms", "ms"),
        ("serialize.encode.busy_ms", "ms"),
    ]
    for mod, fn in SPAN_TARGETS:
        base = f"{mod}.{fn}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s"), (f"{base}.failed", "count")]
        if base == "period.sample_irrational_line":
            out.append((f"{base}.useful_share", "share"))
    out += [
        ("exactlin.smith_normal_form.max_entry_bits", "count"),
        ("period.chain_connect.links", "count"),
        ("walls.enumerate_walls_near.walls", "count"),
    ]
    out += [(f"{mod}.{fn}.calls", "count") for mod, fn in COUNTED]
    out.append(("trace.overhead_share", "share"))
    return out


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.extra: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        inspect = INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if inspect is not None:
                inspect(self, out)
            return out

        return traced

    def count(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(key, 1)
            return fn(*args, **kwargs)

        return counted

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hkgeom" and not mod_name.startswith("hkgeom."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self, with_cli: bool = False) -> None:
        """Wrap every target; with_cli adds cli.main and the serialize codecs."""
        for mod, _ in SPAN_TARGETS + COUNTED:
            importlib.import_module(f"hkgeom.{mod}")
        for mod, fn in SPAN_TARGETS:
            original = getattr(sys.modules[f"hkgeom.{mod}"], fn)
            self._patch_everywhere(original, self.wrap(f"{mod}.{fn}", original))
        for mod, fn in COUNTED:
            original = getattr(sys.modules[f"hkgeom.{mod}"], fn)
            self._patch_everywhere(original, self.count(f"{mod}.{fn}", original))
        if with_cli:
            ser = importlib.import_module("hkgeom.serialize")
            for attr, value in list(vars(ser).items()):
                prefix = attr.split("_", 1)[0]
                if prefix in SERIALIZE_PREFIXES and getattr(value, "__module__", "") == ser.__name__:
                    self._patch_everywhere(value, self.wrap(f"serialize.{prefix}", value))
            cli = importlib.import_module("hkgeom.cli")
            self._patch_everywhere(cli.main, self.wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- export and merge ----------------------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "job": list(self.job),
            "failed": list(self.failed),
            "start": list(self.start),
            "end": list(self.end),
            "extra": self.extra,
        }

    def merge(self, other: dict) -> None:
        """Append spans recorded in another process (a traced CLI child)."""
        offset = len(self.start)
        ids = [self._name_id(n) for n in other["names"]]
        for i in range(len(other["start"])):
            self.name.append(ids[other["name"][i]])
            p = other["parent"][i]
            self.parent.append(p + offset if p >= 0 else -1)
            self.job.append(other["job"][i])
            self.failed.append(other["failed"][i])
            self.start.append(other["start"][i])
            self.end.append(other["end"][i])
        for key, value in other["extra"].items():
            if key.endswith("max_entry_bits"):
                self.extra[key] = max(value, self.extra.get(key, 0))
            else:
                self.add(key, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(self.export(), fh)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-name calls, failures, self seconds and outermost-span busy seconds."""
    n = len(rec.start)
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    out: dict[str, float] = {}
    for i in range(n):
        name = rec.names[rec.name[i]]
        dur = rec.end[i] - rec.start[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + rec.failed[i]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
        p = rec.parent[i]
        while p >= 0 and rec.name[p] != rec.name[i]:
            p = rec.parent[p]
        if p < 0:
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + dur
    out.update(rec.extra)
    return out
