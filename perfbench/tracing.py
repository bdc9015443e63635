"""Traced runs: spans recorded by wrappers on polyrho's public module attributes.

Callers inside polyrho look these attributes up at call time (``moments.
moment_table(...)``, ``content.rho_n(...)``, module-global ``polygon_new``), so a
wrapper set with ``setattr`` sees every call; nothing under ``src/`` changes.
Each span holds name, layer, start, end, parent and op id.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the part its child spans cover (children never overlap: one
thread).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict

from mpmath import mp

LAYERS = ("geometry", "moments", "content", "oracle", "extremal", "cli")

# (layer, owner attribute path, attribute names)
TARGETS = (
    ("moments", "moments", ("moment_table", "save_table", "load_table", "cross_check")),
    ("content", "content", ("rho_n", "rho_n_telescoping", "rho1_closed", "rho2_closed")),
    ("oracle", "oracle", ("oracle_rho_n", "quad_moment", "triangulate")),
    ("geometry", "geometry", ("polygon_new",)),
    ("geometry", "geometry.FamilySpec", ("build",)),
    ("extremal", "extremal", ("sweep_family", "sweep_fixed_base", "sweep_fixed_angle",
                              "pentagon_grid", "maximize_1d")),
    ("cli", "cli", ("main",)),
)
SWEEPS = {"sweep_family", "sweep_fixed_base", "sweep_fixed_angle", "pentagon_grid"}
CLOSED = {"rho1_closed", "rho2_closed"}
COND_CAP = 308.0   # log10 of the largest float; condition estimates can be inf

PER_LAYER_UNITS = {
    "moments.table_calls": "count", "moments.table_s": "s", "moments.table_share": "ratio",
    "moments.entries_built": "count", "moments.maxdeg_max": "degree",
    "moments.bits_max": "bits", "moments.read_frac": "ratio",
    "moments.cache_load_s": "s", "moments.cache_save_s": "s", "moments.cross_check_s": "s",
    "content.cholesky_s": "s", "content.telescoping_s": "s", "content.closed_s": "s",
    "content.cond_log10_max": "log10", "content.path_agree_digits_min": "digits",
    "geometry.build_calls": "count", "geometry.build_s": "s",
    "extremal.points": "count", "extremal.infeasible": "count",
    "extremal.rho_calls": "count/op", "extremal.sweep_s": "s", "extremal.maximize_s": "s",
    "oracle.rho_s": "s", "oracle.quad_moment_s": "s", "oracle.triangulate_s": "s",
    "oracle.failed": "count",
    "cli.main_s": "s", "cli.table_miss": "count", "cli.table_hit_frac": "ratio",
    "cli.overclaim_digits_max": "digits",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.trace_overhead_s": "s",
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.op = None          # id of the op now running
        self.op_kind = None
        self.values = {}        # span id -> rho value, for path agreement
        self.tables = {}        # id(table) -> (table, distinct entries read)
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    def _owner(self, path):
        obj = self.modules[path.split(".")[0]]
        for part in path.split(".")[1:]:
            obj = getattr(obj, part)
        return obj

    def install(self) -> None:
        for layer, path, names in TARGETS:
            owner = self._owner(path)
            for name in names:
                fn = getattr(owner, name)
                self._saved.append((owner, name, fn))
                setattr(owner, name, self._span_wrapper(fn, layer, name))
        table_cls = self.modules["moments"].MomentTable
        for name in ("c", "real"):
            fn = getattr(table_cls, name)
            self._saved.append((table_cls, name, fn))
            setattr(table_cls, name, self._read_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _span_wrapper(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "parent": tracer._stack[-1] if tracer._stack else None,
                    "op": tracer.op, "layer": layer, "name": name}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter() - tracer._t0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
            tracer._annotate(span, result)
            return result

        return wrapper

    def _read_wrapper(self, fn, name):
        tables = self.tables

        @functools.wraps(fn)
        def wrapper(table, m, n):
            entry = tables.get(id(table))
            if entry is not None:
                entry[1].add((name, m, n))
            return fn(table, m, n)

        return wrapper

    def _annotate(self, span, result) -> None:
        name = span["name"]
        if name == "moment_table":
            span["maxdeg"] = result.maxdeg
            span["bits"] = result.precision_bits
            span["entries"] = len(result.complex_entries) + len(result.real_entries)
            span["table"] = id(result)
            self.tables[id(result)] = (result, set())
        elif name in ("rho_n", "rho_n_telescoping"):
            res = result[0] if name == "rho_n_telescoping" else result
            cond = res.condition_estimate
            span["cond_log10"] = math.log10(cond) if 0 < cond < math.inf else COND_CAP
            span["bits"] = res.precision_bits
            self.values[span["id"]] = res.value
        elif name in SWEEPS:
            span["points"] = len(result.grid)
            span["infeasible"] = sum(v is None for v in result.values)
        elif name == "main":
            span["rc"] = result
            span["kind"] = self.op_kind

    def reset_reads(self) -> None:
        """Forget tables of finished passes (the read sets key on id())."""
        for span in self.spans:
            if "table" in span:
                span["reads"] = len(self.tables.pop(span.pop("table"))[1])

    def write(self, path) -> None:
        self.reset_reads()
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _tree(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    return children


def _duration(span) -> float:
    return span["end"] - span["start"]


def _self_time(span, children) -> float:
    return _duration(span) - sum(_duration(c) for c in children[span["id"]])


def _descendants(span, children):
    out = []
    stack = list(children[span["id"]])
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(children[s["id"]])
    return out


def _has_ancestor(span, by_id, names) -> bool:
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"] in names:
            return True
        parent = by_id[parent]["parent"]
    return False


def _agree_digits(a, b, bits) -> float:
    with mp.workprec(bits + 32):
        diff = abs(a - b)
        if diff == 0:
            return bits * math.log10(2)
        return float(-mp.log10(diff / abs(a)))


def pass_metrics(spans, values, pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    children = _tree(spans)
    by_id = {s["id"]: s for s in spans}
    self_s = {s["id"]: _self_time(s, children) for s in spans}

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_sum(*names):
        return sum(self_s[s["id"]] for s in named(*names))

    def outer(names):
        return [s for s in named(*names) if not _has_ancestor(s, by_id, names)]

    tables = named("moment_table")
    built = sum(s["entries"] for s in tables)
    table_s = self_sum("moment_table")
    m = {
        "moments.table_calls": len(tables),
        "moments.table_s": table_s,
        "moments.table_share": table_s / pass_wall,
        "moments.entries_built": built,
        "moments.maxdeg_max": max((s["maxdeg"] for s in tables), default=0),
        "moments.bits_max": max((s["bits"] for s in tables), default=0),
        "moments.read_frac": sum(s.get("reads", 0) for s in tables) / built if built else 0.0,
        "moments.cache_load_s": self_sum("load_table"),
        "moments.cache_save_s": self_sum("save_table"),
        "moments.cross_check_s": self_sum("cross_check"),
        "content.cholesky_s": self_sum("rho_n"),
        "content.telescoping_s": self_sum("rho_n_telescoping"),
        "content.closed_s": self_sum(*CLOSED),
        "content.cond_log10_max": max((s["cond_log10"] for s in spans if "cond_log10" in s),
                                      default=0.0),
        "geometry.build_calls": len(named("build")),
        "geometry.build_s": sum(_duration(s) for s in outer({"build"})),
        "oracle.rho_s": self_sum("oracle_rho_n"),
        "oracle.quad_moment_s": self_sum("quad_moment"),
        "oracle.triangulate_s": self_sum("triangulate"),
        "oracle.failed": sum(1 for s in named("oracle_rho_n") if "error" in s),
        "cli.main_s": self_sum("main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_s[s["id"]] for s in spans if s["layer"] == layer)

    sweeps = outer(SWEEPS)
    extremal_ops = outer(SWEEPS | {"maximize_1d"})
    m["extremal.points"] = sum(s.get("points", 0) for s in sweeps)
    m["extremal.infeasible"] = sum(s.get("infeasible", 0) for s in sweeps)
    m["extremal.sweep_s"] = sum(_duration(s) for s in sweeps)
    m["extremal.maximize_s"] = sum(_duration(s) for s in outer({"maximize_1d"}))
    rho_calls = [sum(d["name"] == "rho_n" for d in _descendants(s, children))
                 for s in extremal_ops]
    m["extremal.rho_calls"] = statistics.fmean(rho_calls) if rho_calls else 0.0

    misses = hits = 0
    agree = []
    for main in named("main"):
        below = _descendants(main, children)
        names = {d["name"] for d in below}
        if "moment_table" in names:
            misses += 1
        elif "load_table" in names:
            hits += 1
        if main.get("kind") == "rho":
            direct = [d for d in below if d["name"] == "rho_n" and d["id"] in values]
            tele = [d for d in below if d["name"] == "rho_n_telescoping" and d["id"] in values]
            if direct and tele:
                agree.append(_agree_digits(values[direct[0]["id"]], values[tele[0]["id"]],
                                           direct[0]["bits"]))
    m["cli.table_miss"] = misses
    m["cli.table_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    m["content.path_agree_digits_min"] = min(agree, default=0.0)
    return m


def summarize(tracer: Tracer, traced_passes) -> dict:
    """Median over traced passes of each per-layer metric."""
    tracer.reset_reads()
    per_pass = []
    for p in traced_passes:
        prefix = f"p{p.index}:"
        spans = [s for s in tracer.spans if s["op"] and s["op"].startswith(prefix)]
        per_pass.append(pass_metrics(spans, tracer.values, p.wall))
    return {k: statistics.median(pm[k] for pm in per_pass) for k in per_pass[0]}
