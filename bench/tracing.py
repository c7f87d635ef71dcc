"""Spans around the benchmark's own calls into measpace.

Every library call an op makes goes through ``tracer.call(name, fn,
*args)``.  The untraced run uses :class:`NullTracer`, which only calls.
The traced run uses :class:`Tracer`, which keeps spans in memory: name
(``<module>.<function>``), start, end, parent span and op id.  Spans are
written out when the run ends and reduced to self time, the duration
minus the time covered by child spans.  Self time counts only spans
under a ``bench.op`` root: calls made outside the ops, such as a
workload's ``trace_extras``, give their function's call count and
durations but no self time.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    op = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.counts: dict[str, list] = defaultdict(list)
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def count(self, name, value):
        """Record a per-call quantity, such as a family's size."""
        self.counts[name].append(value)

    def self_ns(self) -> list[int]:
        """Self time of each span.  One thread runs the spans, so the
        children of a span never overlap and their durations add up."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path) -> None:
        rows = [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


FUNCTIONS = (
    "core.measure_of",
    "core.inner_measure",
    "core.outer_measure",
    "core.is_thick",
    "core.generate_sigma_algebra",
    "core.trace_algebra",
    "filters.classify_family",
    "filters.enumerate_ultrafilters",
    "filters.extend_to_ultrafilter",
    "filters.ultrafilter_from_01_measure",
    "filters.lift_to_superspace",
    "filters.restrict_by_trace",
    "embeddings.validate_kit",
    "embeddings.construct_extension",
    "embeddings.decompose_extension",
    "embeddings.measure_embedding_report",
    "embeddings.classify_outside_points",
    "embeddings.enumerate_extensions",
    "partitions.set_partitions",
    "products.product_space",
    "products.y_section",
    "products.lift_ultrafilter",
    "products.project_ultrafilter",
    "jsonio.space_from_obj",
    "jsonio.kit_from_obj",
    "jsonio.space_to_obj",
    "jsonio.canonical_dumps",
    "cli.run",
    "cli.subprocess",
)

#: Span owners for self time; "bench" is the op's own glue code.
MODULES = ("core", "filters", "embeddings", "partitions", "products", "jsonio", "cli", "bench")

EXTRAS = {
    "filters.classify_family.members_mean": "count",
    "embeddings.validate_kit.valid_ratio": "ratio",
    "embeddings.enumerate_extensions.yield_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for f in FUNCTIONS:
        units[f + ".calls"] = "count"
        units[f + ".total_s"] = "s"
        units[f + ".p50_ms"] = "ms"
    units.update(EXTRAS)
    for m in MODULES:
        units[m + ".self_s"] = "s"
        units[m + ".self_frac"] = "ratio"
    return units


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def reduce(tracer: Tracer, extras: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metric values, and self time per function for the report.

    A function or layer the workload never calls reads 0.
    """
    durations: dict[str, list[int]] = defaultdict(list)
    self_by_name: dict[str, int] = defaultdict(int)
    root: list[int] = []  # a parent is always recorded before its children
    for i, ((name, start, end, parent, _), own) in enumerate(zip(tracer.spans, tracer.self_ns())):
        root.append(i if parent is None else root[parent])
        durations[name].append(end - start)
        if tracer.spans[root[i]][0] == "bench.op":
            self_by_name[name] += own
    values: dict[str, float] = {}
    for f in FUNCTIONS:
        ds = durations.get(f, [])
        values[f + ".calls"] = len(ds)
        values[f + ".total_s"] = sum(ds) / 1e9
        values[f + ".p50_ms"] = statistics.median(ds) / 1e6 if ds else 0.0
    counts = tracer.counts
    values["filters.classify_family.members_mean"] = _mean(counts["filters.classify_family.members"])
    values["embeddings.validate_kit.valid_ratio"] = _mean(counts["embeddings.validate_kit.valid"])
    listed = sum(counts["embeddings.enumerate_extensions.listed"])
    scanned = sum(counts["embeddings.enumerate_extensions.bell"])
    values["embeddings.enumerate_extensions.yield_ratio"] = listed / scanned if scanned else 0.0
    for name in ("cli.import_ms", "cli.interpreter_ms", "trace.overhead_frac"):
        values[name] = extras.get(name, 0.0)
    total_self = sum(self_by_name.values()) or 1
    for m in MODULES:
        own = sum(v for n, v in self_by_name.items() if n.split(".")[0] == m)
        values[m + ".self_s"] = own / 1e9
        values[m + ".self_frac"] = own / total_self
    share = {
        n: {"self_s": v / 1e9, "self_frac": v / total_self}
        for n, v in sorted(self_by_name.items(), key=lambda kv: -kv[1])
    }
    return values, share
