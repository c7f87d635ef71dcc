"""Benchmark for measpace: one workload, one seed, one run.

    python3 bench/run.py --workload {cli,kits,census,spaces} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from the
checkout's own ``src/`` (never an installed copy) and always compiled
from source: no process of a run writes bytecode, and each run first
removes any ``__pycache__`` that an earlier process (a test run, say)
left under ``src/``.  Set-up (import, input generation from the seed,
warm-up) runs nine times, each after a full garbage collection, and
reports its median.  The timed section then runs whole passes over the
workload's op schedule until ``--seconds`` have passed, one op at a
time; figures are medians over the passes.  Each output is
checked right after its op, with the clock paused.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` passes alternate between untraced and traced, the
traced ones with a span around every library call, and the run reports
the per-layer metrics; spans go to ``bench/out/``.
See ``bench/README.md`` for the metric definitions.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import tracing  # noqa: E402
from wl_census import Census  # noqa: E402
from wl_cli import Cli  # noqa: E402
from wl_kits import Kits  # noqa: E402
from wl_spaces import Spaces  # noqa: E402

SETUP_REPEATS = 9
MODULES = ("core", "filters", "embeddings", "partitions", "products", "jsonio", "cli", "errors")
WORKLOADS = ("cli", "kits", "census", "spaces")

#: The complete environment of every child process, identical on every run.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
    "PYTHONUTF8": "1",
}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


#: Nominal time of one ``reference()`` call; timings are scaled to it.
REFERENCE_S = 0.0015


@dataclass(frozen=True)
class _Cell:
    """Stands in for the library's small frozen value objects."""

    row: tuple
    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError(self.bits)


def reference() -> int:
    """Fixed interpreter work shaped like the library's hot paths (frozen
    dataclass objects built, hashed into a set and a dict, and sorted),
    timed between ops to measure how fast the machine runs right now."""
    row = tuple("abcdefgh")
    cells = frozenset(_Cell(row, i * 37 & 1023) for i in range(700))
    table = {cell: cell.bits ^ 5 for cell in cells}
    return sum(1 for cell in sorted(table, key=lambda c: c.bits) if _Cell(row, cell.bits ^ 1) in cells)


class Speed:
    """Factor that scales a time measured now to the reference speed.

    The machine this benchmark was built on is shared, and its speed
    drifts by 15-40% over seconds.  The reference work is timed at most
    every ``interval_s`` (``reference()`` evicts the op's data from the
    caches, so not before every op), and each op is scaled by
    ``nominal_s`` over the median of the last five timings.  That removes most of the drift while keeping
    every change to the program's own cost.  A workload whose ops are
    not interpreter work in this process brings its own reference.
    """

    def __init__(self, reference=reference, nominal_s: float = REFERENCE_S, interval_s: float = 0.1):
        self.reference = reference
        self.nominal_ns = nominal_s * 1e9
        self.interval_ns = interval_s * 1e9
        self.recent: list[int] = []
        self.last = None

    def sample(self, fresh: bool = False) -> float:
        now = perf_counter_ns()
        if fresh or self.last is None or now - self.last >= self.interval_ns:
            self.reference()
            self.last = perf_counter_ns()
            self.recent = (self.recent + [self.last - now])[-5:]
        return self.nominal_ns / statistics.median(self.recent)


def make_workload(name: str, run_id: str):
    if name == "cli":
        return Cli(OUT / f"cli-{run_id}", CHILD_ENV)
    return {"kits": Kits, "census": Census, "spaces": Spaces}[name]()


def import_library() -> SimpleNamespace:
    """Import measpace afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "measpace" or m.startswith("measpace.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"measpace.{m}") for m in MODULES})
    lib.file = sys.modules["measpace"].__file__
    if Path(lib.file).resolve() != (SRC / "measpace" / "__init__.py").resolve():
        raise SystemExit(f"bench: imported measpace from {lib.file}, not from {SRC}")
    return lib


def generate(workload, seed: int, tiny: bool = False) -> dict:
    return workload.generate(random.Random(f"{workload.name}:{seed}"), tiny)


def setup(workload, seed: int, tiny: bool):
    """Import, generate the inputs, build them and warm up; timed."""
    start = perf_counter()
    lib = import_library()
    data = generate(workload, seed, tiny)
    objs = [workload.build(lib, item) for item in data["pass"]]
    for item in data["warmup"]:
        workload.op(lib, tracing.NullTracer(), workload.build(lib, item))
    return perf_counter() - start, lib, data, objs


def run_passes(workload, lib, objs, tracers, seconds: float, speed: Speed) -> dict:
    """Whole passes over ``objs``, one op at a time, until ``seconds`` of
    timed section and at least ``workload.tail_passes`` passes have gone.
    Pass i uses ``tracers[i % len(tracers)]`` and the loop stops only
    after a whole cycle of tracers.  Before each op the machine's speed is
    sampled; after it the output is checked and dropped.  Both happen
    with the clock paused."""
    raw, scaled, failures = [], [], []
    timed = ops = 0
    while True:
        tracer = tracers[len(raw) % len(tracers)]
        raw.append([])
        scaled.append([])
        for obj in objs:
            factor = speed.sample()
            tracer.op = ops
            ops += 1
            t0 = perf_counter_ns()
            try:
                result = tracer.call("bench.op", workload.op, lib, tracer, obj)
            except Exception as exc:  # an unexpected raise is a failed op
                result = exc
            elapsed = perf_counter_ns() - t0
            raw[-1].append(elapsed)
            scaled[-1].append(elapsed * factor)
            timed += elapsed
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                problem = workload.check(lib, obj, result)
            if problem:
                failures.append(f"op {tracer.op}: {problem}")
        if len(raw) % len(tracers) == 0 and timed >= seconds * 1e9 and len(raw) >= workload.tail_passes:
            break
    return {"raw": raw, "scaled": scaled, "failures": failures}


def summarize(passes: list[list[float]], tail_passes: int) -> dict:
    """Rate and latencies from per-pass op times in ns.

    Every op of the schedule runs once per pass.  For the median, an op's
    latency is its median over the passes; the rate uses the median pass
    time.  The tail is the 11th-slowest op sample of the first
    ``tail_passes`` passes: the highest percentile with at least 10
    samples above it.  A fixed number of passes keeps that percentile,
    and so the op it falls on, the same however many passes the machine's
    speed allowed.
    """
    n = len(passes[0])
    op_ms = [statistics.median(p[i] for p in passes) / 1e6 for i in range(n)]
    samples = sorted((t / 1e6 for p in passes[:tail_passes] for t in p), reverse=True)
    rank = min(len(samples), 11)
    return {
        "ops_per_s": n / statistics.median(sum(p) / 1e9 for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": samples[rank - 1],
        "op_tail_percentile": 100.0 * (1 - (rank - 1) / len(samples)),
        "op_samples": len(samples),
        "passes": len(passes),
    }


def peak_rss_mb(workload_name: str) -> float:
    """Peak resident memory of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def drop_stale_bytecode() -> list[str]:
    """Remove the bytecode that an earlier process left under ``src/``.

    Python reads a ``__pycache__`` it finds next to the sources even when
    it writes none, and running the tests leaves one.  Without this step
    set-up and every ``cli`` child would skip compiling ``measpace``
    only in checkouts where the tests ran first.  The bytecode cache is
    not redirected instead, because that would recompile the standard
    library in every child as well.
    """
    stale = sorted(SRC.rglob("__pycache__"))
    for path in stale:
        shutil.rmtree(path)
    return [str(path.relative_to(ROOT)) for path in stale]


def environment(lib, workload: str, seed: int, seconds: float, trace: bool, digest: str, stale: list) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_digest": digest,
        "measpace_file": str(Path(lib.file).resolve()),
        "commit": commit(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "stale_bytecode_removed": stale,
        "src_pycache_present": any(SRC.rglob("__pycache__")),
        "sys_flags": {name: getattr(sys.flags, name) for name in sys.flags.__match_args__},
        "child_env": CHILD_ENV,
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One run; returns the result object and the detailed report."""
    run_id = f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    stale = drop_stale_bytecode()
    workload = make_workload(workload_name, run_id)
    try:
        speed = Speed(*workload.speed) if hasattr(workload, "speed") else Speed()
        setups, setups_raw = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's objects, so each starts alike
            factor = speed.sample(fresh=True)
            elapsed, lib, data, objs = setup(workload, seed, tiny)
            setups_raw.append(elapsed)
            setups.append(elapsed * factor)
        digest = gen.digest(data)
        if workload_name == "cli":
            child = workload.spawn(["-c", "import measpace; print(measpace.__file__)"])
            child_file = Path(child.stdout.decode().strip()).resolve()
            if child_file != (SRC / "measpace" / "__init__.py").resolve():
                raise SystemExit(f"bench: children import measpace from {child_file}")

        tracer = tracing.Tracer()
        tracers = (tracing.NullTracer(), tracer) if trace else (tracing.NullTracer(),)
        gc.collect()
        loop = run_passes(workload, lib, objs, tracers, seconds, speed)
        failures = loop["failures"]
        attempted = sum(map(len, loop["raw"]))
        report = {
            "environment": environment(lib, workload_name, seed, seconds, trace, digest, stale),
            "setup_s": setups,
            "setup_raw_s": setups_raw,
            "pass_s": [sum(p) / 1e9 for p in loop["scaled"]],
            "pass_raw_s": [sum(p) / 1e9 for p in loop["raw"]],
        }
        if trace:
            pass_s = report["pass_s"]
            extras = {"trace.overhead_frac": statistics.median(pass_s[1::2]) / statistics.median(pass_s[0::2]) - 1}
            tracer.op = None  # the extras' spans belong to no op
            if hasattr(workload, "trace_extras"):
                extras.update(workload.trace_extras(lib, tracer, objs * (len(pass_s) // 2)))
            values, share = tracing.reduce(tracer, extras)
            units = tracing.metric_units()
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / f"spans-{workload_name}-seed{seed}.json")
            report["self_time_by_function"] = share
        else:
            values = summarize(loop["scaled"], workload.tail_passes)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = peak_rss_mb(workload_name)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            report["unscaled"] = summarize(loop["raw"], workload.tail_passes)
            report["unscaled"]["setup_s"] = statistics.median(setups_raw)
        report["fail_frac"] = len(failures) / attempted
        report["failures"] = failures[:20]
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        report["result"] = result
        return result, report
    finally:
        if hasattr(workload, "close"):
            workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "measpace" / "__init__.py").is_file():
        print(f"bench: no measpace sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench: {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, details in {OUT / name}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
