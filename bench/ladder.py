"""Scaling ladder: one-shot timings of single primitives at growing size.

    python3 bench/ladder.py

Each primitive runs on a space with k atoms, for each k in ``SIZES``, in
its own child process with a time limit of ``LIMIT_S`` seconds.  A call
that runs out of time is recorded as "did not finish" together with the
limit, never as an extrapolated number.  The table goes to stdout and
the records to ``bench/out/ladder.json``.  This report sits outside the
gated workloads; it records where the exhaustive scans stop being usable.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

from run import CHILD_ENV, OUT, ROOT

LIMIT_S = 30
SIZES = (4, 6, 8, 10, 12)
PRIMITIVES = (
    "validate_kit",
    "construct_extension",
    "outer_measure",
    "check_measure_embedding",
    "enumerate_ultrafilters",
    "classify_family",
)


def child(primitive: str, k: int) -> float:
    """Build the input untimed, then time one call; returns seconds."""
    import measpace as m

    # k atoms over k + 1 points: the first atom holds two points, so a
    # set holding one of them is not measurable
    ground = m.GroundSet(tuple(f"p{i}" for i in range(k + 1)))
    atoms = (ground.mask(["p0", "p1"]),) + tuple(ground.singleton(f"p{i}") for i in range(2, k + 1))
    ms = m.MeasureSpace(m.SigmaAlgebra(ground, atoms), tuple(m.ExtReal.of(i % 3) for i in range(k)))
    kit = m.identity_kit(ms)
    probe = ground.mask(["p0"] + [f"p{i}" for i in range(2, k + 1, 2)])
    upset = m.SetFamily(ms.algebra, frozenset(s for s in ms.algebra.sets() if atoms[0].issubset(s)))
    calls = {
        "validate_kit": lambda: m.validate_kit(kit),
        "construct_extension": lambda: m.construct_extension(kit),
        "outer_measure": lambda: ms.outer_measure(probe),
        "check_measure_embedding": lambda: m.check_measure_embedding(ms, ms),
        "enumerate_ultrafilters": lambda: m.enumerate_ultrafilters(ms.algebra),
        "classify_family": lambda: m.classify_family(upset),
    }
    start = perf_counter()
    calls[primitive]()
    return perf_counter() - start


def run_one(primitive: str, k: int) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", primitive, str(k)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return {"primitive": primitive, "k": k, "status": "did not finish", "limit_s": LIMIT_S}
    if proc.returncode != 0:
        return {"primitive": primitive, "k": k, "status": "error", "stderr": proc.stderr[-500:]}
    return {"primitive": primitive, "k": k, "status": "ok", "seconds": float(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("PRIMITIVE", "K"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(repr(child(args.child[0], int(args.child[1]))))
        return 0
    rows = []
    print(f"{'primitive':26s}" + "".join(f"{'k=' + str(k):>14s}" for k in SIZES))
    for primitive in PRIMITIVES:
        cells = []
        for k in SIZES:
            row = run_one(primitive, k)
            rows.append(row)
            if row["status"] == "ok":
                cells.append(f"{row['seconds']:.4f} s")
            elif row["status"] == "did not finish":
                cells.append(f"DNF@{LIMIT_S}s")
            else:
                cells.append("error")
        print(f"{primitive:26s}" + "".join(f"{c:>14s}" for c in cells), flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "ladder.json").write_text(json.dumps({"limit_s": LIMIT_S, "rows": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
