"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py      (or: python3 -m pytest bench/selftest.py)

Checks that every metric named in BENCHMARK.json appears with its unit
for every workload, in the untraced and the traced mode; that one seed
always generates the same inputs; and that another seed changes the
inputs but not the set of metric names.  Every op must pass its checks.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402


def _declared() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def test_inputs_are_a_function_of_the_seed():
    for name in run.WORKLOADS:
        workload = run.make_workload(name, "selftest")
        for tiny in (False, True):
            first = gen.digest(run.generate(workload, 1, tiny))
            again = gen.digest(run.generate(workload, 1, tiny))
            other = gen.digest(run.generate(workload, 2, tiny))
            assert first == again, name
            assert first != other, name


def test_every_metric_is_reported_with_its_unit():
    end_to_end, per_layer = _declared()
    for name in run.WORKLOADS:
        for seed in (1, 2):
            for trace, declared in ((False, end_to_end), (True, per_layer)):
                result, _ = run.measure(name, seed, 0.01, trace, tiny=True)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] and result["failed"] == 0, (name, seed, trace)
                assert result["attempted"] >= 1
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                assert units == declared, (name, seed, trace)


if __name__ == "__main__":
    for test in (test_inputs_are_a_function_of_the_seed, test_every_metric_is_reported_with_its_unit):
        test()
        print(f"ok {test.__name__}")
