"""Seeded inputs in the plain JSON formats the measpace CLI reads.

Generators take a ``random.Random`` and return JSON-ready data only, so
the input digest is computed without importing the library.  Sizes come
from each workload's fixed schedule; the seed picks labels, values and
which sets are used, which barely moves the cost of an op.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

_FIRST = "abcdefghijklmnopqrstuvwxyz"
_SECOND = _FIRST + "0123456789"


def digest(data) -> str:
    """sha256 of the canonical JSON text of generated inputs."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def labels(rng, n: int, taken=()) -> list[str]:
    """``n`` fresh two-character point labels, distinct from ``taken``."""
    seen = set(taken)
    out = []
    while len(out) < n:
        label = rng.choice(_FIRST) + rng.choice(_SECOND)
        if label not in seen:
            seen.add(label)
            out.append(label)
    return out


def in_order(points: list[str], chosen) -> list[str]:
    chosen = set(chosen)
    return [p for p in points if p in chosen]


def partition(rng, points: list[str], n_blocks: int) -> list[list[str]]:
    """``n_blocks`` nonempty blocks covering ``points``, in point order."""
    shuffled = list(points)
    rng.shuffle(shuffled)
    blocks = [[p] for p in shuffled[:n_blocks]]
    for p in shuffled[n_blocks:]:
        rng.choice(blocks).append(p)
    blocks = [in_order(points, b) for b in blocks]
    return sorted(blocks, key=lambda b: points.index(b[0]))


def value(rng, zero: float = 0.15, inf: float = 0.1) -> str:
    """An exact measure value: "0", "inf" or a small positive fraction."""
    r = rng.random()
    if r < zero:
        return "0"
    if r < zero + inf:
        return "inf"
    return str(Fraction(rng.randint(1, 9), rng.randint(1, 6)))


def space(rng, n_points: int, n_atoms: int, zero: float = 0.15, inf: float = 0.1) -> dict:
    points = labels(rng, n_points)
    atoms = partition(rng, points, n_atoms)
    return {
        "points": points,
        "atoms": atoms,
        "values": [value(rng, zero, inf) for _ in atoms],
    }


def algebra(sp: dict) -> dict:
    return {"points": sp["points"], "atoms": sp["atoms"]}


def union(sp: dict, blocks) -> list[str]:
    return in_order(sp["points"], [p for b in blocks for p in b])


def random_union(rng, sp: dict, p: float = 0.5) -> list[str]:
    """A measurable set: each atom taken with probability ``p``."""
    return union(sp, [a for a in sp["atoms"] if rng.random() < p])


def non_measurable(rng, sp: dict, whole: int) -> list[str]:
    """A set that splits one multi-point atom and holds ``whole`` others."""
    split = rng.choice([a for a in sp["atoms"] if len(a) > 1])
    part = rng.sample(split, rng.randint(1, len(split) - 1))
    others = rng.sample([a for a in sp["atoms"] if a is not split], whole)
    return union(sp, others + [part])


def upset(sp: dict, kernel: list[str]) -> list[list[str]]:
    """Every measurable superset of the measurable set ``kernel``."""
    kernel = set(kernel)
    free = [a for a in sp["atoms"] if not set(a) <= kernel]
    out = []
    for combo in range(1 << len(free)):
        chosen = [a for i, a in enumerate(free) if combo >> i & 1]
        out.append(union(sp, chosen + [sorted(kernel)]))
    return out


def product(left: dict, right: dict) -> dict:
    """The product space of two plain spaces, pair labels "(x|y)".

    Written here rather than by the library so that CLI inputs which
    embed a product do not depend on the code under test.
    """
    def mul(a: str, b: str) -> str:
        if a == "0" or b == "0":
            return "0"
        if "inf" in (a, b):
            return "inf"
        return str(Fraction(a) * Fraction(b))

    points = [f"({x}|{y})" for x in left["points"] for y in right["points"]]
    atoms, values = [], []
    for la, lv in zip(left["atoms"], left["values"]):
        for ra, rv in zip(right["atoms"], right["values"]):
            atoms.append(in_order(points, [f"({x}|{y})" for x in la for y in ra]))
            values.append(mul(lv, rv))
    return {
        "points": points,
        "atoms": atoms,
        "values": values,
        "factors": {"left": left, "right": right},
    }
