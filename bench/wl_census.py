"""``census``: list every extension of a small base, then round-trip a few.

Each op calls ``enumerate_extensions`` to extend a 1-3-atom base to 6-8
points, then sends a seeded sample of the listed extensions through
decompose -> construct -> canonical bytes.

Why: the Bell(n) partition scan takes most of the op (0.2-0.5 s at 8
points here, while one round trip takes a few ms), and the many small
masks and algebras built per candidate make this the object-overhead
case for ``core``.  Generating extensions from the kit theorem would
show here; ``kits`` and ``spaces`` never call this code.
"""
from __future__ import annotations

import gen
import oracles

# (base points, base atoms, total points).  Sorted by cost, a pass is
# eight lighter listings (6 points, and two 7-point bases whose listings
# are short), seven identical-shape 7-point listings (about 50 ms here, so
# the median op is one of them) and eight 8-point listings.  The two
# (2, 2, 8) listings and the (1, 1, 8) one cost nearly the same (about
# 0.2 s here) and are the heaviest: the tail is read over
# ``tail_passes`` = 7 passes, which hold 21 samples of them, so the tail
# sample (the 11th slowest) is their median.  Bases mix discrete and
# coarse algebras.
PASS = [
    (1, 1, 6), (3, 3, 7), (2, 2, 8), (2, 1, 6), (3, 3, 7), (3, 3, 8),
    (2, 2, 6), (3, 3, 7), (1, 1, 8), (3, 1, 6), (3, 3, 7), (2, 1, 8),
    (3, 2, 6), (3, 3, 7), (3, 3, 8), (3, 3, 6), (3, 3, 7), (3, 2, 8),
    (3, 1, 7), (3, 3, 7), (2, 2, 8), (2, 1, 7), (3, 3, 8),
]
TINY = [(1, 1, 3), (2, 2, 4), (3, 2, 4)]
WARMUP = [(2, 1, 5), (3, 3, 5)]
SAMPLES = 3


def make(rng, n_base, n_atoms, n_total) -> dict:
    base = gen.space(rng, n_base, n_atoms, zero=0.25, inf=0.25)
    return {
        "base": base,
        "extra": gen.labels(rng, n_total - n_base, taken=base["points"]),
        "samples": [rng.random() for _ in range(SAMPLES)],
    }


class Census:
    name = "census"
    tail_passes = 7

    def generate(self, rng, tiny=False) -> dict:
        return {
            "pass": [make(rng, *spec) for spec in (TINY if tiny else PASS)],
            "warmup": [make(rng, *spec) for spec in WARMUP],
        }

    def build(self, lib, item):
        return {"base": lib.jsonio.space_from_obj(item["base"]), "item": item}

    def op(self, lib, t, obj):
        e, j = lib.embeddings, lib.jsonio
        base, item = obj["base"], obj["item"]
        listed = t.call("embeddings.enumerate_extensions", e.enumerate_extensions, base, item["extra"])
        n = base.ground.size + len(item["extra"])
        t.count("embeddings.enumerate_extensions.listed", len(listed))
        t.count("embeddings.enumerate_extensions.bell", oracles.bell(n))
        trips = []
        x = listed[0].ground.mask(base.ground.labels)  # every listed space has this ground
        for f in item["samples"]:
            big = _sample(listed, int(f * len(listed)), x.bits)
            record = t.call("embeddings.decompose_extension", e.decompose_extension, big, x)
            again = t.call("embeddings.construct_extension", e.construct_extension, record.kit)
            texts = [
                t.call("jsonio.canonical_dumps", j.canonical_dumps,
                       t.call("jsonio.space_to_obj", j.space_to_obj, ms))
                for ms in (big, again)
            ]
            trips.append((big, texts))
        return len(listed), trips

    def check(self, lib, obj, result):
        count, trips = result
        base, item = obj["base"], obj["item"]
        want = oracles.extension_count(len(item["extra"]), len(base.algebra.atoms))
        if count != want:
            return f"listed {count} extensions, closed form gives {want}"
        for big, texts in trips:
            text = oracles.space_text(big)
            if texts != [text, text]:
                return "decompose -> construct is not byte-identical"
        return None

    def trace_extras(self, lib, t, ran) -> dict:
        """Time the partition scan alone, once per op, over the same n."""
        p = lib.partitions
        for obj in ran:
            n = obj["base"].ground.size + len(obj["item"]["extra"])
            t.call("partitions.set_partitions", _drain, p.set_partitions, n)
        return {}


def _sample(listed, start: int, x: int):
    """The first extension from ``start`` on with at most one pasted atom.

    The decomposed kit of an extension with p pasted atoms takes 4^k*4^p
    steps to validate, so capping p keeps the round trips small and of
    nearly fixed cost; the closed-form count covers the whole listing.
    """
    for i in range(len(listed)):
        big = listed[(start + i) % len(listed)]
        if sum(1 for a in big.algebra.atoms if a.bits & x == 0) <= 1:
            return big
    raise AssertionError("the extension by fibers only is always listed")


def _drain(set_partitions, n):
    return sum(1 for _ in set_partitions(range(n)))
