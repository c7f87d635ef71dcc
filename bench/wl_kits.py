"""``kits``: one extension kit per op, through the whole kit calculus.

validate -> construct -> decompose -> construct the decomposed kit ->
canonical bytes of both -> check-embed -> classify-points -> is_thick(X)
-> inner and outer measure of one non-measurable set.

Why: the 4^k*|D|^2 pair scan in ``validate_kit`` dominates, and
``construct_extension`` runs it again internally, so an op on a 7-atom
base spends most of its time there.  Kit validation and the embedding
check show here; ``census`` and ``spaces`` barely call this code.  One
kit in five is broken on purpose and must be rejected.
"""
from __future__ import annotations

import gen
import oracles

# (base atoms, base points, fiber points, pasted points, pasted family,
# broken kind).  Sorted by cost, a pass is nine 4-5-atom kits, six
# identical-shape 6-atom kits (about 0.12 s each here, so the median op is
# one of them) and nine heavier kits.  The four identical-shape 7-atom
# kits (about 0.4 s) sit just below the heaviest op: the tail is read
# over ``tail_passes`` = 4 passes, which hold 4 samples of that op and 16
# of theirs, so the tail sample (the 11th slowest) is one of theirs,
# near their median.  Five of the 24 kits are broken.
PASS = [
    (4, 5, 1, 0, "full", None), (6, 7, 1, 0, "full", None), (7, 8, 1, 0, "full", None),
    (4, 4, 2, 1, "full", None), (6, 7, 1, 0, "full", None), (6, 6, 2, 1, "full", None),
    (4, 6, 0, 2, "full", None), (7, 8, 1, 0, "full", None), (5, 6, 2, 0, "full", None),
    (6, 7, 1, 0, "full", None), (7, 7, 3, 0, "full", "collide"), (5, 5, 1, 1, "full", None),
    (4, 4, 3, 2, "coarse", None), (7, 8, 1, 0, "full", None), (6, 7, 1, 0, "full", None),
    (6, 8, 0, 2, "coarse", None), (5, 7, 0, 2, "coarse", None), (4, 5, 1, 1, "full", "complement"),
    (7, 8, 1, 0, "full", None), (6, 7, 1, 0, "full", None), (5, 5, 1, 0, "full", "drop-key"),
    (7, 8, 2, 0, "full", "not-atom"), (6, 7, 1, 0, "full", None), (6, 6, 2, 2, "full", "empty-missing"),
]
TINY = [(2, 3, 1, 1, "full", None), (2, 2, 1, 0, "full", "collide"), (3, 4, 0, 1, "coarse", None)]
WARMUP = [(3, 4, 1, 1, "full", None), (3, 3, 1, 0, "full", "drop-key")]


def _subsets(items):
    return [[x for i, x in enumerate(items) if combo >> i & 1] for combo in range(1 << len(items))]


def make(rng, k, n_base, n_fiber, n_pasted, family, broken) -> dict:
    base = gen.space(rng, n_base, k)
    points = base["points"]
    fiber_labels = gen.labels(rng, n_fiber, taken=points)
    pasted = gen.labels(rng, n_pasted, taken=points + fiber_labels)
    fibers = {}
    kernel_of = {}
    for label, atom in zip(fiber_labels, rng.sample(base["atoms"], n_fiber)):
        fibers[",".join(atom)] = [label]
        kernel_of[label] = atom
    ds = _subsets(pasted) if family == "full" else [[], pasted][: 1 + bool(pasted)]
    keys = [",".join(gen.union(base, blocks)) for blocks in _subsets(base["atoms"])]
    dfamily = {key: list(ds) for key in keys}

    if broken == "complement":  # the complement of the empty pasted set leaves D_X
        dfamily[",".join(points)] = [d for d in ds if d != pasted]
    elif broken == "drop-key":
        del dfamily[rng.choice(keys[1:])]
    elif broken == "empty-missing":
        dfamily[""] = [d for d in ds if d]
    elif broken == "collide":
        key = next(iter(fibers))
        fibers[key][0] = rng.choice(points)
    elif broken == "not-atom":
        two = rng.sample(base["atoms"], 2)
        fibers[",".join(gen.union(base, two))] = fibers.pop(next(iter(fibers)))

    # a non-measurable probe: part of a multi-point base atom, or a base
    # atom without the fiber points stuck to it
    split = [a for a in base["atoms"] if len(a) > 1]
    if split:
        atom = rng.choice(split)
        probe = rng.sample(atom, rng.randint(1, len(atom) - 1))
    else:
        probe = list(kernel_of[fiber_labels[0]])
    return {
        "kit": {
            "base": base,
            "pasted": {"points": pasted, "atoms": [[z] for z in pasted]},
            "dfamily": dfamily,
            "fibers": fibers,
        },
        "probe": sorted(probe),
        "broken": broken,
        "expect": {
            **{label: sorted(kernel_of[label]) for label in fiber_labels},
            **{z: "pasted" for z in pasted},
        },
    }


class Kits:
    name = "kits"
    tail_passes = 4

    def generate(self, rng, tiny=False) -> dict:
        return {
            "pass": [make(rng, *spec) for spec in (TINY if tiny else PASS)],
            "warmup": [make(rng, *spec) for spec in WARMUP],
        }

    def build(self, lib, item):
        kit = lib.jsonio.kit_from_obj(item["kit"])
        return {"kit": kit, "x": kit.base.ground.labels, "item": item}

    def op(self, lib, t, obj):
        e, j = lib.embeddings, lib.jsonio
        kit = obj["kit"]
        problems = t.call("embeddings.validate_kit", e.validate_kit, kit)
        t.count("embeddings.validate_kit.valid", not problems)
        try:
            big = t.call("embeddings.construct_extension", e.construct_extension, kit)
        except lib.errors.InvalidKitError as exc:
            return {"problems": problems, "rejected": exc}
        x = big.ground.mask(obj["x"])
        record = t.call("embeddings.decompose_extension", e.decompose_extension, big, x)
        again = t.call("embeddings.construct_extension", e.construct_extension, record.kit)
        texts = [
            t.call("jsonio.canonical_dumps", j.canonical_dumps, t.call("jsonio.space_to_obj", j.space_to_obj, ms))
            for ms in (big, again)
        ]
        probe = big.ground.mask(obj["item"]["probe"])
        return {
            "problems": problems,
            "big": big,
            "again": again,
            "texts": texts,
            "report": t.call("embeddings.measure_embedding_report", e.measure_embedding_report, kit.base, big),
            "classes": t.call("embeddings.classify_outside_points", e.classify_outside_points, big, x),
            "thick": t.call("core.is_thick", big.is_thick, x),
            "inner": t.call("core.inner_measure", big.inner_measure, probe),
            "outer": t.call("core.outer_measure", big.outer_measure, probe),
        }

    def check(self, lib, obj, r):
        item = obj["item"]
        if item["broken"]:
            if not r["problems"]:
                return f"broken kit ({item['broken']}) passed validation"
            return None if "rejected" in r else f"broken kit ({item['broken']}) was constructed"
        if r["problems"] or "rejected" in r:
            return "valid kit rejected"
        big = r["big"]
        text = oracles.space_text(big)
        if r["texts"] != [text, text] or oracles.space_text(r["again"]) != text:
            return "round trip is not byte-identical"
        if not r["report"].ok:
            return "base is not embedded in its extension"
        got = {
            label: "pasted" if c.kind == "pasted" else sorted(c.anchors)
            for label, c in r["classes"].items()
        }
        if got != item["expect"]:
            return "outside points classified wrongly"
        x = big.ground.mask(obj["x"]).bits
        if r["thick"] is not True or not oracles.thick(big, x):
            return "X is not thick in its extension"
        probe = big.ground.mask(item["probe"])
        if all(a.bits & probe.bits in (0, a.bits) for a in big.algebra.atoms):
            return "the probe set is measurable"
        if r["inner"].finite != oracles.inner(big, probe.bits):
            return "inner measure differs"
        if r["outer"].finite != oracles.outer(big, probe.bits):
            return "outer measure differs"
        return None
