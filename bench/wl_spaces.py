"""``spaces``: one question per op about one seeded space or product.

Why: the O(k*2^k) scans in ``core`` set the median (outer measure at
10-11 atoms) and ``filters`` sets the tail (ultrafilter enumeration at 8
atoms, classification of a 128-member up-set, lifting on a 3x3
product).  Atom-level formulas should move ``op_p50_ms``; a faster
``classify_family`` should move ``op_tail_ms``.
"""
from __future__ import annotations

import gen
import oracles

# One pass: (question, atoms, points) in a fixed order.  Sorted by cost,
# the pass is twelve cheap ops (under 1.5 ms here), ten outer measures of
# non-measurable sets on 10-atom spaces (about 2 ms, one O(k*2^k) scan
# each) and thirteen filter, product and 11-atom thickness ops (4-130
# ms).  Each block is homogeneous, so the median op is always one of the
# ten outer measures.  The three 8-atom ultrafilter enumerations per pass
# are the heaviest ops: the tail is read over ``tail_passes`` = 7 passes,
# which hold 21 samples of them, so the tail sample (the 11th slowest) is
# their median.
PASS = [
    ("outer", 10, 13), ("measure", 11, 14), ("classify_upset", 8, 10), ("inner", 9, 12),
    ("outer", 10, 13), ("trace", 10, 13), ("thick", 11, 14), ("outer", 10, 13),
    ("extend", 8, 10), ("generate", 0, 12), ("outer", 10, 13), ("lift", 2, 4),
    ("classify_random", 8, 10), ("outer", 10, 13), ("zero_one", 8, 10), ("section", 3, 4),
    ("ultrafilters", 8, 10), ("outer", 10, 13), ("classify_base", 8, 10), ("inner", 9, 12),
    ("lift_super", 8, 10), ("product", 3, 4), ("outer", 10, 13), ("restrict", 8, 11),
    ("classify_upset", 8, 10), ("outer", 10, 13), ("product", 2, 6), ("lift", 3, 3),
    ("thick", 11, 14), ("project", 3, 3), ("outer", 10, 13), ("extend", 8, 10),
    ("ultrafilters", 8, 11), ("outer", 10, 13), ("ultrafilters", 8, 12),
]
TINY = [("measure", 3, 4), ("outer", 3, 4), ("ultrafilters", 3, 3), ("classify_upset", 3, 3),
        ("extend", 3, 3), ("lift", 2, 2), ("project", 2, 2), ("section", 2, 2)]
WARMUP = [("inner", 4, 5), ("ultrafilters", 4, 4), ("lift", 2, 2), ("generate", 0, 5)]


def _discrete(rng, n):
    return gen.space(rng, n, n, zero=0.0, inf=0.0)


def make(rng, question: str, a: int, b: int) -> dict:
    item = {"q": question}
    if question in ("measure", "inner", "outer", "thick", "trace"):
        sp = gen.space(rng, b, a)
        item["space"] = sp
        if question == "measure":
            item["set"] = gen.random_union(rng, sp)
        elif question == "trace":
            item["set"] = gen.in_order(sp["points"], rng.sample(sp["points"], b // 2))
        else:  # half the atoms whole, so each scan's work is fixed by the size
            item["set"] = gen.non_measurable(rng, sp, a // 2)
    elif question == "generate":
        points = gen.labels(rng, b)
        item["generators"] = {
            "points": points,
            "generators": [
                gen.in_order(points, rng.sample(points, rng.randint(1, b - 1)))
                for _ in range(4)
            ],
        }
    elif question in ("classify_random", "classify_base", "classify_upset", "extend"):
        sp = gen.algebra(gen.space(rng, b, a))
        if question == "classify_random":
            members = [gen.random_union(rng, sp) for _ in range(24)]
        elif question == "classify_upset":
            members = gen.upset(sp, rng.choice(sp["atoms"]))
        else:  # a filter-base: a nonempty kernel set plus supersets of it
            kernel = gen.random_union(rng, sp, 0.3) or sp["atoms"][0]
            members = [kernel] + [
                gen.union(sp, [kernel, gen.random_union(rng, sp)]) for _ in range(11)
            ]
        item["family"] = {"space": sp, "members": members}
    elif question == "ultrafilters":
        item["space"] = gen.algebra(gen.space(rng, b, a))
    elif question == "zero_one":
        sp = gen.space(rng, b, a)
        sp["values"] = ["0"] * a
        sp["values"][rng.randrange(a)] = "1"
        item["space"] = sp
    elif question == "lift_super":
        sp = gen.algebra(gen.space(rng, b, a))
        inside = rng.sample(sp["atoms"], a // 2)
        x = gen.union(sp, inside)
        small = {"points": x, "atoms": [a_ for a_ in sp["atoms"] if a_ in inside]}
        item.update(space=sp, family={"space": small, "members": gen.upset(small, rng.choice(inside))})
    elif question == "restrict":
        sp = gen.algebra(gen.space(rng, b, a))
        atoms = rng.sample(sp["atoms"], 4)
        atom = atoms[0]
        x = [rng.choice(a) for a in atoms]  # X meets four atoms
        item.update(family={"space": sp, "members": gen.upset(sp, atom)}, set=gen.in_order(sp["points"], x))
    elif question == "product":
        item.update(left=gen.space(rng, a, max(1, a - 1)), right=gen.space(rng, b, max(1, b - 1)))
    elif question == "section":
        left, right = gen.space(rng, a, max(1, a - 1)), gen.space(rng, b, max(1, b - 1))
        prod = gen.product(left, right)
        item.update(product=prod, set=gen.random_union(rng, prod), y=rng.choice(right["points"]))
    elif question == "lift":
        left = gen.space(rng, a, a)
        right = _discrete(rng, b)
        atom = rng.choice(left["atoms"])
        item.update(
            family={"space": left, "members": gen.upset(left, atom)},
            right=right,
            y=rng.choice(right["points"]),
        )
    elif question == "project":
        prod = gen.product(_discrete(rng, a), _discrete(rng, b))
        atom = rng.choice(prod["atoms"])
        item.update(product=prod, family={"space": gen.algebra(prod), "members": gen.upset(prod, atom)})
    else:
        raise ValueError(question)
    return item


class Spaces:
    name = "spaces"
    tail_passes = 7

    def generate(self, rng, tiny=False) -> dict:
        return {
            "pass": [make(rng, *spec) for spec in (TINY if tiny else PASS)],
            "warmup": [make(rng, *spec) for spec in WARMUP],
        }

    def build(self, lib, item):
        j, q = lib.jsonio, item["q"]
        obj = {"q": q}
        if "space" in item and q != "lift_super":
            loader = j.algebra_from_obj if q == "ultrafilters" else j.space_from_obj
            obj["space"] = loader(item["space"])
        if q == "generate":
            raw = item["generators"]
            ground = lib.core.GroundSet(tuple(raw["points"]))
            obj["ground"] = ground
            obj["generators"] = [ground.mask(g) for g in raw["generators"]]
        if q in ("measure", "inner", "outer", "thick", "trace"):
            obj["set"] = obj["space"].ground.mask(item["set"])
        if q.startswith("classify") or q == "extend":
            obj["family"], _ = j.family_from_obj(item["family"])
        if q == "zero_one":
            obj["zm"] = lib.filters.ZeroOneMeasure(obj["space"])
        if q == "lift_super":
            obj["superalgebra"] = j.algebra_from_obj(item["space"])
            obj["f"], _ = j.record_from_obj(item["family"])
        if q == "restrict":
            obj["h"], _ = j.record_from_obj(item["family"])
            obj["set"] = obj["h"].algebra.ground.mask(item["set"])
        if q == "product":
            obj["left"] = j.space_from_obj(item["left"])
            obj["right"] = j.space_from_obj(item["right"])
        if q == "section":
            obj["ps"] = j.product_from_obj(item["product"])
            obj["set"] = obj["ps"].product.ground.mask(item["set"])
            obj["y"] = item["y"]
        if q == "lift":
            f, left = j.record_from_obj(item["family"])
            obj["ps"] = lib.products.product_space(left, j.space_from_obj(item["right"]))
            obj["f"], obj["y"] = f, item["y"]
        if q == "project":
            obj["ps"] = j.product_from_obj(item["product"])
            family, _ = j.family_from_obj(item["family"])
            obj["h"] = lib.filters.classify_family(
                lib.filters.SetFamily(obj["ps"].product.algebra, family.members)
            )
        return obj

    def op(self, lib, t, obj):
        q, f, p = obj["q"], lib.filters, lib.products
        if q == "measure":
            return t.call("core.measure_of", obj["space"].measure_of, obj["set"])
        if q == "inner":
            return t.call("core.inner_measure", obj["space"].inner_measure, obj["set"])
        if q == "outer":
            return t.call("core.outer_measure", obj["space"].outer_measure, obj["set"])
        if q == "thick":
            return t.call("core.is_thick", obj["space"].is_thick, obj["set"])
        if q == "generate":
            return t.call("core.generate_sigma_algebra", lib.core.generate_sigma_algebra,
                          obj["ground"], obj["generators"])
        if q == "trace":
            return t.call("core.trace_algebra", lib.core.trace_algebra, obj["space"].algebra, obj["set"])
        if q.startswith("classify"):
            t.count("filters.classify_family.members", len(obj["family"].members))
            return t.call("filters.classify_family", f.classify_family, obj["family"])
        if q == "extend":
            return t.call("filters.extend_to_ultrafilter", f.extend_to_ultrafilter, obj["family"])
        if q == "ultrafilters":
            return t.call("filters.enumerate_ultrafilters", f.enumerate_ultrafilters, obj["space"])
        if q == "zero_one":
            return t.call("filters.ultrafilter_from_01_measure", f.ultrafilter_from_01_measure, obj["zm"])
        if q == "lift_super":
            return t.call("filters.lift_to_superspace", f.lift_to_superspace, obj["f"], obj["superalgebra"])
        if q == "restrict":
            return t.call("filters.restrict_by_trace", f.restrict_by_trace, obj["h"], obj["set"])
        if q == "product":
            return t.call("products.product_space", p.product_space, obj["left"], obj["right"])
        if q == "section":
            return t.call("products.y_section", p.y_section, obj["ps"], obj["set"], obj["y"])
        if q == "lift":
            return t.call("products.lift_ultrafilter", p.lift_ultrafilter, obj["ps"], obj["f"], obj["y"])
        if q == "project":
            return t.call("products.project_ultrafilter", p.project_ultrafilter, obj["ps"], obj["h"])
        raise ValueError(q)

    def check(self, lib, obj, result):
        q = obj["q"]
        if q in ("measure", "inner", "outer", "thick"):
            ms, bits = obj["space"], obj["set"].bits
            if q == "thick":
                return None if result == oracles.thick(ms, bits) else "thickness differs"
            want = oracles.outer(ms, bits) if q == "outer" else oracles.inner(ms, bits)
            return None if result.finite == want else f"{q} {result} != {want}"
        if q == "generate":
            n = obj["ground"].size
            blocks = {}
            for i in range(n):
                sig = tuple(g.bits >> i & 1 for g in obj["generators"])
                blocks[sig] = blocks.get(sig, 0) | 1 << i
            return None if {a.bits for a in result.atoms} == set(blocks.values()) else "atoms differ"
        if q == "trace":
            ms, x = obj["space"], obj["set"]
            labels = ms.ground.labels
            want = {
                frozenset(labels[i] for i in range(len(labels)) if (a.bits & x.bits) >> i & 1)
                for a in ms.algebra.atoms
            } - {frozenset()}
            got = {frozenset(a.labels()) for a in result.atoms}
            return None if got == want else "trace atoms differ"
        if q.startswith("classify"):
            return oracles.flags_problem(result)
        if q == "extend":
            base = obj["family"]
            problem = oracles.ultrafilter_problem(result)
            if problem:
                return problem
            if not {m.bits for m in base.members} <= {m.bits for m in result.members}:
                return "extension drops a member of the base"
            return None
        if q == "ultrafilters":
            for record in result:
                problem = oracles.ultrafilter_problem(record)
                if problem:
                    return problem
            kernels = sorted(r.kernel.bits for r in result)
            return None if kernels == sorted(a.bits for a in obj["space"].atoms) else "kernels are not the atoms"
        if q == "zero_one":
            return oracles.ultrafilter_problem(result, obj["zm"].unit_atom.bits)
        if q == "lift_super":
            big = obj["superalgebra"].ground
            return oracles.ultrafilter_problem(result, big.mask(obj["f"].kernel.labels()).bits)
        if q == "restrict":
            h, x = obj["h"], obj["set"]
            want = set(h.kernel.labels()) & set(x.labels())
            problem = oracles.ultrafilter_problem(result)
            return problem or (None if set(result.kernel.labels()) == want else "kernel is not the trace")
        ps = result if q == "product" else obj["ps"]
        rsize = ps.right.ground.size

        def rect(b, c):
            return sum(1 << (i * rsize + j) for i in range(ps.left.ground.size) if b >> i & 1
                       for j in range(rsize) if c >> j & 1)

        if q == "product":
            want = {}
            for la, lv in zip(ps.left.algebra.atoms, ps.left.atom_values):
                for ra, rv in zip(ps.right.algebra.atoms, ps.right.atom_values):
                    a, b = lv.finite, rv.finite
                    want[rect(la.bits, ra.bits)] = 0 if 0 in (a, b) else (None if None in (a, b) else a * b)
            got = {a.bits: v.finite for a, v in zip(ps.product.algebra.atoms, ps.product.atom_values)}
            return None if got == want else "product atoms or values differ"
        if q == "section":
            j = ps.right.ground.index(obj["y"])
            want = sum(1 << i for i in range(ps.left.ground.size) if obj["set"].bits >> (i * rsize + j) & 1)
            return None if result.bits == want else "section differs"
        if q == "lift":
            y = 1 << ps.right.ground.index(obj["y"])
            return oracles.ultrafilter_problem(result, rect(obj["f"].kernel.bits, y))
        if q == "project":
            left, right = result
            problem = oracles.ultrafilter_problem(left) or oracles.ultrafilter_problem(right)
            if problem:
                return problem
            return None if rect(left.kernel.bits, right.kernel.bits) == obj["h"].kernel.bits else "kernels differ"
        raise ValueError(q)
