"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a `[acceptance] criterion N ...: PASS` line (visible with
`pytest -s`) and asserts its stated runtime budget.  Everything is
property-based over exhaustively enumerated small instances; there are no
tolerances anywhere.
"""
from __future__ import annotations

import json
import time
from itertools import combinations_with_replacement, product as iproduct

from measpace import (
    ExtensionKit,
    GroundSet,
    INFINITY,
    MeasureSpace,
    ONE,
    SigmaAlgebra,
    ZERO,
    all_sigma_algebras,
    check_measurable_embedding,
    check_measure_embedding,
    construct_extension,
    decompose_extension,
    enumerate_extensions,
    enumerate_ultrafilters,
    generate_sigma_algebra,
    lift_ultrafilter,
    measure_from_ultrafilter,
    product_space,
    project_ultrafilter,
    transfer_mask,
    ultrafilter_from_01_measure,
    validate_kit,
    y_section,
)

from support import (
    brute_force_ultrafilters,
    check_dichotomy,
    check_thickness_equivalence,
    check_union_membership,
    count_extensions_oracle,
    enumerate_extensions_oracle,
    null_sets_cover_ground,
    small_kits,
)


class _Timer:
    def __init__(self, number, name, budget_s):
        self.number, self.name, self.budget = number, name, budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.name}): {verdict} in {elapsed:.2f}s")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )


def _grounds_up_to(n_max):
    for n in range(1, n_max + 1):
        yield GroundSet(tuple("abcde"[:n]))


def test_criterion_1_finite_dichotomy():
    with _Timer(1, "finite dichotomy", 1.0):
        total = 0
        for ground in _grounds_up_to(4):
            for algebra in all_sigma_algebras(ground):
                total += 1
                records = enumerate_ultrafilters(algebra)
                assert len(records) == len(algebra.atoms)
                assert [r.kernel for r in records] == list(algebra.atoms)
                assert all(r.is_ultrafilter and r.has_cip and not r.is_free for r in records)
                oracle = brute_force_ultrafilters([s.bits for s in algebra.sets()])
                produced = [frozenset(m.bits for m in r.members) for r in records]
                assert len(oracle) == len(produced)
                assert set(oracle) == set(produced)
        assert total == 1 + 2 + 5 + 15  # all partitions, sizes 1..4


def test_criterion_2_dichotomy_and_unions():
    with _Timer(2, "dichotomy and union membership", 5.0):
        for ground in _grounds_up_to(4):
            for algebra in all_sigma_algebras(ground):
                sets = list(algebra.sets())
                for u in enumerate_ultrafilters(algebra):
                    for b in sets:
                        assert check_dichotomy(u, b)
                    for r in range(4):
                        for bs in combinations_with_replacement(sets, r):
                            assert check_union_membership(u, list(bs))


def test_criterion_3_zero_one_dictionary():
    with _Timer(3, "ultrafilter/{0,1}-measure dictionary", 5.0):
        for ground in _grounds_up_to(4):
            for algebra in all_sigma_algebras(ground):
                records = enumerate_ultrafilters(algebra)
                measures = [measure_from_ultrafilter(u) for u in records]
                # distinct on both sides, mutually inverse
                assert len({m.ms for m in measures}) == len(records)
                for u, m in zip(records, measures):
                    back = ultrafilter_from_01_measure(m)
                    assert back.members == u.members
                    assert measure_from_ultrafilter(back).ms == m.ms
                    assert not null_sets_cover_ground(m.ms)
                # and the nontrivial 01-measures are exactly one per atom
                assert len(measures) == len(algebra.atoms)


def test_criterion_4_kit_soundness():
    with _Timer(4, "every valid kit constructs an embedding", 30.0):
        seen_valid = seen_invalid = 0
        for kit in small_kits():
            problems = validate_kit(kit)
            if problems:
                seen_invalid += 1
                continue
            seen_valid += 1
            ext = construct_extension(kit)
            assert check_measure_embedding(kit.base, ext)
            x = ext.ground.mask(kit.base.ground.labels)
            assert ext.is_thick(x)
            # pairwise union closure implies closure for longer selections
            for b1, d1s in kit.dfamily.items():
                for b2, d2s in kit.dfamily.items():
                    for b3, d3s in kit.dfamily.items():
                        for d1 in d1s:
                            for d2 in d2s:
                                for d3 in d3s:
                                    assert (d1 | d2 | d3) in kit.dfamily[b1 | b2 | b3]
        assert seen_valid > 100 and seen_invalid > 100  # both sides exercised


def _criterion_5_bases():
    values = (ZERO, ONE, ONE + ONE, INFINITY)
    for n in range(1, 4):
        ground = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(ground):
            for vals in iproduct(values, repeat=len(algebra.atoms)):
                yield MeasureSpace(algebra, vals)


def _blowup_reconstruct(kit: ExtensionKit, reference: MeasureSpace) -> MeasureSpace:
    """Point-indexed reconstruction: atom u of B picks up its fiber T_u.

    Only defined when every fiber kernel is a singleton {u}; rebuilds the
    algebra through generate_sigma_algebra rather than signature grouping,
    so it is an independent path.
    """
    ground = reference.ground
    x = ground.mask(kit.base.ground.labels)
    fiber_of_point = {
        kernel.labels()[0]: ground.mask(labels) for kernel, labels in kit.fibers.items()
    }
    family = []
    for b in kit.base.algebra.sets():
        widened = transfer_mask(b, ground)
        for u, fiber in fiber_of_point.items():
            if u in b:
                widened = widened | fiber
        for d in kit.dfamily[b]:
            family.append(widened | transfer_mask(d, ground))
    algebra = generate_sigma_algebra(ground, family)
    values = tuple(
        kit.base.measure_of(transfer_mask(atom & x, kit.base.ground))
        for atom in algebra.atoms
    )
    return MeasureSpace(algebra, values)


def test_criteria_5_6_7_roundtrip_blowup_thickness():
    from measpace.jsonio import canonical_dumps, space_to_obj

    with _Timer(5, "decompose/construct round trip + extension counts", 60.0):
        checked = 0
        for base in _criterion_5_bases():
            separating = base.algebra.is_discrete
            for extras in ([], ["p"], ["p", "q"]):
                exts = enumerate_extensions(base, extras)
                assert len(exts) == count_extensions_oracle(base, len(extras))
                assert exts == enumerate_extensions_oracle(base, extras)
                for ext in exts:
                    checked += 1
                    x = ext.ground.mask(base.ground.labels)
                    record = decompose_extension(ext, x)
                    assert record.kit.base == base
                    rebuilt = construct_extension(record.kit)
                    assert rebuilt == ext
                    assert canonical_dumps(space_to_obj(rebuilt)) == canonical_dumps(
                        space_to_obj(ext)
                    )
                    # criterion 6: blow-up form when the base separates points
                    if separating:
                        assert record.point_form
                        assert _blowup_reconstruct(record.kit, ext) == ext
                    # criterion 7: embedding <=> thick and lambda = mu o trace
                    assert check_measure_embedding(base, ext)
                    assert ext.is_thick(x)
                    assert check_thickness_equivalence(base, ext)
        # frozen counts: the two pinned examples
        one_point = MeasureSpace(
            SigmaAlgebra.discrete(GroundSet(("a",))), (ONE,)
        )
        assert len(enumerate_extensions(one_point, ["p", "q"])) == 5
        trivial_two = MeasureSpace(
            SigmaAlgebra.trivial(GroundSet(("a", "b"))), (ONE,)
        )
        assert len(enumerate_extensions(trivial_two, [])) == 1
        assert checked > 1000

    print("[acceptance] criterion 6 (blow-up equivalence): PASS (inside criterion 5)")

    # criterion 7, falsity directions: broken measures and broken traces
    with _Timer(7, "embedding iff thick with matching measure", 30.0):
        for base in _criterion_5_bases():
            for ext in enumerate_extensions(base, ["p"]):
                x = ext.ground.mask(base.ground.labels)
                # bump one atom's value: lambda no longer matches mu o trace
                for i in range(len(ext.atom_values)):
                    tweaked_values = tuple(
                        v + ONE if j == i else v for j, v in enumerate(ext.atom_values)
                    )
                    tweaked = MeasureSpace(ext.algebra, tweaked_values)
                    if tweaked == ext:  # inf + 1 == inf
                        continue
                    assert check_thickness_equivalence(base, tweaked)
                    assert not check_measure_embedding(base, tweaked)
        # trace-mismatched candidates must fail the measurable check
        two = GroundSet(("a", "b"))
        fine = SigmaAlgebra.discrete(two)
        coarse = SigmaAlgebra.trivial(two)
        assert not check_measurable_embedding(fine, coarse)
        assert not check_measurable_embedding(coarse, fine)


def test_criterion_8_products():
    with _Timer(8, "product suite", 30.0):
        values = (ONE, ONE + ONE, INFINITY, ZERO)
        # rectangle generation == atom products, over all factor algebras
        for nl in range(1, 4):
            for la in all_sigma_algebras(GroundSet(tuple("abc"[:nl]))):
                left = MeasureSpace(la, tuple(values[i % 4] for i in range(len(la.atoms))))
                for nr in range(1, 4):
                    for ra in all_sigma_algebras(GroundSet(tuple("123"[:nr]))):
                        right = MeasureSpace(
                            ra, tuple(values[(i + 1) % 4] for i in range(len(ra.atoms)))
                        )
                        ps = product_space(left, right)
                        rects = [
                            ps.rectangle(b, c) for b in la.sets() for c in ra.sets()
                        ]
                        assert generate_sigma_algebra(ps.product.ground, rects) == ps.product.algebra
                        for b in la.sets():
                            for c in ra.sets():
                                assert ps.product.measure_of(ps.rectangle(b, c)) == (
                                    left.measure_of(b) * right.measure_of(c)
                                )
                            for y in ra.ground.labels:
                                for s in ps.product.algebra.sets():
                                    assert la.member(y_section(ps, s, y))
        # lift/project over factors with measurable singletons
        for nl in range(1, 4):
            left = MeasureSpace(
                SigmaAlgebra.discrete(GroundSet(tuple("abc"[:nl]))),
                tuple(ONE for _ in range(nl)),
            )
            for nr in range(1, 4):
                right = MeasureSpace(
                    SigmaAlgebra.discrete(GroundSet(tuple("123"[:nr]))),
                    tuple(ONE for _ in range(nr)),
                )
                ps = product_space(left, right)
                for h in enumerate_ultrafilters(ps.product.algebra):
                    assert not (h.is_free and h.has_cip)
                    lrec, rrec = project_ultrafilter(ps, h)
                    assert ps.rectangle(lrec.kernel, rrec.kernel) == h.kernel
                for f in enumerate_ultrafilters(left.algebra):
                    for y in right.ground.labels:
                        lifted = lift_ultrafilter(ps, f, y)
                        assert not (lifted.is_free and lifted.has_cip)
                        back_l, back_r = project_ultrafilter(ps, lifted)
                        assert back_l.kernel == f.kernel
                        assert back_r.kernel == right.ground.singleton(y)


def test_criterion_9_cli_golden(capsys):
    from measpace.cli import run
    from test_cli import CASES, GOLDEN

    with _Timer(9, "CLI golden fixtures", 60.0):
        for name, argv, expected_code in CASES:
            golden = (GOLDEN / f"{name}.json").read_text()
            assert run(argv) == expected_code
            first = capsys.readouterr().out
            assert run(argv) == expected_code
            second = capsys.readouterr().out
            assert first == second == golden
            assert json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first
        # the deliberately broken embedding exits 1 with a concrete witness
        broken = next(c for c in CASES if c[0] == "check-embed_false")
        assert run(broken[1]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["witness"] == ["a", "p"]
