"""Filters, ultrafilters, the {0,1}-measure dictionary, transfer maps."""
import random
from collections import Counter

import pytest

from measpace import (
    GroundMismatchError,
    GroundSet,
    InputFormatError,
    MeasureSpace,
    ONE,
    PreconditionError,
    SetFamily,
    SigmaAlgebra,
    SubsetMask,
    ZERO,
    ZeroOneMeasure,
    all_sigma_algebras,
    classify_family,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    lift_to_superspace,
    mask_key,
    measure_from_ultrafilter,
    principal_ultrafilter,
    restrict_by_trace,
    trace_algebra,
    ultrafilter_from_01_measure,
)
from measpace import core, filters
from measpace.jsonio import family_to_obj

from support import (
    G,
    alg,
    brute_force_ultrafilters,
    check_dichotomy,
    check_sup_property,
    check_union_membership,
    classify_family_oracle,
    extend_to_ultrafilter_oracle,
    family_members_oracle,
    has_cip_oracle,
    lift_to_superspace_oracle,
    null_sets_cover_ground,
    outcome,
    principal_ultrafilter_oracle,
    restrict_by_trace_oracle,
    space,
    ultrafilter_from_01_measure_oracle,
)


def fam(algebra, *label_groups):
    return SetFamily(algebra, frozenset(algebra.ground.mask(g) for g in label_groups))


# ------------------------------------------------------------- classify

def test_classify_principal_ultrafilter():
    g = G("a", "b")
    a2 = alg(g, ["a"], ["b"])
    rec = classify_family(fam(a2, ["a"], ["a", "b"]))
    assert rec.is_ultrafilter and rec.has_cip and not rec.is_free
    assert rec.kernel == g.mask(["a"])


def test_classify_filter_not_ultra():
    g = G("a", "b")
    rec = classify_family(fam(alg(g, ["a"], ["b"]), ["a", "b"]))
    assert rec.is_filter and not rec.is_ultrafilter


def test_classify_not_filter_missing_intersection():
    g = G("a", "b", "c")
    rec = classify_family(fam(alg(g, ["a"], ["b"], ["c"]), ["a", "b"], ["b", "c"]))
    assert not rec.is_filter
    assert not rec.is_filter_base  # {b} is not present below the intersection


def test_classify_empty_family_flags_false():
    g = G("a")
    rec = classify_family(SetFamily(alg(g, ["a"]), frozenset()))
    assert not rec.is_filter_base and not rec.is_ultrafilter


def test_family_members_must_be_measurable():
    from measpace import NotMeasurableError

    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b", "c"])
    with pytest.raises(NotMeasurableError):
        SetFamily(algebra, frozenset({g.mask(["b"])}))


def test_cip_flag_agrees_with_subfamily_oracle():
    # the finite collapse "c.i.p. iff nonempty kernel" is a theorem; test it
    g = G("a", "b", "c")
    for algebra in all_sigma_algebras(g):
        sets = list(algebra.sets())
        for bitmap in range(1 << len(sets)):
            members = frozenset(s for i, s in enumerate(sets) if bitmap >> i & 1)
            rec = classify_family(SetFamily(algebra, members))
            oracle = has_cip_oracle(
                frozenset(m.bits for m in members), g.full.bits
            )
            assert rec.has_cip == oracle
            assert rec.is_free == (not oracle)


def test_classify_and_extend_match_oracle_on_every_family_up_to_4():
    # extension is compared on every filter-base, and on up to 3 points on
    # every family, which reaches each of its three refusals; each family's
    # JSON member list is the oracle's list of all sets, cut down to it (an
    # empty space object spares serializing the algebra 67,522 times)
    families = 0
    for algebra in _algebras_up_to(4):
        sets = list(algebra.sets())
        every_set = SetFamily(algebra, frozenset(sets))
        order = sorted(range(len(sets)), key=lambda i: mask_key(sets[i]))
        listed = list(zip(order, family_members_oracle(every_set)))
        for bitmap in range(1 << len(sets)):
            members = frozenset(s for i, s in enumerate(sets) if bitmap >> i & 1)
            family = SetFamily(algebra, members)
            expected = classify_family_oracle(family)
            assert classify_family(family) == expected
            members_obj = family_to_obj(family, {})["members"]
            assert members_obj == [m for i, m in listed if bitmap >> i & 1]
            if expected.is_filter_base or algebra.ground.size < 4:
                assert outcome(extend_to_ultrafilter, family) == outcome(
                    extend_to_ultrafilter_oracle, family
                )
            families += 1
    assert families == 67522


def test_classify_upsets_of_every_measurable_set_up_to_5():
    for algebra in _algebras_up_to(5):
        sets = list(algebra.sets())
        for s in sets:
            upset = SetFamily(algebra, frozenset(t for t in sets if s.issubset(t)))
            rec = classify_family(upset)
            assert rec == classify_family_oracle(upset)
            assert rec.kernel == s and rec.is_filter == bool(s)
            assert rec.is_ultrafilter == (s in algebra.atoms)


def _random_algebra(rng, n_atoms):
    ground = GroundSet(tuple(f"p{i}" for i in range(n_atoms + 2)))
    block = list(range(n_atoms)) + [rng.randrange(n_atoms) for _ in range(2)]
    rng.shuffle(block)
    atoms = [0] * n_atoms
    for point, b in enumerate(block):
        atoms[b] |= 1 << point
    return SigmaAlgebra(ground, tuple(SubsetMask(ground, bits) for bits in atoms))


def test_classify_matches_oracle_on_random_families_6_to_8_atoms():
    rng = random.Random(20121)
    for n_atoms in (6, 7, 8):
        algebra = _random_algebra(rng, n_atoms)
        sets = list(algebra.sets())
        for _ in range(12):
            s = rng.choice(sets)
            upset = [t for t in sets if s.issubset(t)]
            dropped = rng.choice(upset)
            candidates = [
                upset,
                [t for t in upset if t != dropped],
                upset + [rng.choice(sets)],
                [s] + rng.sample(upset, rng.randrange(len(upset) + 1)),
                rng.sample(sets, rng.randrange(1, 6)),
            ]
            for members in candidates:
                family = SetFamily(algebra, frozenset(members))
                assert classify_family(family) == classify_family_oracle(family)


# ------------------------------------------------------------- enumerate

def test_enumerate_examples_against_brute_force():
    g = G("a", "b", "c")
    for atoms in [(["a"], ["b", "c"]), (["a", "b", "c"],), (["a"], ["b"], ["c"])]:
        algebra = alg(g, *atoms)
        records = enumerate_ultrafilters(algebra)
        assert len(records) == len(algebra.atoms)
        assert [r.kernel for r in records] == list(algebra.atoms)
        assert all(r.has_cip and not r.is_free for r in records)
        oracle = brute_force_ultrafilters([s.bits for s in algebra.sets()])
        produced = [frozenset(m.bits for m in r.members) for r in records]
        assert len(oracle) == len(produced)
        assert set(oracle) == set(produced)


def _algebras_up_to(n_max):
    for n in range(n_max + 1):
        yield from all_sigma_algebras(GroundSet(tuple("abcde"[:n])))


def test_principal_ultrafilter_matches_classified_upset_up_to_5():
    for algebra in _algebras_up_to(5):
        for atom in algebra.atoms:
            assert principal_ultrafilter(algebra, atom) == principal_ultrafilter_oracle(
                algebra, atom
            )
        with pytest.raises(PreconditionError):
            principal_ultrafilter(algebra, algebra.ground.empty)


def test_ultrafilter_from_01_measure_matches_scan_up_to_5():
    for algebra in _algebras_up_to(5):
        for atom in algebra.atoms:
            values = tuple(ONE if a == atom else ZERO for a in algebra.atoms)
            zm = ZeroOneMeasure(MeasureSpace(algebra, values))
            assert ultrafilter_from_01_measure(zm) == ultrafilter_from_01_measure_oracle(zm)


def test_lift_to_superspace_matches_scan_up_to_4(monkeypatch):
    # every superalgebra on up to 4 points, every X and every algebra on X:
    # the lift or its refusal, decided on the cut list, so with every
    # trace-algebra builder patched to raise
    cases = []
    for big in _algebras_up_to(4):
        for bits in range(1 << big.ground.size):
            x = SubsetMask(big.ground, bits)
            for small in all_sigma_algebras(GroundSet(x.labels())):
                for f in enumerate_ultrafilters(small):
                    cases.append((f, big, outcome(lift_to_superspace_oracle, f, big)))

    def refuse(*args, **kwargs):
        raise AssertionError("lift_to_superspace built a trace algebra")

    for owner, name in ((core, "_trace"), (core, "trace_algebra"), (filters, "trace_algebra")):
        monkeypatch.setattr(owner, name, refuse)
    answers = Counter()
    for f, big, expected in cases:
        assert outcome(lift_to_superspace, f, big) == expected
        answers[expected[1] if type(expected) is tuple else "lifted"] += 1
    assert len(answers) == 3 and min(answers.values()) > 100
    foreign = enumerate_ultrafilters(alg(G("a", "q"), ["a"], ["q"]))[0]
    with pytest.raises(GroundMismatchError, match="^the ultrafilter's points are not in the"):
        lift_to_superspace(foreign, big)


def test_finite_dichotomy_up_to_5_points():
    for n in range(6):
        g = GroundSet(tuple("abcde"[:n]))
        for algebra in all_sigma_algebras(g):
            records = enumerate_ultrafilters(algebra)
            assert len(records) == len(algebra.atoms)
            assert not any(r.is_free and r.has_cip for r in records)


# ------------------------------------------------------------- dichotomy

def test_dichotomy_examples():
    g = G("a", "b")
    algebra = alg(g, ["a"], ["b"])
    u = enumerate_ultrafilters(algebra)[0]
    assert u.kernel == g.mask(["a"])
    assert check_dichotomy(u, g.mask(["a", "b"]))
    assert check_dichotomy(u, g.mask(["b"]))
    not_ultra = classify_family(fam(algebra, ["a", "b"]))
    with pytest.raises(PreconditionError):
        check_dichotomy(not_ultra, g.mask(["a"]))


def test_dichotomy_exhaustive_up_to_5():
    for n in range(6):
        g = GroundSet(tuple("abcde"[:n]))
        for algebra in all_sigma_algebras(g):
            for u in enumerate_ultrafilters(algebra):
                assert all(check_dichotomy(u, b) for b in algebra.sets())


def test_union_membership_examples():
    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b"], ["c"])
    u = enumerate_ultrafilters(algebra)[0]  # kernel {a}
    assert check_union_membership(u, [g.mask(["b"]), g.mask(["a", "c"])])
    assert check_union_membership(u, [g.mask(["b"]), g.mask(["c"])])
    assert check_union_membership(u, [])


def test_union_membership_exhaustive_lists_of_3():
    from itertools import combinations_with_replacement

    for n in range(5):
        g = GroundSet(tuple("abcd"[:n]))
        for algebra in all_sigma_algebras(g):
            sets = list(algebra.sets())
            for u in enumerate_ultrafilters(algebra):
                for r in range(4):
                    for bs in combinations_with_replacement(sets, r):
                        assert check_union_membership(u, list(bs))


# ------------------------------------------------------------- extension

def test_extend_examples():
    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b"], ["c"])
    # kernel {a,b}; the least-index atom inside it is {a}
    assert extend_to_ultrafilter(fam(algebra, ["a", "b"])).kernel == g.mask(["a"])
    assert extend_to_ultrafilter(fam(algebra, ["c"])).kernel == g.mask(["c"])
    with pytest.raises(PreconditionError):
        extend_to_ultrafilter(fam(algebra, ["a"], ["b"]))


def test_extend_contains_base_for_all_filter_bases():
    g = G("a", "b", "c")
    for algebra in all_sigma_algebras(g):
        sets = list(algebra.sets())
        for bitmap in range(1, 1 << len(sets)):
            members = frozenset(s for i, s in enumerate(sets) if bitmap >> i & 1)
            family = SetFamily(algebra, members)
            if not classify_family(family).is_filter_base:
                continue
            rec = extend_to_ultrafilter(family)
            assert rec.is_ultrafilter and members <= rec.members


# ------------------------------------------------------------- dictionary

def test_measure_from_ultrafilter_examples():
    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b"], ["c"])
    u_b = enumerate_ultrafilters(algebra)[1]
    zm = measure_from_ultrafilter(u_b)
    assert zm.ms.measure_of(g.mask(["a", "b"])) == ONE
    assert zm.ms.measure_of(g.mask(["a", "c"])) == ZERO
    u_a = enumerate_ultrafilters(algebra)[0]
    zm_a = measure_from_ultrafilter(u_a)
    assert zm_a.ms.measure_of(g.full) == ONE
    assert zm_a.ms.measure_of(g.empty) == ZERO
    # additivity over all disjoint measurable pairs
    for s in algebra.sets():
        for t in algebra.sets():
            if s.isdisjoint(t):
                assert zm.ms.measure_of(s | t) == zm.ms.measure_of(s) + zm.ms.measure_of(t)


def test_zero_one_measure_validation():
    g = G("a", "b")
    with pytest.raises(Exception):
        ZeroOneMeasure(space(g, (["a"], ["b"]), (1, 1)))
    with pytest.raises(Exception):
        ZeroOneMeasure(space(g, (["a"], ["b"]), (2, 0)))


def test_family_refuses_components_that_are_not_an_algebra_and_masks():
    g = G("a", "b")
    algebra = SigmaAlgebra.discrete(g)
    for ground_part, members in (
        (None, frozenset()),
        (g, frozenset()),
        (algebra, {1}),
        (algebra, {g.full, ("a",)}),
        (algebra, None),
        (algebra, [[1]]),
    ):
        with pytest.raises(InputFormatError):
            SetFamily(ground_part, members)


def test_zero_one_measure_refuses_what_is_not_a_measure_space():
    algebra = SigmaAlgebra.discrete(G("a"))
    for ms in (None, algebra):
        with pytest.raises(InputFormatError):
            ZeroOneMeasure(ms)


def test_uf_from_01_measure_examples_and_roundtrip():
    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b"], ["c"])
    zm = ZeroOneMeasure(MeasureSpace(algebra, (ZERO, ONE, ZERO)))
    assert ultrafilter_from_01_measure(zm).kernel == g.mask(["b"])
    with pytest.raises(PreconditionError):
        ultrafilter_from_01_measure(ZeroOneMeasure(MeasureSpace(algebra, (ZERO, ZERO, ZERO))))
    # round trip on every nontrivial 01-measure over atoms [{a},{b,c}]
    two = alg(g, ["a"], ["b", "c"])
    for unit in range(2):
        values = tuple(ONE if i == unit else ZERO for i in range(2))
        zm2 = ZeroOneMeasure(MeasureSpace(two, values))
        rec = ultrafilter_from_01_measure(zm2)
        assert measure_from_ultrafilter(rec).ms == zm2.ms
    for u in enumerate_ultrafilters(two):
        assert ultrafilter_from_01_measure(measure_from_ultrafilter(u)).members == u.members


def test_dictionary_bijection_up_to_4():
    for n in range(5):
        g = GroundSet(tuple("abcd"[:n]))
        for algebra in all_sigma_algebras(g):
            records = enumerate_ultrafilters(algebra)
            measures = [measure_from_ultrafilter(u) for u in records]
            assert len(set(m.ms for m in measures)) == len(records)
            for u, m in zip(records, measures):
                back = ultrafilter_from_01_measure(m)
                assert back.members == u.members and back.kernel == u.kernel
                # a nontrivial {0,1}-valued measure never has null sets covering X
                assert not null_sets_cover_ground(m.ms)


# ------------------------------------------------------------- sup property

def test_check_sup_property_examples():
    g = G("a", "b")
    algebra = alg(g, ["a"], ["b"])
    zero = ZeroOneMeasure(MeasureSpace(algebra, (ZERO, ZERO)))
    assert check_sup_property(zero, fam(algebra, ["a"], ["b"]))
    assert check_sup_property(zero, fam(algebra, []))
    nontrivial = measure_from_ultrafilter(enumerate_ultrafilters(algebra)[0])
    with pytest.raises(PreconditionError):
        check_sup_property(nontrivial, fam(algebra, ["a"]))


# ------------------------------------------------------------- transfer

def test_lift_to_superspace_examples():
    gy = G("a", "b", "c")
    big = alg(gy, ["a"], ["b"], ["c"])
    gx = G("a", "b")
    small = alg(gx, ["a"], ["b"])
    for label in ("a", "b"):
        f = classify_family(
            SetFamily(small, frozenset(s for s in small.sets() if label in s))
        )
        lifted = lift_to_superspace(f, big)
        assert lifted.kernel == gy.mask([label])
        assert lifted.has_cip and not lifted.is_free
    # X not measurable in the superalgebra
    coarse = alg(gy, ["a", "c"], ["b"])
    f = classify_family(SetFamily(small, frozenset(s for s in small.sets() if "a" in s)))
    with pytest.raises(PreconditionError):
        lift_to_superspace(f, coarse)


def test_restrict_by_trace_examples():
    gy = G("a", "b", "p")
    big = alg(gy, ["a"], ["b"], ["p"])
    x = gy.mask(["a", "b"])
    h_a = enumerate_ultrafilters(big)[0]
    restricted = restrict_by_trace(h_a, x)
    assert restricted.kernel.labels() == ("a",)
    h_p = enumerate_ultrafilters(big)[2]
    assert h_p.kernel == gy.mask(["p"])
    with pytest.raises(PreconditionError):
        restrict_by_trace(h_p, x)

    gy2 = G("a", "b", "p")
    big2 = alg(gy2, ["a", "p"], ["b"])
    h = enumerate_ultrafilters(big2)[0]
    assert h.kernel == gy2.mask(["a", "p"])
    restricted2 = restrict_by_trace(h, gy2.mask(["a", "b"]))
    assert restricted2.kernel.labels() == ("a",)


def test_restrict_by_trace_matches_oracle_up_to_4():
    # every ultrafilter of every algebra on up to 4 points, traced on every
    # subset, plus the filter {Y}, which is an ultrafilter only for one atom
    compared = 0
    for big in _algebras_up_to(4):
        whole = classify_family(SetFamily(big, frozenset({big.ground.full})))
        for h in enumerate_ultrafilters(big) + [whole]:
            for bits in range(1 << big.ground.size):
                x = SubsetMask(big.ground, bits)
                assert outcome(restrict_by_trace, h, x) == outcome(
                    restrict_by_trace_oracle, h, x
                )
                compared += 1
    assert compared == 977


def test_restrict_after_lift_is_identity():
    # over every superalgebra on 4 points in which X = {a,b} is measurable
    # with the right trace, lifting then restricting returns the original
    gy = G("a", "b", "c", "d")
    gx = G("a", "b")
    small = alg(gx, ["a"], ["b"])
    x = gy.mask(["a", "b"])
    for big in all_sigma_algebras(gy):
        if not big.member(x):
            continue
        if trace_algebra(big, x, gx) != small:
            continue
        for f in enumerate_ultrafilters(small):
            lifted = lift_to_superspace(f, big)
            assert lifted.kernel == gy.mask(f.kernel.labels())
            back = restrict_by_trace(lifted, x)
            assert back.members == f.members and back.kernel == f.kernel
