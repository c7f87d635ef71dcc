"""Embedding checks, extension kits, decomposition, enumeration oracle."""
import copy
import os
import pickle
import random
import re
import subprocess
import sys
from functools import cache
from itertools import product as iproduct
from pathlib import Path

import pytest

from measpace import (
    ExtensionKit,
    GroundMismatchError,
    GroundSet,
    INFINITY,
    InputFormatError,
    InvalidKitError,
    InvariantError,
    MeasureSpace,
    ONE,
    PreconditionError,
    SigmaAlgebra,
    SizeCapError,
    SubsetMask,
    ZERO,
    all_sigma_algebras,
    auto_fibers,
    check_measurable_embedding,
    check_measure_embedding,
    classify_outside_points,
    construct_extension,
    decompose_extension,
    enumerate_extensions,
    full_dfamily,
    identity_kit,
    mask_key,
    measure_embedding_report,
    transfer_mask,
    validate_kit,
)
from measpace import core, embeddings, jsonio
from measpace.core import _move as move_bits, _trace as trace_pass

from support import (
    G,
    alg,
    canonical_blocks_oracle,
    check_thickness_equivalence,
    classify_outside_points_oracle,
    closed_blocks_oracle,
    construct_extension_oracle,
    count_extensions_oracle,
    decompose_extension_oracle,
    embedding_report_oracle,
    enumerate_extensions_oracle,
    induced_base_oracle,
    kit_dfamily_oracle,
    outcome,
    random_report_pair,
    refinement_oracle,
    rgs_partitions,
    small_kits,
    space,
    spaces_and_subsets_up_to,
    trace_space,
    validate_kit_oracle,
)


# ------------------------------------------------------------- embedding checks

def test_check_measurable_embedding_examples():
    small = alg(G("a"), ["a"])
    big = alg(G("a", "p"), ["a", "p"])
    assert check_measurable_embedding(small, big)

    small2 = alg(G("a", "b"), ["a", "b"])
    big2 = alg(G("a", "b"), ["a"], ["b"])
    assert not check_measurable_embedding(small2, big2)  # trace too fine

    small3 = alg(G("a", "b"), ["a"], ["b"])
    big3 = alg(G("a", "b"), ["a", "b"])
    assert not check_measurable_embedding(small3, big3)  # trace too coarse

    with pytest.raises(GroundMismatchError):
        check_measurable_embedding(alg(G("x"), ["x"]), big)


def test_check_measure_embedding_examples():
    small = space(G("a"), (["a"],), (1,))
    big = space(G("a", "p"), (["a", "p"],), (1,))
    assert check_measure_embedding(small, big)

    big_bad = space(G("a", "p"), (["a", "p"],), (2,))
    report = measure_embedding_report(small, big_bad)
    assert not report.ok and report.reason == "measure-mismatch"
    assert report.witness.labels() == ("a", "p")

    big_split = space(G("a", "p"), (["a"], ["p"]), (1, 0))
    assert check_measure_embedding(small, big_split)  # all 4 big sets agree


def test_thickness_equivalence_examples():
    small = space(G("a"), (["a"],), (1,))
    big = space(G("a", "p"), (["a", "p"],), (1,))
    assert check_thickness_equivalence(small, big)

    # X not thick here, and no base measure embeds: both sides false
    big2 = space(G("a", "p"), (["a"], ["p"]), (0, 1))
    for v in (0, 1, 2, "inf"):
        small_v = space(G("a"), (["a"],), (v,))
        assert not check_measure_embedding(small_v, big2)
        assert check_thickness_equivalence(small_v, big2)

    assert check_thickness_equivalence(small, small)  # degenerate X = Y


# ------------------------------------------------------------- kits

def one_point_base(value=1):
    return space(G("a"), (["a"],), (value,))


def z_algebra():
    g = GroundSet(("z",))
    return SigmaAlgebra(g, (g.full,))


def test_validate_kit_examples():
    base = one_point_base()
    pasted = z_algebra()
    ok_kit = ExtensionKit(
        base, pasted, full_dfamily(base.algebra, pasted), {base.algebra.atoms[0]: ("p",)}
    )
    assert validate_kit(ok_kit) == []

    only_empty = {
        b: frozenset({pasted.ground.empty}) for b in base.algebra.sets()
    }
    bad_condition2 = ExtensionKit(base, pasted, only_empty, {})
    problems = validate_kit(bad_condition2)
    assert any("complement" in p for p in problems)

    collision = ExtensionKit(
        base, pasted, full_dfamily(base.algebra, pasted), {base.algebra.atoms[0]: ("z",)}
    )
    assert any("collides" in p for p in validate_kit(collision))


def test_validate_kit_more_violations():
    base = one_point_base()
    pasted = z_algebra()
    incomplete = ExtensionKit(
        base, pasted, {base.ground.full: frozenset({pasted.ground.full})}, {}
    )
    problems = validate_kit(incomplete)
    assert any("no pasted family" in p for p in problems)

    missing_empty = ExtensionKit(
        base,
        pasted,
        {
            base.ground.empty: frozenset({pasted.ground.full}),
            base.ground.full: frozenset({pasted.ground.empty}),
        },
        {},
    )
    assert any("empty pasted set" in p for p in validate_kit(missing_empty))

    not_atom = ExtensionKit(
        base,
        pasted,
        full_dfamily(base.algebra, pasted),
        {base.ground.empty: ("p",)},
    )
    assert any("not an atom" in p for p in validate_kit(not_atom))

    empty_fiber = ExtensionKit(
        base, pasted, full_dfamily(base.algebra, pasted), {base.algebra.atoms[0]: ()}
    )
    assert validate_kit(empty_fiber) == validate_kit_oracle(empty_fiber) == ["fiber {a} is empty"]


def test_pairwise_condition3_detected():
    # empty-set and complement conditions hold, only the union condition
    # fails: selecting {z} for the empty base set and nothing for {b}
    # produces {z}, which the family of {b} lacks
    base = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    pasted = z_algebra()
    zg = pasted.ground
    dfam = {
        base.ground.empty: frozenset({zg.empty, zg.full}),
        base.ground.mask(["a"]): frozenset({zg.full}),
        base.ground.mask(["b"]): frozenset({zg.empty}),
        base.ground.full: frozenset({zg.empty, zg.full}),
    }
    problems = validate_kit(ExtensionKit(base, pasted, dfam, {}))
    assert problems and all("union" in p for p in problems)


def test_kit_with_two_pasted_points_roundtrips():
    base = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    g = GroundSet(("w", "z"))
    pasted = SigmaAlgebra(g, (g.singleton("z"), g.singleton("w")))
    d = {m.labels(): m for m in pasted.sets()}
    dfam = {
        base.ground.empty: frozenset({d[()]}),
        base.ground.mask(["a"]): frozenset({d[("z",)]}),
        base.ground.mask(["b"]): frozenset({d[("w",)]}),
        base.ground.full: frozenset({d[("w", "z")]}),
    }
    kit = ExtensionKit(base, pasted, dfam, {})
    assert validate_kit(kit) == []
    ext = construct_extension(kit)
    assert [a.labels() for a in ext.algebra.atoms] == [("a", "z"), ("b", "w")]
    rec = decompose_extension(ext, ext.ground.mask(["a", "b"]))
    assert construct_extension(rec.kit) == ext


def test_construct_identity_kit():
    base = space(G("a", "b"), (["a"], ["b"]), ("1/2", "inf"))
    assert construct_extension(identity_kit(base)) == base


def test_construct_single_fiber():
    base = one_point_base()
    pasted = SigmaAlgebra(GroundSet(()), ())
    kit = ExtensionKit(
        base,
        pasted,
        {b: frozenset({pasted.ground.empty}) for b in base.algebra.sets()},
        {base.algebra.atoms[0]: ("p",)},
    )
    ext = construct_extension(kit)
    assert ext.ground.labels == ("a", "p")
    assert [a.labels() for a in ext.algebra.atoms] == [("a", "p")]
    assert ext.atom_values == (ONE,)


def test_construct_pasted_point():
    base = one_point_base()
    pasted = z_algebra()
    kit = ExtensionKit(base, pasted, full_dfamily(base.algebra, pasted), {})
    ext = construct_extension(kit)
    assert ext.ground.labels == ("a", "z")
    assert [a.labels() for a in ext.algebra.atoms] == [("a",), ("z",)]
    assert ext.atom_values == (ONE, ZERO)


def test_construct_rejects_invalid():
    base = one_point_base()
    pasted = z_algebra()
    bad = ExtensionKit(
        base, pasted, {b: frozenset({pasted.ground.empty}) for b in base.algebra.sets()}, {}
    )
    with pytest.raises(InvalidKitError) as err:
        construct_extension(bad)
    assert err.value.problems


def test_kit_refuses_a_base_or_pasted_part_of_the_wrong_type():
    base = one_point_base()
    pasted = z_algebra()
    for kit_base, kit_pasted in ((None, pasted), (base.algebra, pasted), (base, pasted.ground), (base, None)):
        with pytest.raises(InputFormatError):
            ExtensionKit(kit_base, kit_pasted, {}, {})


def test_kit_path_entry_points_refuse_arguments_of_the_wrong_type():
    # an argument of the wrong type is an input error, not an AttributeError
    ms = space(G("a", "p"), (["a", "p"],), (1,))
    x = ms.ground.mask(["a"])
    kit = identity_kit(one_point_base())
    for call, message in (
        (lambda: validate_kit(None), "a kit must be an ExtensionKit, got None"),
        (lambda: construct_extension(None), "a kit must be an ExtensionKit, got None"),
        (lambda: validate_kit(ms), f"a kit must be an ExtensionKit, got {ms!r}"),
        (lambda: decompose_extension(ms, None), "x must be a SubsetMask, got None"),
        (lambda: decompose_extension(None, x), "an extension must be a MeasureSpace, got None"),
        (lambda: decompose_extension(kit, x), f"an extension must be a MeasureSpace, got {kit!r}"),
        (lambda: classify_outside_points(ms, None), "x must be a SubsetMask, got None"),
        (lambda: classify_outside_points(ms, ["a"]), "x must be a SubsetMask, got ['a']"),
        (
            lambda: measure_embedding_report(None, ms),
            "the small space must be a MeasureSpace, got None",
        ),
        (
            lambda: measure_embedding_report(ms, ms.algebra),
            f"the big space must be a MeasureSpace, got {ms.algebra!r}",
        ),
        (
            lambda: check_measure_embedding(ms.algebra, ms),
            f"the small space must be a MeasureSpace, got {ms.algebra!r}",
        ),
    ):
        with pytest.raises(InputFormatError) as err:
            call()
        assert str(err.value) == message


def test_kit_refuses_a_dfamily_or_fibers_of_the_wrong_type():
    # each of these used to escape as an AttributeError, or as a fiber of
    # one-letter labels, instead of an input error
    base = one_point_base()
    pasted = z_algebra()
    atom = base.algebra.atoms[0]
    good = full_dfamily(base.algebra, pasted)
    for dfamily, fibers in (
        (None, {}),
        (good, None),
        ({**good, "a": frozenset({pasted.ground.empty})}, {}),
        ({**good, atom: frozenset({"z"})}, {}),
        ({**good, atom: None}, {}),
        ({**good, atom: [[1]]}, {}),
        (good, {atom: "pq"}),
        (good, {atom: (1,)}),
        (good, {atom: {"p", "q"}}),
        (good, {"a": ("p",)}),
        (good, {atom: ("",)}),
        (good, {atom: ("p,q",)}),
    ):
        with pytest.raises(InputFormatError):
            ExtensionKit(base, pasted, dfamily, fibers)
    kit = ExtensionKit(base, pasted, good, {atom: ["p"]})
    assert kit.fibers == {atom: ("p",)} and validate_kit(kit) == []
    # the kit holds its own dict, which a change to the caller's leaves alone
    assert kit.dfamily == good and kit.dfamily is not good


def test_kit_checks_a_family_shared_by_several_keys_once():
    # one family object under every key is read and type-checked once and
    # stored as one frozenset; a non-mask member or key is still refused
    # with the same message
    class Counted(list):
        def __iter__(self):
            self.reads += 1
            return super().__iter__()

    base = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    pasted = z_algebra()
    keys = list(base.algebra.sets())
    family = Counted(pasted.sets())
    family.reads = 0
    kit = ExtensionKit(base, pasted, dict.fromkeys(keys, family), {})
    assert family.reads == 1 and len({id(ds) for ds in kit.dfamily.values()}) == 1
    assert validate_kit(kit) == []

    bad = Counted([pasted.ground.empty, "z"])
    bad.reads = 0
    with pytest.raises(InputFormatError) as err:
        ExtensionKit(base, pasted, dict.fromkeys(keys, bad), {})
    assert str(err.value) == "a set in a kit's dfamily must be a SubsetMask, got 'z'"
    assert bad.reads == 1
    with pytest.raises(InputFormatError) as err:
        ExtensionKit(base, pasted, {**dict.fromkeys(keys, family), "b": family}, {})
    assert str(err.value) == "a set in a kit's dfamily must be a SubsetMask, got 'b'"


def test_kit_names_the_first_refused_dfamily_entry_in_dict_order():
    # the entries are walked in dict order, each key before its family's
    # members, so a bad member in entry 1 wins over a bad key in entry 2,
    # and a family that is no collection only when its entry comes first
    base = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    pasted = z_algebra()
    first, second, *rest = base.algebra.sets()
    good = frozenset(pasted.sets())
    once = iter([pasted.ground.empty, "m"])  # a one-shot family is read once
    for dfamily, message in (
        ({first: [pasted.ground.empty, "m"], "k": good}, "got 'm'"),
        ({first: once, "k": good}, "got 'm'"),
        ({"k": good, first: [pasted.ground.empty, "m"]}, "got 'k'"),
        (
            {first: good, second: None, "k": good},
            re.escape(f"pasted family of {second!r} must be an Iterable, got None"),
        ),
        ({"k": good, second: None}, "got 'k'"),
        ({first: good, second: good, "k": None}, "family of 'k' must be an Iterable, got None"),
        ({first: [1], second: [2]}, "got 1"),
        ({first: good, second: ["m"], rest[0]: None}, "got 'm'"),
    ):
        with pytest.raises(InputFormatError, match=message):
            ExtensionKit(base, pasted, dfamily, {})


@pytest.mark.parametrize(
    "kernel, size, message",
    [
        ("atom", "2", "integers"),
        ("atom", 2.0, "integers"),
        ("atom", True, "integers"),
        ("atom", None, "integers"),
        ("atom", 0, "at least 1"),
        # the two kernel cases keep the ids they had when one message covered both
        pytest.param(
            "empty", 1, "^a fiber kernel must be nonempty$", id="empty-1-nonempty SubsetMask"
        ),
        pytest.param(
            "a", 1, "^a fiber kernel must be a SubsetMask, got 'a'$", id="a-1-nonempty SubsetMask"
        ),
        # so do the two cases of sizes that are not a mapping
        pytest.param(
            "sizes",
            None,
            "^the fiber sizes must be a Mapping, got None$",
            id="sizes-None-must be a mapping",
        ),
        pytest.param(
            "sizes",
            [1],
            r"^the fiber sizes must be a Mapping, got \[1\]$",
            id="sizes-size8-must be a mapping",
        ),
    ],
)
def test_auto_fibers_refuses_a_bad_size_or_kernel(kernel, size, message):
    # a non-int size used to escape as a TypeError (or count a bool as 1),
    # an empty kernel as an IndexError, and sizes that are not a mapping
    # (kernel "sizes" passes ``size`` itself) as an AttributeError
    base = one_point_base()
    kernel = {"atom": base.algebra.atoms[0], "empty": base.ground.empty}.get(kernel, kernel)
    with pytest.raises(InputFormatError, match=message):
        auto_fibers(size if kernel == "sizes" else {kernel: size})


@pytest.mark.parametrize(
    "size", [core.MAX_POINTS + 1, 200_000, 10**9, 10**5000], ids=["17", "2e5", "1e9", "1e5000"]
)
def test_auto_fibers_refuses_a_size_past_the_point_cap(size):
    # no extension past the cap can be built, yet every label used to be
    # built first: 13 MB at 200,000 points, all memory at 10**9
    atom = one_point_base().algebra.atoms[0]
    with pytest.raises(SizeCapError, match="fiber sizes must be at most 16"):
        auto_fibers({atom: size})
    assert len(auto_fibers({atom: core.MAX_POINTS})[atom]) == core.MAX_POINTS


def test_construct_checks_its_result_without_assert(monkeypatch):
    # both invariants raise a library error, which python -O cannot strip;
    # validation is skipped, and the closure count of the oracle, which
    # takes an untyped kit too, gives the blocks
    base = one_point_base()
    monkeypatch.setattr(embeddings, "_checked", lambda kit: ([], closed_blocks_oracle(kit)))

    # closed, but one atom spans both base atoms
    two = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    empty = SigmaAlgebra(GroundSet(()), ())
    coarse = {s: frozenset({empty.ground.empty}) for s in (two.ground.empty, two.ground.full)}
    with pytest.raises(InvariantError, match="more than one base atom"):
        construct_extension(ExtensionKit(two, empty, coarse, {}))

    failing = embeddings.EmbeddingReport(False, "measure-mismatch", base.ground.full)
    monkeypatch.setattr(embeddings, "measure_embedding_report", lambda small, big: failing)
    with pytest.raises(InvariantError, match="measure-mismatch at {a}"):
        construct_extension(identity_kit(base))


def test_a_fast_refusal_without_a_witness_raises(monkeypatch):
    # a refusal by the atom-level check or the closure count that the
    # set-by-set scans cannot back is a library fault, not an answer
    base = one_point_base()
    kit = identity_kit(base)
    monkeypatch.setattr(embeddings, "_closed_blocks", lambda kit: None)
    with pytest.raises(InvariantError, match="no condition contradicts"):
        validate_kit(kit)

    monkeypatch.setattr(embeddings, "_embeds", lambda small, big, x, move: False)
    with pytest.raises(InvariantError, match="no set contradicts"):
        measure_embedding_report(base, base)


# ------------------------------------------------------------- decomposition

def test_decompose_fiber_example():
    big = space(G("a", "p"), (["a", "p"],), (1,))
    rec = decompose_extension(big, big.ground.mask(["a"]))
    assert rec.z_part == big.ground.empty
    assert {k.labels(): v for k, v in rec.kit.fibers.items()} == {("a",): ("p",)}
    assert all(ds == frozenset({rec.kit.pasted.ground.empty}) for ds in rec.kit.dfamily.values())
    assert rec.point_form


def test_decompose_pasted_example():
    big = space(G("a", "z"), (["a"], ["z"]), (1, 0))
    rec = decompose_extension(big, big.ground.mask(["a"]))
    assert rec.z_part.labels() == ("z",)
    assert rec.kit.fibers == {}
    zg = rec.kit.pasted.ground
    both = frozenset({zg.empty, zg.full})
    base_g = rec.kit.base.ground
    assert rec.kit.dfamily[base_g.empty] == both
    assert rec.kit.dfamily[base_g.full] == both
    assert rec.point_assignment["z"].kind == "pasted"


def test_decompose_identity_example():
    big = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    rec = decompose_extension(big, big.ground.full)
    assert rec.z_part == big.ground.empty
    assert rec.kit.fibers == {}
    assert rec.kit.pasted.ground.size == 0
    assert construct_extension(rec.kit) == big


def test_decompose_requires_embedding():
    big = space(G("a", "z"), (["a"], ["z"]), (1, 1))  # z not null: X does not embed
    with pytest.raises(PreconditionError):
        decompose_extension(big, big.ground.mask(["a"]))


def test_decompose_ultrafilter_form_for_non_separating_base():
    # atom {a,b} has two points: the fiber kernel is not a singleton
    big = space(G("a", "b", "p"), (["a", "b", "p"],), (1,))
    rec = decompose_extension(big, big.ground.mask(["a", "b"]))
    assert not rec.point_form
    (kernel,) = rec.kit.fibers
    assert kernel.labels() == ("a", "b")
    assert construct_extension(rec.kit) == big


def test_decompose_reads_base_values_off_trace_atoms():
    # ground (p, a, b): the big atom {p,b} sorts before {a}, its trace {b} after {a}
    big = space(G("p", "a", "b"), (["p", "b"], ["a"]), (1, 2))
    rec = decompose_extension(big, big.ground.mask(["a", "b"]))
    assert rec.kit.base == space(G("a", "b"), (["a"], ["b"]), (2, 1))


def _relabelled(ms, ground):
    """``ms`` re-expressed over ``ground``, a reordering of its labels."""
    pairs = sorted(
        ((transfer_mask(a, ground), v) for a, v in zip(ms.algebra.atoms, ms.atom_values)),
        key=lambda pair: pair[0].bits & -pair[0].bits,
    )
    atoms, values = zip(*pairs)
    return MeasureSpace(SigmaAlgebra(ground, atoms), values)


def test_decompose_base_with_points_in_any_order():
    # the reversed ground puts X last, so big atoms and trace atoms sort apart
    for base, ext in _extensions_up_to(5):
        reversed_ext = _relabelled(ext, GroundSet(ext.ground.labels[::-1]))
        x = reversed_ext.ground.mask(base.ground.labels)
        rec = decompose_extension(reversed_ext, x)
        assert rec.kit.base == _relabelled(base, rec.kit.base.ground)
        rebuilt = construct_extension(rec.kit)
        assert rebuilt == _relabelled(reversed_ext, rebuilt.ground)


# ------------------------------------------------------------- classification

def test_classify_outside_points_examples():
    big = space(G("a", "p"), (["a", "p"],), (1,))
    out = classify_outside_points(big, big.ground.mask(["a"]))
    assert out["p"].kind == "sticks_to" and out["p"].anchors == ("a",)

    big2 = space(G("a", "z"), (["a"], ["z"]), (1, 0))
    out2 = classify_outside_points(big2, big2.ground.mask(["a"]))
    assert out2["z"].kind == "pasted"


def test_no_finite_extension_has_separated_points():
    # exhaustive over all bases on <= 3 points and extensions by <= 2 points
    for n in range(1, 4):
        g = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(g):
            base = MeasureSpace(algebra, tuple(ONE for _ in algebra.atoms))
            for extras in ([], ["p"], ["p", "q"]):
                for ext in enumerate_extensions(base, extras):
                    x = ext.ground.mask(base.ground.labels)
                    for cls in classify_outside_points(ext, x).values():
                        assert cls.kind in ("pasted", "sticks_to")


# ------------------------------------------------------------- enumeration

def test_enumerate_examples():
    base = one_point_base()
    assert len(enumerate_extensions(base, ["p"])) == 2
    assert len(enumerate_extensions(base, ["p", "q"])) == 5

    base2 = space(G("a", "b"), (["a", "b"],), (1,))
    exts = enumerate_extensions(base2, [])
    assert len(exts) == 1 and exts[0] == base2


def test_enumerate_matches_independent_oracle():
    for n in range(1, 4):
        g = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(g):
            base = MeasureSpace(algebra, tuple(ONE for _ in algebra.atoms))
            for extras in ([], ["p"], ["p", "q"]):
                got = enumerate_extensions(base, extras)
                assert len(got) == count_extensions_oracle(base, len(extras))
                assert len(set(got)) == len(got)


def _enumeration_cases():
    """(base, extras) for every algebra on 1-3 points with every value
    tuple over {0, 1, inf} up to 5 points in all, one value tuple per
    algebra at 6 and 7 points, the discrete bases at the 8-point cap and
    the empty base at every size up to the cap."""
    extras = [f"p{i}" for i in range(8)]
    for n in range(1, 4):
        g = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(g):
            k = len(algebra.atoms)
            for vals in iproduct((ZERO, ONE, INFINITY), repeat=k):
                for m in range(6 - n):
                    yield MeasureSpace(algebra, vals), extras[:m]
            cycled = MeasureSpace(algebra, tuple(ExtReal_cycle(i) for i in range(k)))
            for total in (6, 7):
                yield cycled, extras[: total - n]
        yield MeasureSpace(SigmaAlgebra.discrete(g), (ONE,) * n), extras[: 8 - n]
    empty = MeasureSpace(SigmaAlgebra(GroundSet(()), ()), ())
    for m in range(9):
        yield empty, extras[:m]


def test_enumerate_matches_filter_oracle():
    # the generator against the filter over all Bell(n) partitions:
    # the same spaces in the same order
    cases = 0
    for base, extras in _enumeration_cases():
        cases += 1
        assert enumerate_extensions(base, extras) == enumerate_extensions_oracle(base, extras)
    assert cases == 262


def test_canonical_blocks_match_the_sorted_partition_listing():
    # every base partition on 0-4 points, to every size up to the cap: the
    # block tuples come out in the order the old full listing was sorted to
    cases = 0
    for size in range(5):
        g = GroundSet(tuple("abcd"[:size]))
        for algebra in all_sigma_algebras(g):
            atom_bits = tuple(a.bits for a in algebra.atoms)
            for n in range(size, embeddings.ENUMERATION_CAP + 1):
                cases += 1
                fresh = (1 << n) - (1 << size)
                listed = embeddings._canonical_blocks(atom_bits, fresh)
                assert listed == canonical_blocks_oracle(atom_bits, size, n)
                # nothing is kept between calls: a second call lists anew
                assert embeddings._canonical_blocks(atom_bits, fresh) is not listed
    assert cases == 136


def test_enumerate_shares_one_mask_per_block():
    base = space(G("a", "b"), (["a"], ["b"]), (1, 0))
    listing = enumerate_extensions(base, ["p", "q", "r"])
    shared = {}
    for ext in listing:
        assert ext.ground is listing[0].ground
        for atom in ext.algebra.atoms:
            assert shared.setdefault(atom.bits, atom) is atom
    assert len(listing) == 37


def test_enumerate_builds_what_the_public_constructors_build():
    # every listed space is built without __init__; it must equal and hash
    # like the checked rebuild, and pickle and deepcopy (which go through
    # __init__) must give it back unchanged
    for base, extras in _enumeration_cases():
        listing = enumerate_extensions(base, extras)
        for ext in listing:
            checked = MeasureSpace(SigmaAlgebra(ext.ground, ext.algebra.atoms), ext.atom_values)
            assert ext == checked and hash(ext) == hash(checked)
        assert pickle.loads(pickle.dumps(listing)) == listing
        assert copy.deepcopy(listing) == listing


def test_enumerate_builds_no_checked_algebra_or_space(monkeypatch):
    # _check_partitions proves every block tuple, so no listed space is
    # rebuilt through the checking constructors; the bases are built first
    cases = list(_enumeration_cases())

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_extensions ran a checking constructor")

    monkeypatch.setattr(SigmaAlgebra, "__init__", refuse)
    monkeypatch.setattr(MeasureSpace, "__init__", refuse)
    listed = sum(len(enumerate_extensions(base, extras)) for base, extras in cases)
    assert listed > 10000


BROKEN_PARTITIONS = [
    ((0b011, 0b110), 0b111),  # overlapping
    ((0b011, 0b010), 0b101),  # overlapping, though their sum is the ground
    ((0b001, 0b010), 0b111),  # not covering
    ((0b010, 0b101), 0b111),  # out of order
    ((0b001, 0, 0b110), 0b111),  # an empty block
]


def test_enumeration_partition_check():
    check = embeddings._check_partitions
    check([(0b001, 0b110), (0b101, 0b010), (0b111,)], 0b111)
    check([()], 0)
    for blocks, full in BROKEN_PARTITIONS:
        with pytest.raises(InvariantError):
            check([(full,), blocks], full)


def test_enumeration_partition_check_survives_optimize():
    # python -O strips assert statements; the check must still raise
    script = f"""
from measpace import InvariantError
from measpace.embeddings import _check_partitions
for blocks, full in {BROKEN_PARTITIONS!r}:
    try:
        _check_partitions([blocks], full)
    except InvariantError:
        continue
    raise SystemExit(f"no InvariantError for {{blocks}}")
"""
    src = Path(embeddings.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr


def test_enumerate_guards():
    base = one_point_base()
    with pytest.raises(SizeCapError):
        enumerate_extensions(base, [f"p{i}" for i in range(8)])
    with pytest.raises(Exception):
        enumerate_extensions(base, ["a"])  # not fresh
    with pytest.raises(Exception):
        enumerate_extensions(base, ["p", "p"])  # duplicate
    # a string used to split into one-letter points, and a mix of label
    # types to escape as a TypeError; a set is accepted, since the extra
    # points are sorted anyway
    for extras in ("pq", 5, None, [1, "p"], [["q"], "p"]):
        with pytest.raises(InputFormatError):
            enumerate_extensions(base, extras)
    assert enumerate_extensions(base, {"q", "p"}) == enumerate_extensions(base, ["p", "q"])
    # the listing builds its spaces unchecked, so only a checked space may be its base
    for not_a_space in (None, base.algebra):
        with pytest.raises(InputFormatError):
            enumerate_extensions(not_a_space, ["p"])


def test_empty_base_space():
    # the empty space embeds exactly into the all-null spaces
    empty = MeasureSpace(SigmaAlgebra(GroundSet(()), ()), ())
    exts = enumerate_extensions(empty, ["p", "q"])
    assert len(exts) == 2
    for ext in exts:
        assert all(v == ZERO for v in ext.atom_values)
        rec = decompose_extension(ext, ext.ground.empty)
        assert all(pa.kind == "pasted" for pa in rec.point_assignment.values())
        assert construct_extension(rec.kit) == ext


def test_lambda_forced_and_thick_in_every_extension():
    values = (ZERO, ONE, INFINITY)
    for atoms in [(["a"],), (["a", "b"],), (["a"], ["b"])]:
        labels = sorted({l for grp in atoms for l in grp})
        g = GroundSet(tuple(labels))
        for vals in iproduct(values, repeat=len(atoms)):
            base = space(g, atoms, vals)
            for ext in enumerate_extensions(base, ["p", "q"]):
                x = ext.ground.mask(base.ground.labels)
                assert ext.is_thick(x)
                assert check_measure_embedding(base, ext)
                # the measure is pinned per atom by its X-part
                for atom, value in zip(ext.algebra.atoms, ext.atom_values):
                    assert value == base.measure_of(
                        transfer_mask(atom & x, base.ground)
                    )


# ------------------------------------------------------------- round trip

def test_roundtrip_all_small_extensions():
    for n in range(1, 4):
        g = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(g):
            base = MeasureSpace(
                algebra, tuple(ExtReal_cycle(i) for i in range(len(algebra.atoms)))
            )
            for extras in ([], ["p"], ["p", "q"]):
                for ext in enumerate_extensions(base, extras):
                    rec = decompose_extension(ext, ext.ground.mask(base.ground.labels))
                    assert rec.kit.base == base
                    assert construct_extension(rec.kit) == ext


def ExtReal_cycle(i):
    from measpace import ExtReal

    return (ZERO, ONE, ExtReal.of(2), INFINITY)[i % 4]


# ------------------------------------------------------------- fast paths against oracles

def _toggled(kit):
    """Every kit that differs from ``kit`` by one pasted set added to or
    dropped from one D_B."""
    for b in sorted(kit.dfamily, key=mask_key):
        ds = kit.dfamily[b]
        for d in kit.pasted.sets():
            changed = ds - {d} if d in ds else ds | {d}
            yield ExtensionKit(kit.base, kit.pasted, {**kit.dfamily, b: changed}, kit.fibers)


def _extensions_up_to(n_points):
    """(base, extension) for every base on 1-3 points and every extension
    of it to at most ``n_points`` points."""
    for n in range(1, 4):
        g = GroundSet(tuple("abc"[:n]))
        for algebra in all_sigma_algebras(g):
            base = MeasureSpace(
                algebra, tuple(ExtReal_cycle(i) for i in range(len(algebra.atoms)))
            )
            for m in range(n_points - n + 1):
                for ext in enumerate_extensions(base, ["p", "q", "r", "s"][:m]):
                    yield base, ext


def _foreign(kit):
    """Every kit that differs from ``kit`` by one dfamily key, or by the
    least member of one D_B, carrying the same bits over a ground other
    than its own: the reversed base or pasted ground, or the pasted
    ground for a key and the base ground for a member."""
    x, z = kit.base.ground, kit.pasted.ground
    key_grounds = [g for g in (GroundSet(x.labels[::-1]), z) if g != x]
    member_grounds = [g for g in (GroundSet(z.labels[::-1]), x) if g != z]
    for b in sorted(kit.dfamily, key=mask_key):
        ds = kit.dfamily[b]
        for g in key_grounds:
            if b.bits < 1 << g.size:
                rest = {c: es for c, es in kit.dfamily.items() if c != b}
                yield ExtensionKit(
                    kit.base, kit.pasted, {**rest, SubsetMask(g, b.bits): ds}, kit.fibers
                )
        d = min(ds, key=mask_key)
        for g in member_grounds:
            if d.bits < 1 << g.size:
                changed = ds - {d} | {SubsetMask(g, d.bits)}
                yield ExtensionKit(
                    kit.base, kit.pasted, {**kit.dfamily, b: changed}, kit.fibers
                )


@cache
def _criterion_4_cases():
    """(kit, oracle problems, mutation) for every criterion-4 kit, each
    valid one followed by its single-set mutants: mutation is None for a
    kit of ``small_kits()``, else "toggled" or "foreign".  The oracle runs
    once per session, for every test that reads these cases."""
    cases = []
    for kit in small_kits():
        expected = validate_kit_oracle(kit)
        cases.append((kit, expected, None))
        if not expected:
            cases += [(m, validate_kit_oracle(m), "toggled") for m in _toggled(kit)]
            cases += [(m, validate_kit_oracle(m), "foreign") for m in _foreign(kit)]
    return cases


def test_validate_kit_matches_oracle_on_criterion_4_kits():
    # every criterion-4 kit, and every single-set mutation of the valid
    # ones, with a set moved onto a foreign ground among them
    valid = invalid = foreign = 0
    for kit, expected, mutation in _criterion_4_cases():
        problems = validate_kit(kit)
        assert problems == expected
        if mutation is None:
            valid += not problems
            invalid += bool(problems)
        elif mutation == "foreign":
            assert problems
            foreign += 1
    assert valid > 100 and invalid > 100 and foreign > 1000


def test_stopped_refinement_gives_the_full_blocks_on_criterion_4_kits():
    # a typed kit's G is made of unions of its k + m cells, so stopping at
    # k + m blocks leaves the blocks every member would give, and counting
    # G gives its size; the order of the blocks is the refinement's own,
    # so they are compared as sets (SigmaAlgebra sorts its atoms)
    typed = stopped = 0
    decomposed = [
        decompose_extension(ext, ext.ground.mask(base.ground.labels)).kit
        for base, ext in _extensions_up_to(5)
    ]
    for kit in [case[0] for case in _criterion_4_cases()] + decomposed:
        if not embeddings._shape_problems(kit)[1]:
            continue
        expected = closed_blocks_oracle(kit)
        closed = embeddings._closed_blocks(kit)
        assert (closed is None) == (expected is None)
        if closed is not None:
            assert len(closed) == len(expected) and set(closed) == set(expected)
        shift = kit.base.ground.size
        generated = {b.bits | d.bits << shift for b, ds in kit.dfamily.items() for d in ds}
        blocks = refinement_oracle(shift + kit.pasted.ground.size, generated)
        typed += 1
        stopped += len(blocks) == len(kit.base.algebra.atoms) + len(kit.pasted.atoms)
    assert typed > 1000 and stopped > 500


def _cap_kit():
    """The decomposed kit of a discrete 15-atom space plus one null pasted
    point: 16 points, 2**15 keys that share one two-member family."""
    ground = GroundSet(tuple(f"x{i:02}" for i in range(15)) + ("z",))
    big = MeasureSpace(SigmaAlgebra.discrete(ground), (ONE,) * 15 + (ZERO,))
    kit = decompose_extension(big, ground.mask(ground.labels[:15])).kit
    assert len(kit.dfamily) == 1 << 15 and len(kit.pasted.atoms) == 1
    return big, kit


def test_closure_count_reads_few_members_at_the_cap(monkeypatch):
    # the base atoms' members come first and split all 16 cells, so the
    # refinement stops after at most (k + 1) * |D| of the 65,536 members
    big, kit = _cap_kit()
    read, refine = [], embeddings.generated_atom_bits

    def counted(size, generator_bits, most=None):
        def stream():
            for g in generator_bits:
                read.append(g)
                yield g
        return refine(size, stream(), most)

    monkeypatch.setattr(embeddings, "generated_atom_bits", counted)
    assert validate_kit(kit) == []
    assert 0 < len(read) <= (15 + 1) * 2
    assert construct_extension(kit) == big


def test_validate_kit_lists_a_non_measurable_member_of_a_shared_family_once_per_key():
    # one family object under every key (as full_dfamily and
    # decompose_extension share it) and equal but distinct families, with
    # distinct members, give the same messages, in key order
    base = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    zg = G("z", "w")
    pasted = alg(zg, ["z", "w"])
    family = frozenset({zg.empty, zg.mask(["z"]), zg.full})
    shared = ExtensionKit(base, pasted, dict.fromkeys(base.algebra.sets(), family), {})
    distinct = ExtensionKit(base, pasted, _distinct_families(shared.dfamily), {})
    assert len({id(ds) for ds in distinct.dfamily.values()}) == 4
    expected = [
        f"pasted family for {b} contains non-measurable {{z}}"
        for b in ("{}", "{a}", "{a,b}", "{b}")
    ]
    assert validate_kit(shared) == validate_kit(distinct) == expected
    assert validate_kit_oracle(shared) == validate_kit_oracle(distinct) == expected


def test_validate_kit_matches_oracle_on_decomposed_kits():
    # canonical kits of extensions up to 5 points carry pasted parts of up
    # to 4 points; they are valid, and their single-set mutations mostly
    # not, and never when a set lies over a foreign ground
    broken = foreign = 0
    for base, ext in _extensions_up_to(5):
        kit = decompose_extension(ext, ext.ground.mask(base.ground.labels)).kit
        assert validate_kit(kit) == validate_kit_oracle(kit) == []
        for mutant in _toggled(kit):
            problems = validate_kit(mutant)
            assert problems == validate_kit_oracle(mutant)
            broken += bool(problems)
        for mutant in _foreign(kit):
            problems = validate_kit(mutant)
            assert problems and problems == validate_kit_oracle(mutant)
            foreign += 1
    assert broken > 1000 and foreign > 1000


def test_validate_kit_matches_oracle_on_mixed_families():
    # complete, measurable dfamilies on 3-4 base atoms whose families are
    # drawn from one to three shapes, so closure fails under some base
    # sets and holds under others; a constant family is closed only when
    # its one shape is
    rng = random.Random(11)
    zg = GroundSet(("z", "w"))
    pasted = SigmaAlgebra(zg, (zg.singleton("z"), zg.singleton("w")))
    dsets = list(pasted.sets())
    refused = 0
    for trial in range(60):
        k = 3 + trial % 2
        ground = GroundSet(tuple("abcdef"[: k + 1]))
        groups = [["a", "abcdef"[k]], *([x] for x in "bcdef"[: k - 1])]
        base = space(ground, groups, (1,) * k)
        shapes = [
            frozenset(rng.sample(dsets, rng.randint(1, len(dsets))))
            for _ in range(1 + trial % 3)
        ]
        dfamily = {b: rng.choice(shapes) for b in base.algebra.sets()}
        kit = ExtensionKit(base, pasted, dfamily, {})
        problems = validate_kit(kit)
        assert problems == validate_kit_oracle(kit)
        refused += bool(problems)
    assert 10 < refused < 60


def test_validate_kit_matches_oracle_with_many_failures_per_condition():
    # random kits that break several labels, fibers, keys and members at
    # once, so each group of messages has more than one entry to order
    rng = random.Random(13)
    ground = GroundSet(("a", "b", "c", "d", "e"))
    base = space(ground, (["a", "e"], ["b"], ["c", "d"]), (1, 0, "inf"))
    zg = GroundSet(("z", "w", "v"))
    pasted = SigmaAlgebra(zg, (zg.mask(["z", "w"]), zg.singleton("v")))
    every_x = [SubsetMask(ground, bits) for bits in range(1 << ground.size)]
    every_z = [SubsetMask(zg, bits) for bits in range(1 << zg.size)]
    refused = 0
    for _ in range(300):
        keys = [b for b in base.algebra.sets() if rng.random() < 0.8]
        keys += rng.sample(every_x, 3)
        dfamily = {
            b: frozenset(rng.sample(every_z, rng.choice((0, 1, 2, 4)))) for b in keys
        }
        fibers = {
            kernel: tuple(rng.sample(["p", "q", "a", "z", "p"], rng.randint(0, 2)))
            for kernel in rng.sample([*base.algebra.atoms, *every_x[:6]], 4)
        }
        kit = ExtensionKit(base, pasted, dfamily, fibers)
        problems = validate_kit(kit)
        assert problems == validate_kit_oracle(kit)
        refused += bool(problems)
    assert refused == 300


def test_validate_kit_never_walks_an_algebra(monkeypatch):
    # every criterion-4 kit and every single-set mutation of the valid
    # ones, refused ones included, is listed without SigmaAlgebra.sets();
    # the oracle walks algebras, so its cases are built before the patch
    cases = _criterion_4_cases()

    def refuse(*args, **kwargs):
        raise AssertionError("validate_kit walked an algebra")

    monkeypatch.setattr(SigmaAlgebra, "sets", refuse)
    refused = 0
    for kit, expected, _ in cases:
        assert validate_kit(kit) == expected
        refused += bool(expected)
    assert refused > 1000


def _built(construct, kit):
    """The space ``construct`` builds from ``kit``, or the type and message
    of its refusal."""
    try:
        return construct(kit)
    except InvalidKitError as exc:
        return type(exc), str(exc)


def test_construct_extension_matches_oracle():
    # every criterion-4 kit (refused ones too), and the canonical kit of
    # every extension up to 5 points, which rebuilds that extension
    built = 0
    for kit, problems, mutation in _criterion_4_cases():
        if mutation is not None:
            continue
        got = _built(construct_extension, kit)
        # construct_extension_oracle refuses a kit with exactly the oracle's problems
        if problems:
            assert got == (InvalidKitError, str(InvalidKitError(problems)))
        else:
            assert got == construct_extension_oracle(kit)
        built += isinstance(got, MeasureSpace)
    assert built > 100
    seen = 0
    for base, ext in _extensions_up_to(5):
        kit = decompose_extension(ext, ext.ground.mask(base.ground.labels)).kit
        assert construct_extension(kit) == construct_extension_oracle(kit) == ext
        for mutant in _foreign(kit):
            got = _built(construct_extension, mutant)
            assert got[0] is InvalidKitError
            assert got == _built(construct_extension_oracle, mutant)
        seen += 1
    assert seen == 221


def _six_atom_kit():
    """A valid kit on a 6-atom base with one fiber and two pasted points."""
    ground = GroundSet(tuple("abcdefg"))
    base = space(ground, (["a", "g"], ["b"], ["c"], ["d"], ["e"], ["f"]), (1, 0, 2, 1, "inf", 3))
    zg = GroundSet(("z", "w"))
    pasted = SigmaAlgebra(zg, (zg.singleton("z"), zg.singleton("w")))
    kit = ExtensionKit(
        base, pasted, full_dfamily(base.algebra, pasted), {base.algebra.atoms[2]: ("p",)}
    )
    assert len(base.algebra.atoms) == 6 and validate_kit_oracle(kit) == []
    return kit


def _distinct_families(dfamily):
    """``dfamily`` with every family, and every member, its own object."""
    return {
        b: frozenset([SubsetMask(d.ground, d.bits) for d in ds]) for b, ds in dfamily.items()
    }


def test_validate_kit_builds_no_mask_and_sorts_nothing_on_a_valid_kit(monkeypatch):
    # the kit as built in memory shares one family; validation builds and
    # sorts nothing either when every family and member is its own object
    shared = _six_atom_kit()
    distinct = ExtensionKit(
        shared.base, shared.pasted, _distinct_families(shared.dfamily), shared.fibers
    )
    assert len({id(ds) for ds in distinct.dfamily.values()}) == len(distinct.dfamily)
    kits = [shared, distinct]

    def refuse(*args, **kwargs):
        raise AssertionError("called on the success path")

    monkeypatch.setattr(SubsetMask, "__init__", refuse)
    monkeypatch.setattr(embeddings, "sorted", refuse, raising=False)
    for kit in kits:
        assert validate_kit(kit) == []


def test_construct_extension_refines_the_closure_once(monkeypatch):
    # construction reuses the blocks validation found, not a second refinement
    calls, refine = [], embeddings.generated_atom_bits

    def counted(size, generator_bits, most=None):
        calls.append(size)
        return refine(size, generator_bits, most)

    monkeypatch.setattr(embeddings, "generated_atom_bits", counted)
    kit = _six_atom_kit()
    assert construct_extension(kit) == construct_extension_oracle(kit)
    assert len(calls) == 1


def test_construct_extension_measures_no_set_and_moves_no_pair(monkeypatch):
    kit = _six_atom_kit()
    expected = construct_extension_oracle(kit)
    passes, moves, tables = [], [], []

    def refuse(*args, **kwargs):
        raise AssertionError("called by construct_extension")

    def counted_pass(*args):
        passes.append(args)
        return trace_pass(*args)

    def counted_move(bits, table):
        moves.append(bits)
        return move_bits(bits, table)

    def counted_table(source, target):
        tables.append((source, target))
        return bit_table(source, target)

    bit_table = embeddings._bit_table
    monkeypatch.setattr(MeasureSpace, "measure_of", refuse)
    monkeypatch.setattr(embeddings, "transfer_mask", refuse)
    monkeypatch.setattr(embeddings, "_trace", counted_pass)
    monkeypatch.setattr(embeddings, "_move", counted_move)
    monkeypatch.setattr(embeddings, "_bit_table", counted_table)
    built = []
    for cls in (GroundSet, SigmaAlgebra, MeasureSpace):
        monkeypatch.setattr(cls, "__init__", _counted_init(cls.__init__, built))
    assert construct_extension(kit) == expected
    # one label-to-bit table moves each block's pasted part onto the new
    # ground, and one moves the closing check's cuts onto the base ground;
    # the check makes no trace pass and builds no ground, algebra or space
    # besides the result's
    x = expected.ground.mask(kit.base.ground.labels)
    meeting = sum(not atom.isdisjoint(x) for atom in expected.algebra.atoms)
    assert passes == []
    assert len(moves) == len(expected.algebra.atoms) + meeting
    assert built == [GroundSet, SigmaAlgebra, MeasureSpace]
    assert tables == [(kit.pasted.ground, expected.ground), (expected.ground, kit.base.ground)]


def _counted_init(init, built):
    """``init``, appending the class of each value it builds to ``built``."""

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)

    return counted


def _report_cases(n_points):
    """(small, big) for each base and extension of ``_extensions_up_to``:
    the extension, each copy with one atom value moved on, one seeded
    random space on its ground, and its copy over the reversed ground,
    against the base and against the base listed the other way round."""
    rng = random.Random(5)
    values = (ZERO, ONE, ExtReal_cycle(2), INFINITY)
    for base, ext in _extensions_up_to(n_points):
        candidates = [ext]
        for i, v in enumerate(ext.atom_values):
            changed = list(ext.atom_values)
            changed[i] = values[(values.index(v) + 1) % len(values)]
            candidates.append(MeasureSpace(ext.algebra, tuple(changed)))
        blocks = rng.choice(list(rgs_partitions(ext.ground.size)))
        random_alg = SigmaAlgebra(
            ext.ground,
            tuple(ext.ground.mask(ext.ground.labels[i] for i in blk) for blk in blocks),
        )
        candidates.append(
            MeasureSpace(random_alg, tuple(rng.choice(values) for _ in blocks))
        )
        # the reversed copies put X last, and list the base points the
        # other way round from the big ground
        candidates.append(_relabelled(ext, GroundSet(ext.ground.labels[::-1])))
        reversed_base = _relabelled(base, GroundSet(base.ground.labels[::-1]))
        yield from iproduct((base, reversed_base), candidates)


def test_measure_embedding_report_matches_oracle():
    outcomes = set()
    for small, big in _report_cases(5):
        report = measure_embedding_report(small, big)
        assert report == embedding_report_oracle(small, big)
        outcomes.add(report.reason)
    assert outcomes == {None, "trace-mismatch", "measure-mismatch"}


def test_measure_embedding_report_matches_oracle_at_9_to_12_points():
    # seeded pairs past the exhaustive sizes, where a walk that takes a
    # wrong atom has room to name a later set than the scan does
    rng = random.Random(24)
    outcomes = set()
    for n in (9, 10, 11, 12) * 25:
        small, big = random_report_pair(rng, n)
        report = measure_embedding_report(small, big)
        assert report == embedding_report_oracle(small, big)
        outcomes.add((report.reason, report.ok or report.witness.ground == small.ground))
    assert outcomes == {
        (None, True),
        ("trace-mismatch", False),  # a big set whose trace is not measurable
        ("trace-mismatch", True),  # a small set that is no trace
        ("measure-mismatch", False),
    }


def test_measure_embedding_report_in_another_label_order_and_with_a_heavy_null_atom():
    # small lists X the other way round from big, so each cut moves onto
    # small's bits by label, not by position; an atom that misses X must
    # be null, and one of value inf makes X thin
    small = space(G("b", "a"), (["b"], ["a"]), (1, 2))
    cases = [
        (space(G("a", "b", "p"), (["a", "p"], ["b"]), (2, 1)), None),
        (space(G("a", "b", "p"), (["a"], ["b"], ["p"]), (2, 1, 0)), None),
        (space(G("p", "a", "b"), (["p", "b"], ["a"]), (1, 2)), None),
        (space(G("a", "b", "p"), (["a", "p"], ["b"]), (1, 2)), "measure-mismatch"),
        (space(G("a", "b", "p"), (["a"], ["b"], ["p"]), (2, 1, "inf")), "measure-mismatch"),
        (space(G("a", "b", "p"), (["a"], ["b"], ["p"]), (2, 1, 1)), "measure-mismatch"),
        (space(G("a", "b", "p"), (["a", "b"], ["p"]), (3, 0)), "trace-mismatch"),
        (space(G("a", "b"), (["a"], ["b"]), (1, 2)), "measure-mismatch"),
    ]
    for big, reason in cases:
        report = measure_embedding_report(small, big)
        assert report == embedding_report_oracle(small, big)
        assert report.reason == reason
    # the first big set in canonical order whose measure moves is {a,b,p}
    thin = measure_embedding_report(small, cases[4][0])
    assert thin.witness.labels() == ("a", "b", "p")


def test_refused_embeddings_never_walk_an_algebra(monkeypatch):
    # each witness is found by a walk over the atoms, never by listing the
    # measurable sets; the oracle lists them, so it runs before the patch
    cases = [(small, big, embedding_report_oracle(small, big)) for small, big in _report_cases(4)]

    def refuse(*args, **kwargs):
        raise AssertionError("measure_embedding_report walked an algebra")

    monkeypatch.setattr(SigmaAlgebra, "sets", refuse)
    refused = {"trace-mismatch": 0, "measure-mismatch": 0}
    for small, big, expected in cases:
        assert measure_embedding_report(small, big) == expected
        if not expected.ok:
            refused[expected.reason] += 1
    assert refused["trace-mismatch"] > 40 and refused["measure-mismatch"] > 300


def test_submasks_yield_each_submask_once_from_the_top_down():
    for bits in range(1 << 8):
        expected = [s for s in range(bits, -1, -1) if s & ~bits == 0]
        assert list(embeddings._submasks(bits)) == expected


def _extensions_both_ways_up_to(n_points):
    """(extension, X) for every extension of ``_extensions_up_to``, and
    for its copy over the reversed ground, which puts X last."""
    for base, ext in _extensions_up_to(n_points):
        for ms in (ext, _relabelled(ext, GroundSet(ext.ground.labels[::-1]))):
            yield ms, ms.ground.mask(base.ground.labels)


def test_decompose_extension_matches_set_by_set_decomposition():
    seen = 0
    for ext, x in _extensions_both_ways_up_to(5):
        assert decompose_extension(ext, x) == decompose_extension_oracle(ext, x)
        seen += 1
    assert seen == 2 * 221


def test_classify_outside_points_matches_oracle():
    seen = 0
    for ext, x in _extensions_both_ways_up_to(5):
        classes = classify_outside_points(ext, x)
        assert classes == classify_outside_points_oracle(ext, x)
        assert {cls.kind for cls in classes.values()} <= {"pasted", "sticks_to"}
        seen += 1
    assert seen == 2 * 221


def test_classify_and_decompose_serialize_outside_points_alike():
    # the decomposed kit shares one pasted family across its base sets,
    # and its "dfamily" lists that family under every key as the oracle does
    seen = 0
    for ext, x in _extensions_both_ways_up_to(5):
        classes = jsonio.outside_points_to_obj(classify_outside_points(ext, x))
        decomposed = decompose_extension(ext, x)
        record = jsonio.decomposition_to_obj(decomposed)
        assert classes == record["point_assignment"]
        assert record["dfamily"] == kit_dfamily_oracle(decomposed.kit)
        seen += 1
    assert seen == 2 * 221


def test_thick_iff_the_trace_space_embeds():
    # the one-pass reading decides the embedding by thickness alone
    thick = thin = 0
    for ms, x in spaces_and_subsets_up_to(4):
        embeds = embedding_report_oracle(trace_space(ms, x), ms).ok
        assert ms.is_thick(x) == embeds
        thick += embeds
        thin += not embeds
    assert thick > 1000 and thin > 1000


def test_refusals_carry_the_oracle_message():
    refused = 0
    for ms, x in spaces_and_subsets_up_to(4):
        if ms.is_thick(x):
            continue
        expected = outcome(induced_base_oracle, ms, x)
        assert expected[0] is PreconditionError
        assert outcome(decompose_extension, ms, x) == expected
        assert outcome(classify_outside_points, ms, x) == expected
        refused += 1
    assert refused > 1000
