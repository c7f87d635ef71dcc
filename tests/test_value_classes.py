"""The value-class contract: immutable, equal by class and fields, hashed
like the tuple of fields (a mask by its bits alone), copyable and
picklable through the checked constructor."""
import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from measpace import (
    DecompositionRecord,
    EmbeddingReport,
    ExtensionKit,
    ExtReal,
    GroundSet,
    MeasureSpace,
    OutsidePointClass,
    ProductSpace,
    SetFamily,
    SigmaAlgebra,
    SubsetMask,
    UltrafilterRecord,
    ZeroOneMeasure,
    decompose_extension,
    identity_kit,
    principal_ultrafilter,
    product_space,
)

from support import G, space


def _samples():
    g = G("a", "b", "c")
    ms = space(g, (["a"], ["b", "c"]), ("1/2", "inf"))
    big = space(G("a", "p", "z"), (["a", "p"], ["z"]), (1, 0))
    return {
        ExtReal: ExtReal(Fraction(1, 2)),
        GroundSet: g,
        SubsetMask: g.mask(["a", "c"]),
        SigmaAlgebra: ms.algebra,
        MeasureSpace: ms,
        EmbeddingReport: EmbeddingReport(False, "trace-mismatch", g.mask(["b"])),
        ExtensionKit: identity_kit(ms),
        DecompositionRecord: decompose_extension(big, big.ground.mask(["a"])),
        OutsidePointClass: OutsidePointClass("sticks_to", ("a",)),
        SetFamily: SetFamily(ms.algebra, {g.full}),
        UltrafilterRecord: principal_ultrafilter(ms.algebra, g.mask(["a"])),
        ZeroOneMeasure: ZeroOneMeasure(space(g, (["a"], ["b", "c"]), (0, 1))),
        ProductSpace: product_space(ms, space(G("x"), (["x"],), (2,))),
    }


SAMPLES = _samples()
VALUES = list(SAMPLES.values())
IDS = [cls.__name__ for cls in SAMPLES]
UNHASHABLE = {ExtensionKit, DecompositionRecord}  # they hold dicts


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def test_every_public_value_class_is_sampled():
    import measpace

    exported = (getattr(measpace, name) for name in measpace.__all__)
    public = {obj for obj in exported if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert public == set(SAMPLES)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(value):
    for name in (*type(value).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value):
    if type(value) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    elif type(value) is SubsetMask:  # hashed by its bits alone
        assert hash(value) == value.bits
    else:
        assert hash(value) == hash(fields(value))


def test_masks_hash_by_bits_and_stay_apart_across_grounds():
    # every mask on grounds of up to 4 points: an equal mask over an equal
    # but distinct ground hashes alike, and the same bits over another
    # ground share the hash but stay a separate set and dict entry
    orders = ("abcd", "dcba", "wxyz")
    grounds = [GroundSet(tuple(labels[:n])) for n in range(5) for labels in orders]
    for g in grounds:
        twin = GroundSet(g.labels)
        masks = [SubsetMask(g, bits) for bits in range(1 << g.size)]
        assert len(set(masks)) == len(masks)
        for mask in masks:
            equal = SubsetMask(twin, mask.bits)
            assert mask == equal and hash(mask) == hash(equal) == mask.bits
            assert len({mask, equal}) == 1
        for other in grounds:
            if other == g:
                continue
            for mask in masks[: 1 << other.size]:
                stranger = SubsetMask(other, mask.bits)
                assert mask != stranger and hash(mask) == hash(stranger)
                table = {mask: 1, stranger: 2}
                assert len({mask, stranger}) == len(table) == 2
                assert table[mask] == 1 and table[stranger] == 2


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_keyword_construction_rebuilds_an_equal_value(value):
    names = type(value).__match_args__
    rebuilt = type(value)(**dict(zip(names, fields(value))))
    assert rebuilt == value and not rebuilt != value


def test_keyword_construction_with_defaults():
    assert fields(EmbeddingReport(ok=True)) == (True, None, None)
    assert fields(OutsidePointClass(kind="pasted")) == ("pasted", ())


@pytest.mark.parametrize("cls", [SubsetMask, SigmaAlgebra, MeasureSpace], ids=lambda c: c.__name__)
def test_trusted_values_behave_like_checked_ones(cls):
    # _trusted stores the two fields through the slots' own setters
    checked = SAMPLES[cls]
    built = cls._trusted(*fields(checked))
    assert type(built) is cls and fields(built) == fields(checked)
    assert built == checked and hash(built) == hash(checked)
    for twin in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(twin) is cls and twin == checked
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(built, name, None)
    assert not hasattr(built, "__dict__")


def test_only_classes_whose_slots_are_two_fields_have_trusted():
    assert OutsidePointClass._trusted("pasted", ()) == OutsidePointClass("pasted")
    for cls in (ExtReal, GroundSet, EmbeddingReport, ZeroOneMeasure, ProductSpace):
        assert cls._trusted is None

    # a subclass never inherits a builder of its parent's values
    class Twin(OutsidePointClass):
        __slots__ = ()

    assert Twin._trusted is None


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_value(value):
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is type(value)
        assert twin == value
        assert fields(twin) == fields(value)


def test_values_of_different_classes_never_compare_equal():
    for a, b in combinations(VALUES, 2):
        assert a != b and not a == b
    # same field values, different classes
    class Twin(OutsidePointClass):
        __slots__ = ()

    assert Twin("pasted") != OutsidePointClass("pasted")
    assert SAMPLES[GroundSet] != SAMPLES[GroundSet].labels
    assert SAMPLES[SubsetMask] != (SAMPLES[GroundSet], SAMPLES[SubsetMask].bits)


def test_equality_ignores_derived_slots():
    twin = GroundSet(["a", "b", "c"])
    assert twin is not SAMPLES[GroundSet] and twin == SAMPLES[GroundSet]
    assert hash(twin) == hash((("a", "b", "c"),))
    zm = SAMPLES[ZeroOneMeasure]
    assert zm.unit_atom == zm.ms.algebra.atoms[1]
    assert ZeroOneMeasure(ms=zm.ms) == zm


def test_default_repr_names_every_field():
    g = G("a")
    assert repr(EmbeddingReport(ok=True)) == "EmbeddingReport(ok=True, reason=None, witness=None)"
    assert repr(OutsidePointClass("sticks_to", g.labels)) == (
        "OutsidePointClass(kind='sticks_to', anchors=('a',))"
    )
    assert repr(ExtReal(None)) == "ExtReal(inf)"


def test_masks_are_dict_keys_in_kits():
    kit = SAMPLES[ExtensionKit]
    ground = GroundSet(("a", "b", "c"))  # a new, equal ground object
    for bits in (0b000, 0b001, 0b110, 0b111):
        key = SubsetMask(ground, bits)
        assert key.ground is not kit.base.ground
        assert kit.dfamily[key] == frozenset({kit.pasted.ground.empty})
    with pytest.raises(KeyError):
        kit.dfamily[SubsetMask(ground, 0b010)]  # not measurable
    thawed = pickle.loads(pickle.dumps(kit))
    assert thawed.dfamily == kit.dfamily and set(thawed.dfamily) == set(kit.dfamily)


def test_pattern_matching_uses_the_fields():
    match SAMPLES[SubsetMask]:
        case SubsetMask(ground, bits):
            assert (ground, bits) == (SAMPLES[GroundSet], 0b101)
        case _:
            pytest.fail("no match")
