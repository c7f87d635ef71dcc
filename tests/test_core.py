"""Core spaces: ground sets, masks, algebras, exact measures."""
import copy
from fractions import Fraction
import pickle
import random
import tracemalloc
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from measpace import (
    INFINITY,
    ONE,
    ZERO,
    ExtReal,
    GroundSet,
    GroundMismatchError,
    InputFormatError,
    MeasureSpace,
    NotMeasurableError,
    SigmaAlgebra,
    SizeCapError,
    SubsetMask,
    all_sigma_algebras,
    generate_sigma_algebra,
    mask_key,
    trace_algebra,
    transfer_mask,
)
from measpace.core import _partitions, bits_key, generated_atom_bits
from measpace.embeddings import _induced_base
from measpace.partitions import set_partitions

from support import (
    G,
    alg,
    atoms_of_family,
    bits_key_oracle,
    closure_oracle,
    inner_measure_oracle,
    is_thick_oracle,
    measure_oracle,
    n_sets,
    outer_measure_oracle,
    refinement_oracle,
    relabel_oracle,
    rgs_partitions,
    space,
    trace_algebra_oracle,
    trace_space,
)


# ------------------------------------------------------------- ExtReal

def test_extreal_parse_and_str():
    assert str(ExtReal.of("2/3")) == "2/3"
    assert str(ExtReal.of("0.5")) == "1/2"
    assert str(ExtReal.of(3)) == "3"
    assert str(ExtReal.of("inf")) == "inf"
    assert ExtReal.of("inf").is_infinite


def test_extreal_conventions():
    assert ZERO * INFINITY == ZERO
    assert INFINITY * ZERO == ZERO
    assert ONE + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY
    assert ExtReal.of(2) * INFINITY == INFINITY
    assert ZERO <= ONE < INFINITY
    assert not INFINITY < INFINITY


# "1_000" and kin parse as PEP 515 literals from Python 3.11 on, and
# Fraction reads Arabic-Indic or full-width digits and strips non-ASCII
# spaces; values are ASCII decimal or fraction strings on every version
@pytest.mark.parametrize(
    "bad",
    [-1, "-1/2", "nan", 1.5, "", "1/0", True, "1_000", "1_0/3", "1e1_0",
     "١٢", "١/٣", "１", "\u00a01"],
)
def test_extreal_rejects(bad):
    with pytest.raises(InputFormatError):
        ExtReal.of(bad)


_rationals = st.fractions(min_value=0, max_value=100)
_extreals = st.one_of(
    st.just(INFINITY), _rationals.map(lambda q: ExtReal(Fraction(q)))
)


@given(_extreals, _extreals, _extreals)
def test_extreal_add_commutative_associative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(_extreals, _extreals)
def test_extreal_order_total_and_additive(a, b):
    assert (a <= b) or (b <= a)
    assert a <= a + b


# ------------------------------------------------------------- grounds/masks

def test_ground_rejects_bad_labels():
    with pytest.raises(InputFormatError):
        GroundSet(("a", "a"))
    with pytest.raises(InputFormatError):
        GroundSet(("a,b",))
    with pytest.raises(InputFormatError):
        GroundSet(("",))
    with pytest.raises(SizeCapError):
        GroundSet(tuple(f"p{i}" for i in range(17)))


def test_empty_ground_is_allowed():
    g = GroundSet(())
    assert g.size == 0
    assert n_sets(SigmaAlgebra(g, ())) == 1


def test_mask_ops_and_ground_mismatch():
    g = G("a", "b", "c")
    s = g.mask(["a", "b"])
    t = g.mask(["b", "c"])
    assert (s & t).labels() == ("b",)
    assert (s | t) == g.full
    assert (s - t).labels() == ("a",)
    assert s.complement().labels() == ("c",)
    assert g.mask(["b"]).issubset(s)
    assert "a" in s and "c" not in s
    other = G("a", "b")
    with pytest.raises(GroundMismatchError):
        s & other.mask(["a"])


def test_ground_rejects_a_string_or_a_set_of_labels():
    # "ab" would otherwise become the two points a and b, and a set's
    # order would follow string hashing
    for labels in ("ab", "a", {"a", "b"}, frozenset({"a"}), None, 5):
        with pytest.raises(InputFormatError):
            GroundSet(labels)
    assert GroundSet(["a", "b"]).labels == ("a", "b")


@pytest.mark.parametrize("bits", [1.0, True, False, "1", Fraction(1), None])
def test_mask_rejects_bits_that_are_not_an_int(bits):
    with pytest.raises(InputFormatError):
        SubsetMask(G("a", "b"), bits)


@pytest.mark.parametrize("ground", [("a", "b"), ["a"], "ab", None])
def test_mask_refuses_a_ground_that_is_not_a_ground_set(ground):
    with pytest.raises(InputFormatError):
        SubsetMask(ground, 1)


@pytest.mark.parametrize("labels", [None, 5, [["a"]]])
def test_mask_refuses_labels_that_are_not_a_collection_of_labels(labels):
    with pytest.raises(InputFormatError):
        G("a", "b").mask(labels)


@pytest.mark.parametrize("s", [None, "a", 3, ("a",), G("a", "b")], ids=repr)
def test_set_taking_calls_refuse_a_set_that_is_not_a_mask(s):
    # a set of the wrong type is an input error, not an AttributeError
    g = G("a", "b")
    ms = MeasureSpace(SigmaAlgebra.discrete(g), (ONE, ZERO))
    for call in (
        ms.algebra.member,
        ms.measure_of,
        ms.inner_measure,
        ms.outer_measure,
        ms.is_thick,
        lambda s: trace_algebra(ms.algebra, s),
        lambda s: transfer_mask(s, g),
    ):
        with pytest.raises(InputFormatError, match=r"^a set must be a SubsetMask, got "):
            call(s)


def _indices_by_range_walk(mask):
    return tuple(i for i in range(mask.ground.size) if mask.bits >> i & 1)


def test_mask_key_and_indices_match_the_range_walk_up_to_10_points():
    for n in range(11):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for bits in range(1 << n):
            mask = SubsetMask(g, bits)
            assert mask_key(mask) == mask.indices() == _indices_by_range_walk(mask)


def test_sets_order_is_the_combo_loop_order_up_to_5_points():
    # set i is the union of the atoms at the bits of i
    for n in range(6):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for algebra in all_sigma_algebras(g):
            expected = []
            for combo in range(1 << len(algebra.atoms)):
                bits = 0
                for k, atom in enumerate(algebra.atoms):
                    if combo >> k & 1:
                        bits |= atom.bits
                expected.append(SubsetMask(g, bits))
            assert list(algebra.sets()) == expected


def test_sets_builds_what_the_public_constructor_builds():
    # every mask sets() yields is built without __init__; it must equal and
    # hash like the checked build, and pickle and deepcopy (which go
    # through __init__) must give it back unchanged
    for n in range(6):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for algebra in all_sigma_algebras(g):
            members = list(algebra.sets())
            for mask in members:
                checked = SubsetMask(GroundSet(g.labels), mask.bits)
                assert mask == checked and hash(mask) == hash(checked)
            assert pickle.loads(pickle.dumps(members)) == members
            assert copy.deepcopy(members) == members


def test_mask_key_order_is_the_range_walk_order():
    for n in range(6):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for algebra in all_sigma_algebras(g):
            expected = sorted(algebra.sets(), key=_indices_by_range_walk)
            assert sorted(algebra.sets(), key=mask_key) == expected


def test_least_set_is_the_least_passing_set_in_mask_key_order():
    # one-step predicates on raw bits, on every algebra up to 5 points:
    # meeting Y, not lying inside Y, and meeting Y while missing its least
    # point (a set that holds that point never passes, so the walk must
    # skip its atom)
    walked = 0
    for n in range(6):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for algebra in all_sigma_algebras(g):
            ordered = sorted(algebra.sets(), key=mask_key)
            for y in range(1 << n):
                low = y & -y
                for passes in (
                    lambda c: c & y,
                    lambda c: c & ~y,
                    lambda c: c & y and not c & low,
                ):
                    expected = next((c for c in ordered if passes(c.bits)), None)
                    assert algebra._least_set(passes) == expected
                    walked += expected is not None
    assert walked > 3000


# ------------------------------------------------------------- algebras

def test_algebra_canonical_sorting_and_validation():
    g = G("a", "b", "c")
    a1 = SigmaAlgebra(g, (g.mask(["b", "c"]), g.mask(["a"])))
    assert a1.atoms == (g.mask(["a"]), g.mask(["b", "c"]))
    with pytest.raises(InputFormatError):
        SigmaAlgebra(g, (g.mask(["a"]),))  # does not cover
    with pytest.raises(InputFormatError):
        SigmaAlgebra(g, (g.mask(["a", "b"]), g.mask(["b", "c"])))  # overlap
    with pytest.raises(InputFormatError):
        SigmaAlgebra(g, (g.empty, g.full))  # empty atom


def test_algebra_refuses_an_atom_over_another_ground():
    g = G("a", "b")
    other = G("a", "c")
    with pytest.raises(GroundMismatchError):
        SigmaAlgebra(g, (g.mask(["a"]), other.mask(["c"])))
    with pytest.raises(GroundMismatchError):
        SigmaAlgebra(g, (other.mask(["a", "c"]),))


def test_algebra_refuses_components_that_are_not_a_ground_set_and_masks():
    g = G("a", "b")
    for ground, atoms in (
        (g, (1,)),
        (g, (g.mask(["a"]), None)),
        (g, (g.mask(["a"]), ("b",))),
        (("a", "b"), (g.full,)),
        (None, ()),
        (g, None),
    ):
        with pytest.raises(InputFormatError):
            SigmaAlgebra(ground, atoms)
    # generators that are not masks, or no collection, and a ground that
    # is no ground set are refused the same way
    for ground, generators in ((g, [1]), (g, None), (g, 5), (None, []), (("a", "b"), [])):
        with pytest.raises(InputFormatError):
            generate_sigma_algebra(ground, generators)


def test_algebra_accepts_atoms_over_an_equal_ground_object():
    g = G("a", "b")
    twin = G("a", "b")
    assert twin is not g and twin == g
    built = SigmaAlgebra(g, (twin.mask(["b"]), twin.mask(["a"])))
    assert built == SigmaAlgebra(g, (g.mask(["a"]), g.mask(["b"])))
    assert built == SigmaAlgebra.discrete(twin)


def test_algebra_sorts_atoms_given_in_any_order():
    for n in range(1, 6):
        g = GroundSet(tuple(f"p{i}" for i in range(n)))
        for algebra in all_sigma_algebras(g):
            atoms = algebra.atoms
            for shuffled in (atoms[::-1], atoms[1:] + atoms[:1], list(atoms)):
                assert SigmaAlgebra(g, shuffled) == algebra
                assert SigmaAlgebra(g, shuffled).atoms == atoms


def test_generate_examples():
    g = G("a", "b", "c")
    assert generate_sigma_algebra(g, [g.mask(["a"])]) == alg(g, ["a"], ["b", "c"])

    g2 = G("a", "b")
    assert generate_sigma_algebra(g2, []) == alg(g2, ["a", "b"])

    # expected atoms computed by the closure oracle over all 2^3 subsets
    gens = [g.mask(["a", "b"]), g.mask(["b", "c"])]
    family = closure_oracle(3, [m.bits for m in gens])
    expected_atoms = atoms_of_family(3, family)
    assert expected_atoms == {0b001, 0b010, 0b100}
    assert generate_sigma_algebra(g, gens) == alg(g, ["a"], ["b"], ["c"])


def test_generate_matches_closure_oracle_exhaustively():
    # every choice of <=2 generators on 4 points
    g = G("a", "b", "c", "d")
    subsets = [g.mask([l for i, l in enumerate(g.labels) if k >> i & 1]) for k in range(16)]
    for i, s in enumerate(subsets):
        for t in subsets[i:]:
            produced = generate_sigma_algebra(g, [s, t])
            family = closure_oracle(4, [s.bits, t.bits])
            assert {a.bits for a in produced.atoms} == atoms_of_family(4, family)
            assert {m.bits for m in produced.sets()} == family


def test_refinement_stops_at_singletons_with_the_full_blocks():
    # the default bound is the point count: no block splits past a
    # singleton, so stopping there leaves the blocks of every generator
    rng = random.Random(5)
    stopped = 0
    for n in range(7):
        for _ in range(300):
            gens = [rng.randrange(1 << n) for _ in range(rng.randrange(16))]
            blocks = generated_atom_bits(n, gens)
            # n + 1 blocks are never reached, so every generator is applied
            assert blocks == generated_atom_bits(n, gens, n + 1)
            assert sorted(blocks, key=lambda b: b & -b) == refinement_oracle(n, gens)
            stopped += len(blocks) == n
    assert stopped > 300


def test_bits_key_matches_the_bit_scan():
    # table lookups below 2**16, the scan for wider ints
    for bits in range(1 << 16):
        assert bits_key(bits) == bits_key_oracle(bits)
    for bits in (1 << 16, 1 << 16 | 5, 1 << 40 | 1 << 17 | 3, (1 << 70) - 1):
        assert bits_key(bits) == bits_key_oracle(bits)
    assert next(set_partitions(range(20))) == (tuple(range(20)),)


def test_generate_idempotent_on_all_algebras_up_to_4():
    for n in range(5):
        g = GroundSet(tuple("abcd"[:n]))
        for algebra in all_sigma_algebras(g):
            again = generate_sigma_algebra(g, algebra.atoms)
            assert again.atoms == algebra.atoms


def test_member_examples():
    g = G("a", "b", "c")
    a1 = alg(g, ["a"], ["b", "c"])
    assert a1.member(g.mask(["b", "c"]))
    assert not a1.member(g.mask(["b"]))
    assert alg(g, ["a"], ["b"], ["c"]).member(g.mask(["a", "c"]))


def test_closure_property_exhaustive_up_to_5():
    for n in range(6):
        g = GroundSet(tuple("abcde"[:n]))
        for algebra in all_sigma_algebras(g):
            members = list(algebra.sets())
            assert len(members) == n_sets(algebra)
            for s in members:
                assert algebra.member(s.complement())
                for t in members:
                    assert algebra.member(s | t)
                    assert algebra.member(s & t)


# ------------------------------------------------------------- measures

def test_measure_of_examples():
    g = G("a", "b", "c")
    ms = space(g, (["a"], ["b", "c"]), (1, 2))
    assert ms.measure_of(g.full) == ExtReal.of(3)
    ms_inf = space(g, (["a"], ["b", "c"]), ("inf", 2))
    assert ms_inf.measure_of(g.mask(["a"])) == INFINITY
    ms_frac = space(g, (["a"], ["b", "c"]), ("1/3", "2/3"))
    assert ms_frac.measure_of(g.mask(["b", "c"])) == ExtReal.of("2/3")
    with pytest.raises(NotMeasurableError):
        ms.measure_of(g.mask(["b"]))
    with pytest.raises(GroundMismatchError):
        ms.measure_of(G("a", "b").full)


def test_measure_space_refuses_a_wrong_value_count():
    g = G("a", "b")
    with pytest.raises(InputFormatError, match=r"^need one value per atom: 1 values for 2 atoms$"):
        MeasureSpace(SigmaAlgebra.discrete(g), (ONE,))
    with pytest.raises(InputFormatError, match=r"^need one value per atom: 3 values for 2 atoms$"):
        MeasureSpace(SigmaAlgebra.discrete(g), [1, 2, 3])
    with pytest.raises(InputFormatError):
        MeasureSpace(SigmaAlgebra.discrete(g), None)


def test_measure_space_refuses_an_algebra_that_is_not_a_sigma_algebra():
    g = G("a")
    discrete = MeasureSpace(SigmaAlgebra.discrete(g), (ONE,))
    for algebra in (None, g, discrete, (g.full,)):
        with pytest.raises(InputFormatError):
            MeasureSpace(algebra, ())


def test_measure_space_coerces_values_to_ext_reals():
    algebra = SigmaAlgebra.discrete(G("a", "b", "c"))
    exact = MeasureSpace(algebra, (ONE, ExtReal(Fraction(1, 2)), INFINITY))
    for values in (
        (1, "1/2", "inf"),
        (Fraction(1), Fraction(1, 2), "inf"),
        ["1", "0.5", INFINITY],
        [ONE, ExtReal(Fraction(1, 2)), INFINITY],
    ):
        built = MeasureSpace(algebra, values)
        assert built == exact
        assert type(built.atom_values) is tuple
        assert all(type(v) is ExtReal for v in built.atom_values)


def test_outer_measure_examples():
    g = G("a", "p")
    ms = space(g, (["a", "p"],), (1,))
    assert ms.outer_measure(g.mask(["p"])) == ONE

    ms2 = space(g, (["a"], ["p"]), (1, 0))
    assert ms2.outer_measure(g.mask(["p"])) == ZERO

    g3 = G("a", "b", "c")
    ms3 = space(g3, (["a"], ["b", "c"]), (1, 2))
    # frozen from scanning all measurable supersets of {b}: {b,c}->2, X->3
    assert ms3.outer_measure(g3.mask(["b"])) == ExtReal.of(2)


def test_inner_measure_examples():
    g = G("a", "p")
    assert space(g, (["a", "p"],), (1,)).inner_measure(g.mask(["p"])) == ZERO
    assert space(g, (["a"], ["p"]), (1, 3)).inner_measure(g.mask(["p"])) == ExtReal.of(3)
    g3 = G("a", "b", "c")
    ms3 = space(g3, (["a"], ["b", "c"]), (1, 2))
    # frozen from scanning all measurable subsets of {a,b}: {} -> 0, {a} -> 1
    assert ms3.inner_measure(g3.mask(["a", "b"])) == ONE


def test_is_thick_examples():
    g = G("a", "p")
    assert space(g, (["a", "p"],), (1,)).is_thick(g.mask(["a"]))
    assert not space(g, (["a"], ["p"]), (1, 1)).is_thick(g.mask(["a"]))
    assert space(g, (["a"], ["p"]), (1, 0)).is_thick(g.mask(["a"]))


def test_additivity_and_monotonicity_exhaustive():
    g = G("a", "b", "c", "d")
    values = (ZERO, ONE, ExtReal.of("1/2"), INFINITY)
    for algebra in all_sigma_algebras(g):
        k = len(algebra.atoms)
        ms = MeasureSpace(algebra, tuple(values[i % 4] for i in range(k)))
        members = list(algebra.sets())
        for s in members:
            for t in members:
                if s.isdisjoint(t):
                    assert ms.measure_of(s | t) == ms.measure_of(s) + ms.measure_of(t)
                if s.issubset(t):
                    assert ms.measure_of(s) <= ms.measure_of(t)


def test_inner_below_outer_with_equality_on_measurable():
    g = G("a", "b", "c")
    ms = space(g, (["a"], ["b", "c"]), ("1/3", "inf"))
    for k in range(8):
        s = GroundSet(g.labels).mask([l for i, l in enumerate(g.labels) if k >> i & 1])
        assert ms.inner_measure(s) <= ms.outer_measure(s)
        if ms.algebra.member(s):
            assert ms.inner_measure(s) == ms.outer_measure(s) == ms.measure_of(s)


def test_inner_outer_thick_match_scans_up_to_4():
    # every subset of every space on up to 4 points, values in {0, 1, 2, inf};
    # measure_of sums atom by atom and refuses a set that is not measurable
    values = (ZERO, ONE, ExtReal.of(2), INFINITY)
    spaces = 0
    for n in range(5):
        g = GroundSet(tuple("abcd"[:n]))
        for algebra in all_sigma_algebras(g):
            for vals in iproduct(values, repeat=len(algebra.atoms)):
                ms = MeasureSpace(algebra, vals)
                spaces += 1
                for bits in range(1 << n):
                    s = SubsetMask(g, bits)
                    assert ms.outer_measure(s) == outer_measure_oracle(ms, s)
                    assert ms.inner_measure(s) == inner_measure_oracle(ms, s)
                    assert ms.is_thick(s) == is_thick_oracle(ms, s)
                    if algebra.member(s):
                        assert ms.measure_of(s) == measure_oracle(ms, s)
                    else:
                        with pytest.raises(NotMeasurableError):
                            ms.measure_of(s)
    assert spaces == 1 + 4 + 20 + 116 + 756


@given(st.integers(1, 6), st.data())
def test_measure_additivity_random_spaces(n, data):
    labels = tuple(f"p{i}" for i in range(n))
    g = GroundSet(labels)
    algebras = list(all_sigma_algebras(g))
    algebra = data.draw(st.sampled_from(algebras))
    values = data.draw(
        st.tuples(
            *[
                st.one_of(st.just(INFINITY), st.fractions(min_value=0, max_value=9).map(ExtReal))
                for _ in algebra.atoms
            ]
        )
    )
    ms = MeasureSpace(algebra, values)
    members = list(algebra.sets())
    s = data.draw(st.sampled_from(members))
    t = data.draw(st.sampled_from(members))
    assert ms.measure_of(s | t) + ms.measure_of(s & t) == ms.measure_of(s) + ms.measure_of(t)


# ------------------------------------------------------------- partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def _as_bits(blocks):
    return tuple(sum(1 << i for i in block) for block in blocks)


def test_set_partition_counts_are_bell_numbers():
    for n, bell in enumerate(BELL[:6]):
        parts = list(set_partitions(range(n)))
        assert len(parts) == bell
        assert len(set(tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts)) == bell
    # the view puts the items at the bits of each raw block
    assert {frozenset(p) for p in set_partitions("abcd")} == {
        frozenset(tuple("abcd"[i] for i in b) for b in p) for p in rgs_partitions(4)
    }


def test_partitions_grow_every_start_partition_like_restricted_growth_strings():
    # every partition of the first m <= 4 points as start blocks, every n <= 7
    rgs = [[_as_bits(p) for p in rgs_partitions(n)] for n in range(8)]
    compared = 0
    for m in range(5):
        low = (1 << m) - 1
        for start in rgs[m]:
            for n in range(m, 8):
                grown = list(_partitions(start, m, n))
                assert len(set(grown)) == len(grown)
                for blocks in grown:
                    leasts = [bits & -bits for bits in blocks]
                    assert all(leasts) and leasts == sorted(set(leasts))
                    assert tuple(b & low for b in blocks[: len(start)]) == start
                expected = [p for p in rgs[n] if tuple(b & low for b in p if b & low) == start]
                assert set(grown) == set(expected)
                compared += len(grown)
    # for each m the starts share out every partition of n points: sum of Bell(n), m <= n <= 7
    assert compared == 5764


def test_all_sigma_algebras_yields_bell_many_distinct_algebras_up_to_6_points():
    for n in range(7):
        algebras = list(all_sigma_algebras(GroundSet(tuple("abcdef"[:n]))))
        assert len(algebras) == len(set(algebras)) == BELL[n]


def test_all_sigma_algebras_streams_trivial_first():
    # Bell(10) = 115,975 partitions: the first must come without building the rest
    g = GroundSet(tuple("abcdefghij"))
    tracemalloc.start()
    try:
        first = next(all_sigma_algebras(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.atoms == (g.full,)
    assert peak < 100_000
    assert next(set_partitions("abc")) == (("a", "b", "c"),)


def test_trace_algebra_atoms():
    g = G("a", "b", "c")
    algebra = alg(g, ["a", "b"], ["c"])
    tr = trace_algebra(algebra, g.mask(["b", "c"]))
    assert tr.ground.labels == ("b", "c")
    assert [a.labels() for a in tr.atoms] == [("b",), ("c",)]


def test_trace_algebra_refuses_a_target_that_is_not_x():
    # a point of X that the target lacks is named as an atom-by-atom walk
    # meets it first: {d} lies in the first atom, before {b}; a target
    # label outside X leaves the target uncovered
    g = G("a", "b", "c", "d")
    algebra = alg(g, ["a", "d"], ["b"], ["c"])
    x = g.mask(["b", "d"])
    for labels, message in (
        (("q",), "unknown point label 'd'"),
        (("b",), "unknown point label 'd'"),
        (("d",), "unknown point label 'b'"),
        (("b", "d", "e"), "atoms must cover the ground set"),
        (("b", "d", "a"), "atoms must cover the ground set"),
    ):
        with pytest.raises(InputFormatError, match=f"^{message}$"):
            trace_algebra(algebra, x, GroundSet(labels))
    assert [a.labels() for a in trace_algebra(algebra, x, G("d", "b")).atoms] == [("d",), ("b",)]


def test_trace_pass_matches_its_definition():
    # the trace pass behind trace_algebra, transfer_mask and the trace space
    # against the raw-bit oracles: every algebra on up to 5 points, every X,
    # and X's labels both in ground order and reversed; distinct atom values
    # check that each trace atom carries the value of its own big atom in
    # the induced base, which reads the trace space on a thick X
    compared = 0
    for n in range(6):
        g = GroundSet(tuple("abcde"[:n]))
        for blocks in rgs_partitions(n):
            algebra = SigmaAlgebra(g, tuple(SubsetMask(g, sum(1 << i for i in b)) for b in blocks))
            ms = MeasureSpace(algebra, tuple(ExtReal.of(i + 1) for i in range(len(blocks))))
            for bits in range(1 << n):
                x = SubsetMask(g, bits)
                for target in (None, GroundSet(x.labels()[::-1])):
                    expected = trace_algebra_oracle(algebra, x, target)
                    assert trace_algebra(algebra, x, target) == expected
                    if target is None and ms.is_thick(x):
                        assert _induced_base(ms, x)[0] == trace_space(ms, x)
                    for atom in algebra.atoms:
                        cut = atom & x
                        assert transfer_mask(cut, expected.ground) == relabel_oracle(
                            cut, expected.ground
                        )
                    compared += 1
    assert compared == 3910
