"""Canonical JSON round trips and input validation."""
import json
from pathlib import Path

import pytest

from measpace import (
    ExtensionKit,
    GroundSet,
    InputFormatError,
    SetFamily,
    all_sigma_algebras,
    classify_family,
    decompose_extension,
    enumerate_ultrafilters,
    full_dfamily,
    identity_kit,
    product_space,
)
from measpace import jsonio
from measpace.jsonio import (
    algebra_from_obj,
    algebra_to_obj,
    canonical_dumps,
    decomposition_to_obj,
    family_from_obj,
    family_to_obj,
    kit_from_obj,
    kit_to_obj,
    optional_space_from_obj,
    product_from_obj,
    product_record_from_obj,
    product_to_obj,
    record_from_obj,
    record_to_obj,
    space_from_obj,
    space_to_obj,
)

from support import G, alg, family_members_oracle, kit_dfamily_oracle, space

FIXTURES = Path(__file__).parent / "fixtures"


def test_space_round_trip_and_canonical_atom_order():
    obj = {
        "points": ["a", "b", "c"],
        "atoms": [["b", "c"], ["a"]],
        "values": ["2/3", 1],
    }
    ms = space_from_obj(obj)
    out = space_to_obj(ms)
    assert out == {
        "points": ["a", "b", "c"],
        "atoms": [["a"], ["b", "c"]],
        "values": ["1", "2/3"],
    }
    assert space_from_obj(out) == ms
    # a second canonicalization pass is byte-stable
    assert canonical_dumps(space_to_obj(space_from_obj(out))) == canonical_dumps(out)
    # five atoms written out of order: each value stays with its own atom
    scrambled = {
        "points": ["a", "b", "c", "d", "e", "f"],
        "atoms": [["f"], ["c", "a"], ["e"], ["b"], ["d"]],
        "values": ["5", "1", "4", "2", "inf"],
    }
    assert space_to_obj(space_from_obj(scrambled))["values"] == ["1", "2", "inf", "4", "5"]


def test_optional_space_from_obj_returns_the_algebra_and_the_space_if_any():
    ms = space(G("a", "b"), (["a"], ["b"]), (1, 0))
    assert optional_space_from_obj(space_to_obj(ms)) == (ms.algebra, ms)
    assert optional_space_from_obj(algebra_to_obj(ms.algebra)) == (ms.algebra, None)
    with pytest.raises(InputFormatError, match="family.space must be a JSON object"):
        optional_space_from_obj([], "family.space")


def test_space_rejects_floats_and_negatives():
    base = {"points": ["a"], "atoms": [["a"]]}
    with pytest.raises(InputFormatError):
        space_from_obj({**base, "values": [0.5]})
    with pytest.raises(InputFormatError):
        space_from_obj({**base, "values": ["-1"]})
    with pytest.raises(InputFormatError):
        space_from_obj({**base, "values": [None]})
    with pytest.raises(InputFormatError):
        space_from_obj({**base, "values": []})


def test_algebra_round_trip_empty_space():
    obj = {"points": [], "atoms": []}
    assert algebra_to_obj(algebra_from_obj(obj)) == obj


def test_family_and_record_round_trip():
    g = G("a", "b", "c")
    algebra = alg(g, ["a"], ["b"], ["c"])
    family = SetFamily(algebra, frozenset({g.mask(["a"]), g.mask(["a", "b"])}))
    obj = family_to_obj(family)
    loaded, ms = family_from_obj(obj)
    assert ms is None and loaded == family

    record = classify_family(family)
    robj = record_to_obj(record)
    assert robj["kernel"] == ["a"]
    assert robj["flags"]["is_filter_base"] is True
    loaded_rec, _ = record_from_obj(robj)
    assert loaded_rec.members == record.members

    tampered = dict(robj)
    tampered["kernel"] = ["b"]
    with pytest.raises(InputFormatError):
        record_from_obj(tampered)


def test_record_kernel_must_be_a_label_list():
    g = G("a", "b")
    robj = record_to_obj(enumerate_ultrafilters(alg(g, ["a"], ["b"]))[0])
    for kernel in (5, "a", [1]):
        with pytest.raises(InputFormatError, match="kernel must be a list of strings"):
            record_from_obj({**robj, "kernel": kernel})


def test_record_members_match_the_oracle_on_every_ultrafilter_up_to_5():
    records = 0
    for n in range(6):
        for algebra in all_sigma_algebras(GroundSet(tuple("abcde"[:n]))):
            for record in enumerate_ultrafilters(algebra):
                assert record_to_obj(record)["members"] == family_members_oracle(record.family)
                records += 1
    # Bell(n + 1) - Bell(n) atoms over the partitions of n points
    assert records == 0 + 1 + 3 + 10 + 37 + 151


def test_family_space_may_carry_values():
    ms = space(G("a", "b"), (["a"], ["b"]), (1, 0))
    obj = {"space": space_to_obj(ms), "members": [["a"]]}
    family, loaded_ms = family_from_obj(obj)
    assert loaded_ms == ms
    assert family.algebra == ms.algebra


def test_kit_round_trip():
    base = space(G("a", "b"), (["a"], ["b"]), (1, "inf"))
    zg = G("z")
    pasted = alg(zg, ["z"])
    kit = ExtensionKit(
        base,
        pasted,
        full_dfamily(base.algebra, pasted),
        {base.algebra.atoms[0]: ("p1", "p2")},
    )
    obj = kit_to_obj(kit)
    assert obj["dfamily"][""] == [[], ["z"]]
    assert obj["fibers"] == {"a": ["p1", "p2"]}
    assert kit_from_obj(obj) == kit

    assert kit_from_obj(kit_to_obj(identity_kit(base))) == identity_kit(base)


def test_kit_lists_each_family_under_its_own_keys():
    base = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    zg = G("z", "w")
    pasted = alg(zg, ["z"], ["w"])
    empty, z, w, zw = pasted.sets()
    # {a} and {b} hold equal but distinct objects, built in another order
    dfamily = {
        base.ground.empty: frozenset([empty]),
        base.ground.mask(["a"]): frozenset([zw, empty, w]),
        base.ground.mask(["b"]): frozenset([w, zw, empty]),
        base.ground.full: frozenset([w, z, zw, empty]),
    }
    kit = ExtensionKit(base, pasted, dfamily, {})
    assert len({id(ds) for ds in kit.dfamily.values()}) == 4
    obj = kit_to_obj(kit)
    assert obj["dfamily"] == kit_dfamily_oracle(kit)
    assert obj["dfamily"] == {
        "": [[]],
        "a": [[], ["z", "w"], ["w"]],
        "b": [[], ["z", "w"], ["w"]],
        "a,b": [[], ["z"], ["z", "w"], ["w"]],
    }
    assert kit_from_obj(obj) == kit


def test_kit_keys_naming_one_set_are_rejected():
    base = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    obj = kit_to_obj(identity_kit(base))
    assert kit_from_obj(obj) == identity_kit(base)
    twice = {**obj, "dfamily": {**obj["dfamily"], "b,a": [[]]}}
    with pytest.raises(InputFormatError, match="'a,b' and 'b,a' name the same set"):
        kit_from_obj(twice)
    fibers = {**obj, "fibers": {"a": ["p"], "a,a": ["q"]}}
    with pytest.raises(InputFormatError, match="kit.fibers keys 'a' and 'a,a'"):
        kit_from_obj(fibers)


def test_decomposition_obj_shape():
    big = space(G("a", "p", "z"), (["a", "p"], ["z"]), (1, 0))
    rec = decompose_extension(big, big.ground.mask(["a"]))
    obj = decomposition_to_obj(rec)
    assert obj["z_part"] == ["z"]
    assert obj["point_assignment"] == {"p": {"sticks_to": ["a"]}, "z": "pasted"}
    assert obj["form"] == "point"
    assert obj["fibers"] == {"a": ["p"]}


def test_product_round_trip_and_tamper_detection():
    left = space(G("a", "b"), (["a"], ["b"]), (1, 2))
    right = space(G("1"), (["1"],), ("1/2",))
    ps = product_space(left, right)
    obj = product_to_obj(ps)
    again = product_from_obj(obj)
    assert again.product == ps.product

    broken = json.loads(json.dumps(obj))
    broken["values"][0] = "7"
    with pytest.raises(InputFormatError):
        product_from_obj(broken)


def test_project_uf_input_parses_its_product_once(monkeypatch):
    # the members are read over the product the factors built, not over a
    # second parse of "space"; a bad member or kernel gets the message
    # record_from_obj gives it
    raw = json.loads((FIXTURES / "product_uf.json").read_text())
    expected = record_from_obj(raw)[0]
    parsed, parse = [], jsonio._atoms_from_obj

    def logged(obj, what):
        parsed.append(what)
        return parse(obj, what)

    monkeypatch.setattr(jsonio, "_atoms_from_obj", logged)
    ps, record = product_record_from_obj(raw)
    assert parsed == ["factors.left", "factors.right", "product"]
    assert record == expected and record.algebra == ps.product.algebra

    def refusal(load, obj):
        with pytest.raises(InputFormatError) as err:
            load(obj)
        return str(err.value)

    monkeypatch.setattr(jsonio, "_atoms_from_obj", parse)
    broken = (("members", "x"), ("members", [["nope"]]), ("kernel", ["nope"]), ("kernel", 1))
    for key, value in broken:
        bad = {**raw, key: value}
        assert refusal(product_record_from_obj, bad) == refusal(record_from_obj, bad)


def test_ultrafilter_record_reclassifies_on_load():
    g = G("a", "b")
    algebra = alg(g, ["a"], ["b"])
    record = enumerate_ultrafilters(algebra)[0]
    obj = record_to_obj(record)
    loaded, _ = record_from_obj(obj)
    assert loaded.is_ultrafilter and loaded.kernel == record.kernel
