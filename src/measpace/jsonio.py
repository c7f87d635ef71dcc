"""Canonical JSON for spaces, families, kits, and decompositions.

Canonical form: object keys sorted, points in declared order, set lists
sorted by point indices, measure values as exact strings ("1", "2/3",
"inf"), two-space indentation, trailing newline.  Everything the CLI
emits re-parses to an identical value.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .core import (
    ExtReal,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    SubsetMask,
    mask_key,
)
from .errors import InputFormatError

# only the loaders that build these types import their modules, so reading
# a space loads none of them
if TYPE_CHECKING:
    from .embeddings import DecompositionRecord, ExtensionKit, OutsidePointClass
    from .filters import SetFamily, UltrafilterRecord
    from .products import ProductSpace


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- values

def value_to_str(value: ExtReal) -> str:
    try:
        return str(value)
    except ValueError:  # past the interpreter's cap on int -> str digits
        raise InputFormatError("a measure value has too many digits to print") from None


def value_from_obj(raw: Any) -> ExtReal:
    if isinstance(raw, float):
        raise InputFormatError(
            f"floating point value {raw!r}: use exact strings like \"1/3\""
        )
    return ExtReal.of(raw)


# ---------------------------------------------------------------- masks

def labels_list(mask: SubsetMask) -> list[str]:
    return list(mask.labels())


def _is_string_list(raw: Any) -> bool:
    return isinstance(raw, list) and all(isinstance(s, str) for s in raw)


def _string_list(raw: Any, what: str) -> list[str]:
    if not _is_string_list(raw):
        raise InputFormatError(f"{what} must be a list of strings")
    return raw


def mask_from_obj(ground: GroundSet, raw: Any, what: str = "set") -> SubsetMask:
    return ground.mask(_string_list(raw, what))


# ---------------------------------------------------------------- spaces

def algebra_to_obj(algebra: SigmaAlgebra) -> dict:
    return {
        "points": list(algebra.ground.labels),
        "atoms": [labels_list(a) for a in algebra.atoms],
    }


def space_to_obj(ms: MeasureSpace) -> dict:
    obj = algebra_to_obj(ms.algebra)
    obj["values"] = [value_to_str(v) for v in ms.atom_values]
    return obj


def _atoms_from_obj(raw: Any, what: str) -> tuple[GroundSet, tuple[SubsetMask, ...]]:
    """The ground and the atoms of a space or algebra object, atoms in the order written."""
    if not isinstance(raw, dict):
        raise InputFormatError(f"{what} must be a JSON object")
    ground = GroundSet(tuple(_string_list(raw.get("points"), f"{what}.points")))
    atoms_raw = raw.get("atoms")
    if not isinstance(atoms_raw, list):
        raise InputFormatError(f"{what}.atoms must be a list of label lists")
    return ground, tuple(
        mask_from_obj(ground, a, f"{what}.atoms[{i}]") for i, a in enumerate(atoms_raw)
    )


def algebra_from_obj(raw: Any, what: str = "space") -> SigmaAlgebra:
    return SigmaAlgebra(*_atoms_from_obj(raw, what))


def space_from_obj(raw: Any, what: str = "space") -> MeasureSpace:
    ground, atoms = _atoms_from_obj(raw, what)
    algebra = SigmaAlgebra(ground, atoms)
    values_raw = raw.get("values")
    if not isinstance(values_raw, list):
        raise InputFormatError(f"{what}.values must be a list")
    if len(values_raw) != len(atoms):
        raise InputFormatError(f"{what}.values must match the atoms one to one")
    # values are paired with atoms as written, then stored canonically
    value_of = dict(zip(atoms, map(value_from_obj, values_raw)))
    return MeasureSpace(algebra, tuple(value_of[a] for a in algebra.atoms))


def optional_space_to_obj(algebra: SigmaAlgebra, ms: MeasureSpace | None) -> dict:
    """The object of ``ms`` when it is given, else of ``algebra``."""
    return space_to_obj(ms) if ms is not None else algebra_to_obj(algebra)


def optional_space_from_obj(
    raw: Any, what: str = "space"
) -> tuple[SigmaAlgebra, MeasureSpace | None]:
    """The algebra, and the space too when "values" is present."""
    if isinstance(raw, dict) and "values" in raw:
        ms = space_from_obj(raw, what)
        return ms.algebra, ms
    return algebra_from_obj(raw, what), None


def generators_from_obj(raw: Any) -> tuple[GroundSet, list[SubsetMask]]:
    """The ground and the generating sets of a ``generate`` input."""
    if not isinstance(raw, dict):
        raise InputFormatError("generate input must be a JSON object")
    ground = GroundSet(tuple(_string_list(raw.get("points"), "points")))
    gens_raw = raw.get("generators", [])
    if not isinstance(gens_raw, list):
        raise InputFormatError("generators must be a list of label lists")
    return ground, [mask_from_obj(ground, g, "generators") for g in gens_raw]


# ---------------------------------------------------------------- families

def family_to_obj(family: SetFamily, space_obj: dict | None = None) -> dict:
    labels = family.algebra.ground.labels
    return {
        "space": space_obj if space_obj is not None else algebra_to_obj(family.algebra),
        "members": [[labels[i] for i in key] for key in sorted(map(mask_key, family.members))],
    }


def family_from_obj(raw: Any) -> tuple[SetFamily, MeasureSpace | None]:
    """Parse a family; the embedded space may optionally carry values."""
    if not isinstance(raw, dict):
        raise InputFormatError("family must be a JSON object")
    algebra, ms = optional_space_from_obj(raw.get("space"), "family.space")
    return _members_from_obj(raw, algebra), ms


def _members_from_obj(raw: dict, algebra: SigmaAlgebra) -> SetFamily:
    """The family of a family object's "members" over an algebra already parsed."""
    from .filters import SetFamily

    members_raw = raw.get("members")
    if not isinstance(members_raw, list):
        raise InputFormatError("family.members must be a list of label lists")
    members = frozenset(
        mask_from_obj(algebra.ground, m, "family.members") for m in members_raw
    )
    return SetFamily(algebra, members)


def record_to_obj(record: UltrafilterRecord, space_obj: dict | None = None) -> dict:
    obj = family_to_obj(record.family, space_obj)
    obj["kernel"] = labels_list(record.kernel)
    obj["flags"] = {
        "is_filter_base": record.is_filter_base,
        "is_filter": record.is_filter,
        "is_ultrafilter": record.is_ultrafilter,
        "has_cip": record.has_cip,
        "is_free": record.is_free,
    }
    return obj


def record_from_obj(raw: Any) -> tuple[UltrafilterRecord, MeasureSpace | None]:
    """Parse a family or record; flags are recomputed, never trusted."""
    family, ms = family_from_obj(raw)
    return _classified(family, raw), ms


def _classified(family: SetFamily, raw: dict) -> UltrafilterRecord:
    """The record of ``family``, checked against a stored "kernel" if any."""
    from .filters import classify_family

    record = classify_family(family)
    if "kernel" in raw:
        kernel = _string_list(raw["kernel"], "kernel")
        if set(kernel) != set(record.kernel.labels()):
            raise InputFormatError("stored kernel does not match the family")
    return record


# ---------------------------------------------------------------- kits

def _mask_dict_key(mask: SubsetMask) -> str:
    return ",".join(mask.labels())


def _masks_from_dict_keys(ground: GroundSet, raw: dict, what: str):
    """Yield (mask, key, value) per entry of an object keyed by sets.

    Two keys naming one set ("a,b" and "b,a") are rejected, not merged.
    """
    seen: dict[SubsetMask, str] = {}
    for key, value in raw.items():
        mask = ground.mask(key.split(",") if key else [])
        if mask in seen:
            raise InputFormatError(
                f"{what} keys {seen[mask]!r} and {key!r} name the same set"
            )
        seen[mask] = key
        yield mask, key, value


def kit_to_obj(kit: ExtensionKit) -> dict:
    # a decomposed kit shares one pasted family across all its base sets
    listed = {
        ds: [labels_list(d) for d in sorted(ds, key=mask_key)]
        for ds in set(kit.dfamily.values())
    }
    dfamily = {_mask_dict_key(b): listed[ds] for b, ds in kit.dfamily.items()}
    fibers = {
        _mask_dict_key(kernel): list(labels)
        for kernel, labels in kit.fibers.items()
    }
    return {
        "base": space_to_obj(kit.base),
        "pasted": algebra_to_obj(kit.pasted),
        "dfamily": dfamily,
        "fibers": fibers,
    }


def kit_from_obj(raw: Any) -> ExtensionKit:
    from .embeddings import ExtensionKit

    if not isinstance(raw, dict):
        raise InputFormatError("kit must be a JSON object")
    base = space_from_obj(raw.get("base"), "kit.base")
    pasted = algebra_from_obj(raw.get("pasted"), "kit.pasted")
    dfamily_raw = raw.get("dfamily")
    if not isinstance(dfamily_raw, dict):
        raise InputFormatError("kit.dfamily must be an object keyed by base sets")
    # a decomposed kit lists one family under every key: each distinct
    # member list is parsed once, by the first key that lists it, and every
    # key shares its frozenset, which the kit then checks once; a malformed
    # list gets the key None and raises while parsed, so None is never stored
    dfamily, families = {}, {}
    for b, key, ds in _masks_from_dict_keys(base.ground, dfamily_raw, "kit.dfamily"):
        if not isinstance(ds, list):
            raise InputFormatError(f"kit.dfamily[{key!r}] must be a list of label lists")
        labels = tuple(map(tuple, ds)) if all(map(_is_string_list, ds)) else None
        if labels not in families:
            families[labels] = frozenset(
                mask_from_obj(pasted.ground, d, f"kit.dfamily[{key!r}]") for d in ds
            )
        dfamily[b] = families[labels]
    fibers_raw = raw.get("fibers")
    if not isinstance(fibers_raw, dict):
        raise InputFormatError("kit.fibers must be an object keyed by kernels")
    fibers = {
        kernel: tuple(_string_list(labels, f"kit.fibers[{key!r}]"))
        for kernel, key, labels in _masks_from_dict_keys(base.ground, fibers_raw, "kit.fibers")
    }
    return ExtensionKit(base, pasted, dfamily, fibers)


def outside_points_to_obj(classes: dict[str, OutsidePointClass]) -> dict:
    """Each outside point maps to "pasted" or to {"sticks_to": [anchors]}."""
    return {
        label: "pasted" if cls.kind == "pasted" else {"sticks_to": list(cls.anchors)}
        for label, cls in classes.items()
    }


def decomposition_to_obj(record: DecompositionRecord) -> dict:
    obj = kit_to_obj(record.kit)
    obj["z_part"] = labels_list(record.z_part)
    obj["point_assignment"] = outside_points_to_obj(record.point_assignment)
    obj["form"] = "point" if record.point_form else "ultrafilter"
    return obj


# ---------------------------------------------------------------- products

def product_to_obj(ps: ProductSpace) -> dict:
    obj = space_to_obj(ps.product)
    obj["factors"] = {"left": space_to_obj(ps.left), "right": space_to_obj(ps.right)}
    return obj


def product_from_obj(raw: Any) -> ProductSpace:
    """Rebuild a product from its factors; the composite must match."""
    from .products import product_space

    if not isinstance(raw, dict) or not isinstance(raw.get("factors"), dict):
        raise InputFormatError("product space needs a \"factors\" object")
    left = space_from_obj(raw["factors"].get("left"), "factors.left")
    right = space_from_obj(raw["factors"].get("right"), "factors.right")
    ps = product_space(left, right)
    declared = space_from_obj(raw, "product")
    if declared != ps.product:
        raise InputFormatError("declared product does not match its factors")
    return ps


def product_record_from_obj(raw: Any) -> tuple[ProductSpace, UltrafilterRecord]:
    """A ``project-uf`` input: a record whose "space" is a product.

    The product is parsed once, and the members are read over its algebra.
    """
    if not isinstance(raw, dict):
        raise InputFormatError("project-uf input must be a JSON object")
    ps = product_from_obj(raw.get("space"))
    return ps, _classified(_members_from_obj(raw, ps.product.algebra), raw)
