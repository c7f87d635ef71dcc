"""Filters and ultrafilters inside a finite sigma-algebra.

Every question about a family is decided from its kernel K, the
intersection of its members.  A filter-base F has a least member: take a
member m of minimal size; for any member b some nonempty member lies
below m & b, and it can only be m itself, so m lies below b.  That least
member is K.  Hence F is a filter-base exactly when K is a nonempty
member, a filter exactly when F is the whole up-set of K, and an
ultrafilter exactly when it is a filter and K is an atom; on a finite
algebra the countable intersection property collapses to "K nonempty".
The test suite checks each flag against its definition.

Every ultrafilter of a finite algebra is the up-set of an atom, so the
ones this module returns are built from their atom by
:func:`principal_ultrafilter`, never classified.  Also here: the
dictionary between ultrafilters and nontrivial {0,1}-valued measures,
and the transfer of ultrafilters along sub- and super-space inclusions
(up-set lifting, trace restriction).
"""
from __future__ import annotations

from collections.abc import Iterable

from .core import (
    MeasureSpace,
    ONE,
    SigmaAlgebra,
    SubsetMask,
    ZERO,
    _require,
    _set_bits,
    _setattr,
    _Value,
    mask_key,
    trace_algebra,
    transfer_mask,
)
from .errors import GroundMismatchError, InputFormatError, PreconditionError


class SetFamily(_Value):
    """A family of measurable sets inside one sigma-algebra."""

    __slots__ = __match_args__ = ("algebra", "members")

    def __init__(self, algebra: SigmaAlgebra, members: frozenset[SubsetMask]):
        _require(algebra, SigmaAlgebra, "a family's algebra")
        _require(members, Iterable, "a family's members")
        # read once; each member is type-checked before it is hashed
        members = members if isinstance(members, frozenset) else tuple(members)
        for m in members:
            algebra.require_member(m)
        _setattr(self, "algebra", algebra)
        _setattr(self, "members", frozenset(members))


class UltrafilterRecord(_Value):
    """A set family together with its kernel and classification flags.

    ``kernel`` is the intersection of all members (the whole ground set
    for an empty family).  In a finite algebra an ultrafilter's kernel is
    an atom, and has_cip / not is_free / nonempty kernel coincide.
    """

    __slots__ = __match_args__ = (
        "family",
        "kernel",
        "is_filter_base",
        "is_filter",
        "is_ultrafilter",
        "has_cip",
        "is_free",
    )

    def __init__(
        self,
        family: SetFamily,
        kernel: SubsetMask,
        is_filter_base: bool,
        is_filter: bool,
        is_ultrafilter: bool,
        has_cip: bool,
        is_free: bool,
    ):
        _setattr(self, "family", family)
        _setattr(self, "kernel", kernel)
        _setattr(self, "is_filter_base", is_filter_base)
        _setattr(self, "is_filter", is_filter)
        _setattr(self, "is_ultrafilter", is_ultrafilter)
        _setattr(self, "has_cip", has_cip)
        _setattr(self, "is_free", is_free)

    @property
    def algebra(self) -> SigmaAlgebra:
        return self.family.algebra

    @property
    def members(self) -> frozenset[SubsetMask]:
        return self.family.members


def classify_family(family: SetFamily) -> UltrafilterRecord:
    """Compute every classification flag from the kernel K.

    - filter-base (nonempty, and every two members contain a nonempty
      member below their intersection): K is nonempty and a member.  A
      minimal-size member lies below every other member, so it is K;
    - filter (filter-base, closed upward and under binary
      intersections): a filter-base with 2^j members, j the number of
      atoms outside K.  Its members all lie above K, and exactly 2^j
      measurable sets do, so it is the whole up-set of K;
    - ultrafilter (filter-base such that any measurable set meeting every
      member is itself a member): a filter whose K is an atom.  A set
      meets every member exactly when it meets K; for an atom K that
      means it contains K, and otherwise an atom strictly inside K meets
      every member without being one;
    - c.i.p. (every finite subfamily has nonempty intersection): K is
      nonempty;
    - free: K is empty.
    """
    algebra = _require(family, SetFamily, "a family").algebra
    kernel_bits = (1 << algebra.ground.size) - 1
    for m in family.members:
        kernel_bits &= m.bits
    kernel = SubsetMask(algebra.ground, kernel_bits)
    is_filter_base = bool(kernel) and kernel in family.members
    outside = sum(1 for atom in algebra.atoms if atom.bits & ~kernel.bits)
    is_filter = is_filter_base and len(family.members) == 1 << outside
    return UltrafilterRecord(
        family=family,
        kernel=kernel,
        is_filter_base=is_filter_base,
        is_filter=is_filter,
        is_ultrafilter=is_filter and kernel in algebra.atoms,
        has_cip=bool(kernel),
        is_free=not kernel,
    )


def principal_ultrafilter(algebra: SigmaAlgebra, atom: SubsetMask) -> UltrafilterRecord:
    """The up-set of an atom: a fixed ultrafilter with c.i.p., kernel the atom.

    A measurable set meeting every member meets the atom, hence contains it.
    """
    _set_bits(atom, _require(algebra, SigmaAlgebra, "an algebra").ground, "an atom")
    if atom not in algebra.atoms:
        raise PreconditionError(f"{atom!r} is not an atom of the algebra")
    members = frozenset(s for s in algebra.sets() if atom.bits & ~s.bits == 0)
    # filter-base, filter, ultrafilter, c.i.p., not free
    return UltrafilterRecord(SetFamily(algebra, members), atom, True, True, True, True, False)


def enumerate_ultrafilters(algebra: SigmaAlgebra) -> list[UltrafilterRecord]:
    """All ultrafilters of a finite algebra: one per atom, all fixed.

    This is the finite shadow of the fact that a countable ground set
    admits no free ultrafilter with the countable intersection property.
    """
    return [
        principal_ultrafilter(algebra, atom)
        for atom in _require(algebra, SigmaAlgebra, "an algebra").atoms
    ]


def extend_to_ultrafilter(base: SetFamily) -> UltrafilterRecord:
    """A deterministic ultrafilter containing the given filter-base.

    The kernel of a filter-base in a finite algebra is nonempty and
    measurable; we take the principal ultrafilter of the least-index atom
    inside it, which makes repeated runs reproducible.
    """
    record = classify_family(base)
    if not record.is_filter_base:
        if not base.members:
            reason = "the family is empty"
        elif any(m.bits == 0 for m in base.members):
            reason = "the family contains the empty set"
        else:
            reason = "some pair of members has no nonempty member below it"
        raise PreconditionError(f"not a filter-base: {reason}")
    atom = next(a for a in base.algebra.atoms if a.issubset(record.kernel))
    return principal_ultrafilter(base.algebra, atom)


class ZeroOneMeasure(_Value):
    """A measure space whose every value lies in {0, 1}.

    For all measurable sets to get values in {0, 1}, at most one atom may
    carry value 1; "nontrivial" means the whole space has measure 1.
    ``unit_atom`` is that atom, or None.
    """

    __match_args__ = ("ms",)
    __slots__ = ("ms", "unit_atom")

    def __init__(self, ms: MeasureSpace):
        _require(ms, MeasureSpace, "a {0,1}-valued measure's space")
        ones = [a for a, v in zip(ms.algebra.atoms, ms.atom_values) if v == ONE]
        if any(v not in (ZERO, ONE) for v in ms.atom_values) or len(ones) > 1:
            raise InputFormatError(
                "a {0,1}-valued measure has at most one atom of value 1"
            )
        _setattr(self, "ms", ms)
        _setattr(self, "unit_atom", ones[0] if ones else None)

    @property
    def is_nontrivial(self) -> bool:
        return self.unit_atom is not None


def measure_from_ultrafilter(u: UltrafilterRecord) -> ZeroOneMeasure:
    """The {0,1}-valued measure with value 1 exactly on members of ``u``."""
    if not _require(u, UltrafilterRecord, "an ultrafilter").is_ultrafilter:
        raise PreconditionError("needs an ultrafilter")
    values = tuple(ONE if atom == u.kernel else ZERO for atom in u.algebra.atoms)
    return ZeroOneMeasure(MeasureSpace(u.algebra, values))


def ultrafilter_from_01_measure(m: ZeroOneMeasure) -> UltrafilterRecord:
    """The family of measure-1 sets of a nontrivial {0,1}-valued measure.

    Those are the sets containing the unit atom, so this is the principal
    ultrafilter of that atom; inverse to :func:`measure_from_ultrafilter`.
    """
    if not _require(m, ZeroOneMeasure, "a {0,1}-valued measure").is_nontrivial:
        raise PreconditionError("the measure is trivial (identically zero)")
    return principal_ultrafilter(m.ms.algebra, m.unit_atom)


def lift_to_superspace(
    f: UltrafilterRecord, superalgebra: SigmaAlgebra
) -> UltrafilterRecord:
    """Lift an ultrafilter on a measurable subset X to the ambient algebra.

    Requires X to be measurable in the superalgebra and the ultrafilter's
    algebra to be exactly the trace on X.  The lift is the up-set
    {G : G contains some member of f}: the principal ultrafilter of the
    kernel of ``f``, which is an atom of the superalgebra since X is
    measurable.  It has c.i.p. and is fixed, like ``f``.
    """
    _require(f, UltrafilterRecord, "an ultrafilter")
    _require(superalgebra, SigmaAlgebra, "a superalgebra")
    if not f.is_ultrafilter:
        raise PreconditionError("needs an ultrafilter")
    small_labels = f.algebra.ground.labels
    if not set(small_labels) <= set(superalgebra.ground.labels):
        raise GroundMismatchError("the ultrafilter's points are not in the superspace")
    x = superalgebra.ground.mask(small_labels)
    if not superalgebra.member(x):
        raise PreconditionError("X is not measurable in the superalgebra")
    if trace_algebra(superalgebra, x, f.algebra.ground) != f.algebra:
        raise PreconditionError(
            "the ultrafilter's algebra is not the trace of the superalgebra on X"
        )
    return principal_ultrafilter(superalgebra, transfer_mask(f.kernel, superalgebra.ground))


def restrict_by_trace(h: UltrafilterRecord, x: SubsetMask) -> UltrafilterRecord:
    """Push an ultrafilter on Y down to the trace algebra on X.

    Requires every member of ``h`` to meet ``x`` (if some member misses
    X, the ultrafilter lives over the complement and has no trace); the
    kernel is a member below all others, so that holds exactly when the
    kernel meets X.  The traces {H intersect X} then form a filter-base
    whose kernel, the trace of h's atom kernel, is an atom of the trace
    algebra, so they extend to that atom's principal ultrafilter.
    """
    _set_bits(x, _require(h, UltrafilterRecord, "an ultrafilter").algebra.ground, "x")
    if not (h.is_ultrafilter and h.has_cip):
        raise PreconditionError("needs an ultrafilter with c.i.p.")
    if h.kernel.isdisjoint(x):
        member = min((m for m in h.members if m.isdisjoint(x)), key=mask_key)
        raise PreconditionError(f"member {member!r} does not meet X")
    small = trace_algebra(h.algebra, x)
    return principal_ultrafilter(small, transfer_mask(h.kernel & x, small.ground))
