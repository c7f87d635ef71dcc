"""Embeddings of measure spaces and the extension-kit calculus.

A measure space (X, B, mu) is embedded in (Y, C, lambda) when X is a
subset of Y, B is exactly the trace of C on X, and lambda(C) = mu(C & X)
for every measurable C.  Every such extension is generated by an
*extension kit*: a pasted measurable space (Z, D) whose points can be
separated from X (and are necessarily null), a family D_B of admissible
pasted parts for each base set B, and blow-up fibers attached to atoms of
B whose points are measurably inseparable from the atom they stick to.

``construct_extension`` builds the extension a kit generates;
``decompose_extension`` reads the canonical kit of a given extension off
the atoms of its algebra; ``enumerate_extensions`` generates every
extension of a base space by finitely many fresh points from the kits.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import partial

from .core import (
    MAX_POINTS,
    ZERO,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    SubsetMask,
    _check_label,
    _ordered,
    _setattr,
    _Value,
    bits_key,
    generate_sigma_algebra,
    generated_atom_bits,
    mask_key,
    trace_algebra,
    transfer_mask,
)
from .errors import (
    GroundMismatchError,
    InputFormatError,
    InvalidKitError,
    InvariantError,
    PreconditionError,
    SizeCapError,
)

ENUMERATION_CAP = 8


def _embedded_mask(small: GroundSet, big: GroundSet) -> SubsetMask:
    if not set(small.labels) <= set(big.labels):
        raise GroundMismatchError("the small ground set is not a subset of the big one")
    return big.mask(small.labels)


def check_measurable_embedding(small: SigmaAlgebra, big: SigmaAlgebra) -> bool:
    """True iff the trace of ``big`` on the small ground set equals ``small``."""
    x = _embedded_mask(small.ground, big.ground)
    return trace_algebra(big, x, small.ground) == small


class EmbeddingReport(_Value):
    """Outcome of a measure-embedding check, with a witness on failure."""

    __slots__ = __match_args__ = ("ok", "reason", "witness")

    def __init__(self, ok: bool, reason: str | None = None, witness: SubsetMask | None = None):
        _setattr(self, "ok", ok)
        _setattr(self, "reason", reason)
        _setattr(self, "witness", witness)


def _trace_space(
    big: MeasureSpace, x: SubsetMask, target: GroundSet | None = None
) -> MeasureSpace:
    """The trace space of ``big`` on X, labelled in ``target`` order (by
    default, the order X inherits from the big ground).

    Its algebra is ``trace_algebra(big.algebra, x, target)``.  Big atoms
    are disjoint, so each trace atom is A & X for exactly one big atom A,
    and it carries A's value; it need not sort where A does unless X
    comes first.
    """
    algebra = trace_algebra(big.algebra, x, target)
    ground = algebra.ground
    value_of = {
        transfer_mask(atom & x, ground): value
        for atom, value in zip(big.algebra.atoms, big.atom_values)
        if atom.bits & x.bits
    }
    return MeasureSpace(algebra, tuple(map(value_of.__getitem__, algebra.atoms)))


def measure_embedding_report(small: MeasureSpace, big: MeasureSpace) -> EmbeddingReport:
    """Check the embedding and, if it fails, name a concrete counterexample.

    The embedding holds exactly when X is thick and the trace space of
    ``big`` on X, in the small ground's label order, equals ``small``: a
    big atom A that misses X must weigh mu(empty) = 0, and one that meets
    X must weigh mu(A & X), where A & X is an atom of ``small`` once the
    traces agree.  Both measures are additive, so agreement on the atoms
    is agreement on every measurable set.  Only a failing pair is scanned
    set by set, in canonical order, for the witness: either a big-side
    set whose trace is not measurable in the small algebra (or whose
    measure disagrees with the trace measure), or a small-side set that
    is not a trace at all.  A refusal that no set backs raises
    :class:`InvariantError`.
    """
    x = _embedded_mask(small.ground, big.ground)
    if big.is_thick(x) and _trace_space(big, x, small.ground) == small:
        return EmbeddingReport(True)
    traces = set()
    for c in big.algebra.sorted_sets():
        t = transfer_mask(c & x, small.ground)
        traces.add(t)
        if not small.algebra.member(t):
            return EmbeddingReport(False, "trace-mismatch", c)
    for s in small.algebra.sorted_sets():
        if s not in traces:
            return EmbeddingReport(False, "trace-mismatch", s)
    for c in big.algebra.sorted_sets():
        t = transfer_mask(c & x, small.ground)
        if big.measure_of(c) != small.measure_of(t):
            return EmbeddingReport(False, "measure-mismatch", c)
    raise InvariantError("the atom-level check refused an embedding that no set contradicts")


def check_measure_embedding(small: MeasureSpace, big: MeasureSpace) -> bool:
    """True iff ``small`` is embedded in ``big`` (trace and measure agree)."""
    return measure_embedding_report(small, big).ok


class ExtensionKit(_Value):
    """Generating data for an extension of a base measure space.

    - ``pasted``: a measurable space (Z, D) on fresh labels;
    - ``dfamily``: for each measurable base set B, the nonempty family
      D_B of pasted sets that may accompany B;
    - ``fibers``: for each chosen atom of the base algebra (the kernel of
      the fixed ultrafilter it represents), the nonempty tuple of fresh
      fiber labels blown up onto it.

    Validity (see :func:`validate_kit`): base, fiber, and pasted labels
    pairwise disjoint; the empty set belongs to D_empty; pasted
    complements of D_B land in D_(X minus B); and unions of selections
    from D_B1, D_B2 land in D_(B1 union B2).
    """

    __slots__ = __match_args__ = ("base", "pasted", "dfamily", "fibers")

    def __init__(
        self,
        base: MeasureSpace,
        pasted: SigmaAlgebra,
        dfamily: Mapping[SubsetMask, frozenset[SubsetMask]],
        fibers: Mapping[SubsetMask, tuple[str, ...]],
    ):
        if not isinstance(base, MeasureSpace):
            raise InputFormatError(f"a kit's base must be a MeasureSpace, got {base!r}")
        if not isinstance(pasted, SigmaAlgebra):
            raise InputFormatError(f"a kit's pasted part must be a SigmaAlgebra, got {pasted!r}")
        if not isinstance(dfamily, Mapping) or not isinstance(fibers, Mapping):
            raise InputFormatError(
                f"a kit's dfamily and fibers must be mappings, got {dfamily!r} and {fibers!r}"
            )
        families = {}
        for key, members in dfamily.items():
            if not isinstance(members, Iterable):
                raise InputFormatError(f"the pasted family of {key!r} is not a collection")
            families[key] = members = frozenset(members)
            for mask in (key, *members):
                if not isinstance(mask, SubsetMask):
                    raise InputFormatError(f"a kit's dfamily must hold SubsetMasks, got {mask!r}")
        fiber_labels = {}
        for kernel, labels in fibers.items():
            fiber_labels[kernel] = labels = _ordered(labels, "fiber labels")
            if not isinstance(kernel, SubsetMask) or not all(isinstance(s, str) for s in labels):
                raise InputFormatError(
                    f"fibers must map SubsetMasks to label strings, got {kernel!r}: {labels!r}"
                )
            for label in labels:
                _check_label(label)
        _setattr(self, "base", base)
        _setattr(self, "pasted", pasted)
        _setattr(self, "dfamily", families)
        _setattr(self, "fibers", fiber_labels)


def identity_kit(base: MeasureSpace) -> ExtensionKit:
    """The kit whose extension is the base space itself."""
    pasted = SigmaAlgebra(GroundSet(()), ())
    return ExtensionKit(base, pasted, full_dfamily(base.algebra, pasted), {})


def full_dfamily(
    base_algebra: SigmaAlgebra, pasted: SigmaAlgebra
) -> dict[SubsetMask, frozenset[SubsetMask]]:
    """The constant-full family D_B = D, valid for any pasted space."""
    everything = frozenset(pasted.sets())
    return {b: everything for b in base_algebra.sets()}


def auto_fibers(sizes: Mapping[SubsetMask, int]) -> dict[SubsetMask, tuple[str, ...]]:
    """Generate fresh fiber labels "<u>#k" from requested fiber sizes.

    ``u`` is the least-index point of the kernel atom, so distinct atoms
    never collide.
    """
    out: dict[SubsetMask, tuple[str, ...]] = {}
    for kernel, size in sizes.items():
        if size < 1:
            raise InputFormatError("fiber sizes must be at least 1")
        u = kernel.labels()[0]
        out[kernel] = tuple(f"{u}#{k}" for k in range(1, size + 1))
    return out


def validate_kit(kit: ExtensionKit) -> list[str]:
    """Return the list of violated kit invariants (empty = valid).

    The three closure conditions (the empty set in D_empty, complements,
    unions of selections) are decided by one count.  Put the pasted
    points after X and let G = {B + D : D in D_B}.  G lies inside the
    algebra it generates, which has 2**blocks sets, where blocks counts
    the classes of points of X + Z that no member of G separates.  So G
    is closed, which is exactly the three conditions, iff |G| = 2**blocks.
    Only a kit that fails the count is scanned condition by condition, to
    name every violation.  That scan checks the union condition for pairs
    only: a finite selection D_1, ..., D_n folds to pairwise unions
    ((D_1 | D_2) | D_3 ...), so pairwise closure over all B_1, B_2
    already gives the finite case.  The test suite re-checks selections
    of length three directly.
    """
    problems: list[str] = []
    base_alg = kit.base.algebra

    used: dict[str, str] = {label: "base" for label in base_alg.ground.labels}
    for kernel in sorted(kit.fibers, key=mask_key):
        labels = kit.fibers[kernel]
        if len(set(labels)) != len(labels):
            problems.append(f"fiber {kernel!r} repeats a label")
        for label in labels:
            if label in used:
                problems.append(
                    f"label {label!r} of fiber {kernel!r} collides with {used[label]}"
                )
            else:
                used[label] = f"fiber {kernel!r}"
    for label in kit.pasted.ground.labels:
        if label in used:
            problems.append(f"pasted label {label!r} collides with {used[label]}")
        else:
            used[label] = "pasted"

    atoms = set(base_alg.atoms)
    for kernel in sorted(kit.fibers, key=mask_key):
        if kernel not in atoms:
            problems.append(f"fiber key {kernel!r} is not an atom of the base algebra")
        if not kit.fibers[kernel]:
            problems.append(f"fiber {kernel!r} is empty")

    expected = set(base_alg.sets())
    keys = set(kit.dfamily)
    for b in sorted(expected - keys, key=mask_key):
        problems.append(f"no pasted family for base set {b!r}")
    for b in sorted(keys - expected, key=mask_key):
        problems.append(f"pasted family keyed by non-measurable set {b!r}")

    shared = sorted(keys & expected, key=mask_key)
    well_typed = keys == expected
    for b in shared:
        ds = kit.dfamily[b]
        if not ds:
            problems.append(f"pasted family for {b!r} is empty")
            well_typed = False
        for d in sorted(ds, key=mask_key):
            if d.ground != kit.pasted.ground or not kit.pasted.member(d):
                problems.append(
                    f"pasted family for {b!r} contains non-measurable {d!r}"
                )
                well_typed = False

    # the closure conditions need a complete, measurable dfamily
    if well_typed and not _dfamily_closed(kit):
        closure = _closure_problems(kit)
        if not closure:
            raise InvariantError("the closure count refused a kit that no condition contradicts")
        problems.extend(closure)
    return problems


def _dfamily_closed(kit: ExtensionKit) -> bool:
    """|G| = 2**blocks for G = {B + D : D in D_B} on X + Z (see validate_kit)."""
    shift = kit.base.ground.size
    generated = {b.bits | d.bits << shift for b, ds in kit.dfamily.items() for d in ds}
    blocks = generated_atom_bits(shift + kit.pasted.ground.size, generated)
    return len(generated) == 1 << len(blocks)


def _closure_problems(kit: ExtensionKit) -> list[str]:
    """One message per violated closure condition, base sets in mask_key order."""
    base_ground, z_ground = kit.base.ground, kit.pasted.ground
    x_full = (1 << base_ground.size) - 1
    z_full = (1 << z_ground.size) - 1
    family = {b.bits: {d.bits for d in ds} for b, ds in kit.dfamily.items()}
    ordered = {b: sorted(ds, key=bits_key) for b, ds in family.items()}
    keys = sorted(family, key=bits_key)
    fb, fz = partial(SubsetMask, base_ground), partial(SubsetMask, z_ground)
    problems: list[str] = []
    if 0 not in family[0]:
        problems.append("the empty pasted set is missing from the family of the empty base set")
    for b in keys:
        comp = b ^ x_full
        for d in ordered[b]:
            if d ^ z_full not in family[comp]:
                problems.append(
                    f"complement {fz(d ^ z_full)!r} of {fz(d)!r} in the family of "
                    f"{fb(b)!r} is missing from the family of {fb(comp)!r}"
                )
    for b1 in keys:
        for b2 in keys:
            target = family[b1 | b2]
            for d1 in ordered[b1]:
                for d2 in ordered[b2]:
                    if d1 | d2 not in target:
                        problems.append(
                            f"union {fz(d1 | d2)!r} of selections from {fb(b1)!r} and "
                            f"{fb(b2)!r} is missing from the family of {fb(b1 | b2)!r}"
                        )
    return problems


def construct_extension(kit: ExtensionKit) -> MeasureSpace:
    """Build the measure space a valid kit generates.

    The ground set is the base points followed by all outside labels in
    lexicographic order (a canonical choice, so reconstruction from a
    decomposed kit is reproducible).  Measurable sets are exactly
    B + (fibers of atoms inside B) + D with D in D_B, and such a set gets
    the base value of B.  The result is checked to be closed and to embed
    the base; a failure raises :class:`InvariantError`.
    """
    problems = validate_kit(kit)
    if problems:
        raise InvalidKitError(problems)

    base = kit.base
    outside = sorted(
        [label for labels in kit.fibers.values() for label in labels]
        + list(kit.pasted.ground.labels)
    )
    all_labels = tuple(base.ground.labels) + tuple(outside)
    if len(all_labels) > MAX_POINTS:
        raise SizeCapError(
            f"extension would have {len(all_labels)} points; the cap is {MAX_POINTS}"
        )
    ground = GroundSet(all_labels)
    x = ground.mask(base.ground.labels)

    fiber_bits: dict[SubsetMask, int] = {}
    for kernel, labels in kit.fibers.items():
        fiber_bits[kernel] = ground.mask(labels).bits

    # the base points come first in the ground, so base bits carry over
    family: set[int] = set()
    for b in base.algebra.sets():
        bits = b.bits
        for kernel, fb in fiber_bits.items():
            if kernel.issubset(b):
                bits |= fb
        for d in kit.dfamily[b]:
            family.add(bits | transfer_mask(d, ground).bits)

    algebra = generate_sigma_algebra(ground, (SubsetMask(ground, bits) for bits in family))
    if len(family) != algebra.n_sets:
        raise InvariantError(
            f"the kit generates {len(family)} sets, but their algebra has {algebra.n_sets}"
        )

    values = tuple(
        base.measure_of(transfer_mask(atom & x, base.ground)) for atom in algebra.atoms
    )
    result = MeasureSpace(algebra, values)
    report = measure_embedding_report(base, result)
    if not report.ok:
        raise InvariantError(
            f"the constructed space does not embed the base: {report.reason}"
            f" at {report.witness!r}"
        )
    return result


class DecompositionRecord(_Value):
    """Canonical split of an extension into X-part, fibers, and pasted part."""

    __slots__ = __match_args__ = ("z_part", "kit", "point_assignment")

    def __init__(
        self,
        z_part: SubsetMask,
        kit: ExtensionKit,
        point_assignment: dict[str, OutsidePointClass],
    ):
        _setattr(self, "z_part", z_part)
        _setattr(self, "kit", kit)
        _setattr(self, "point_assignment", point_assignment)

    @property
    def point_form(self) -> bool:
        """True when every fiber kernel is a single point (blow-up form).

        Otherwise the base algebra does not separate the points inside
        some kernel and the kit exists in ultrafilter form only.
        """
        return all(kernel.size == 1 for kernel in self.kit.fibers)


def _induced_base(big: MeasureSpace, x: SubsetMask) -> tuple:
    """Read an extension over X in one pass over its atoms.

    Returns the trace space on X (see ``_trace_space``), the bits of Z
    (the big atoms that miss X), the fibers, and the class of every point
    of Y minus X, in atom order.  The trace space takes X's own label
    order, so its traces match by construction and it embeds exactly
    when X is thick (see ``measure_embedding_report``).  Only a refusal
    runs the embedding report, for its reason and witness.
    """
    if x.ground != big.ground:
        raise GroundMismatchError("x is over a different ground set")
    small = _trace_space(big, x)
    z_bits = 0
    fibers: dict[SubsetMask, tuple[str, ...]] = {}
    assignment: dict[str, OutsidePointClass] = {}
    pasted = OutsidePointClass("pasted")
    for atom in big.algebra.atoms:
        inside = atom & x
        if inside:
            stuck = (atom - x).labels()
            if stuck:
                fibers[transfer_mask(inside, small.ground)] = stuck
                sticks = OutsidePointClass("sticks_to", inside.labels())
                assignment.update(dict.fromkeys(stuck, sticks))
        else:
            z_bits |= atom.bits
            assignment.update(dict.fromkeys(atom.labels(), pasted))
    if not big.is_thick(x):
        report = measure_embedding_report(small, big)
        raise PreconditionError(
            f"the trace space on X is not embedded: {report.reason}"
            f" at {report.witness!r}"
        )
    return small, z_bits, fibers, assignment


def decompose_extension(big: MeasureSpace, x: SubsetMask) -> DecompositionRecord:
    """Recover the canonical kit of an extension.

    Z collects the outside points covered by a measurable set disjoint
    from X.  Any other outside point p shares a big atom A with X, so
    its fixed ultrafilter {C & X : p in C} is the up-set of A & X, the
    kernel of p's fiber.  Each big atom lies in Z or outside it, so any
    pasted set goes with any base set: D_B is all of D for every B.
    """
    small, z_bits, fibers, assignment = _induced_base(big, x)
    z_part = SubsetMask(big.ground, z_bits)
    pasted = trace_algebra(big.algebra, z_part)
    kit = ExtensionKit(small, pasted, full_dfamily(small.algebra, pasted), fibers)
    return DecompositionRecord(z_part=z_part, kit=kit, point_assignment=assignment)


class OutsidePointClass(_Value):
    """Classification of an outside point of an extension.

    kind "pasted": covered by a measurable set missing X entirely;
    kind "sticks_to": inseparable from the named base points.
    """

    __slots__ = __match_args__ = ("kind", "anchors")

    def __init__(self, kind: str, anchors: tuple[str, ...] = ()):
        _setattr(self, "kind", kind)
        _setattr(self, "anchors", anchors)


def classify_outside_points(
    big: MeasureSpace, x: SubsetMask
) -> dict[str, OutsidePointClass]:
    """Label every point of Y minus X as pasted or sticking to base points."""
    return _induced_base(big, x)[3]


def enumerate_extensions(
    base: MeasureSpace, extra_labels: Iterable[str]
) -> list[MeasureSpace]:
    """Every extension of the base by the given fresh points.

    Each fresh point, in order, joins a block (a base atom as a fiber
    point, or an earlier pasted block) or opens a new pasted block, so
    every extension comes out once.  Atoms sort by least point and the
    base points come first, so the base atoms keep their order and values
    ahead of the pasted atoms, which miss X and are null.  Output is
    canonically sorted and uses the canonical ground order (base points
    first, extra points sorted lexicographically).

    Every block tuple already lists its blocks in that atom order, so the
    listing is sorted on the raw bits, by each block's index tuple,
    before any object is built.  Then each distinct block becomes one
    ``SubsetMask``, shared by every space that has it as an atom.
    """
    extras = list(extra_labels)
    if len(set(extras)) != len(extras):
        raise InputFormatError("extra labels must be distinct")
    if set(extras) & set(base.ground.labels):
        raise InputFormatError("extra labels must be fresh")
    n = base.ground.size + len(extras)
    if n > ENUMERATION_CAP:
        raise SizeCapError(
            f"enumeration needs {n} points; the cap is {ENUMERATION_CAP}"
        )
    ground = GroundSet(tuple(base.ground.labels) + tuple(sorted(extras)))

    partitions = [tuple(atom.bits for atom in base.algebra.atoms)]
    for i in range(base.ground.size, n):
        point = 1 << i
        partitions = [
            blocks[:j] + (blocks[j] | point,) + blocks[j + 1 :]
            for blocks in partitions
            for j in range(len(blocks))
        ] + [blocks + (point,) for blocks in partitions]
    distinct = {bits for blocks in partitions for bits in blocks}
    keys = {bits: bits_key(bits) for bits in distinct}
    partitions.sort(key=lambda blocks: tuple(map(keys.__getitem__, blocks)))
    masks = {bits: SubsetMask(ground, bits) for bits in keys}
    k = len(base.algebra.atoms)
    return [
        MeasureSpace(
            SigmaAlgebra(ground, tuple(map(masks.__getitem__, blocks))),
            base.atom_values + (ZERO,) * (len(blocks) - k),
        )
        for blocks in partitions
    ]
