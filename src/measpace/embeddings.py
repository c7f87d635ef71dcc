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

from collections.abc import Iterable, Iterator, Mapping
from functools import cache
from itertools import chain

from .core import (
    MAX_POINTS,
    ZERO,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    SubsetMask,
    _bit_table,
    _check_label,
    _cuts,
    _move,
    _ordered,
    _require,
    _set_bits,
    _setattr,
    _trace,
    _unions,
    _Value,
    bits_key,
    generated_atom_bits,
    mask_key,
    trace_algebra,
)
from .errors import (
    InputFormatError,
    InvalidKitError,
    InvariantError,
    PreconditionError,
    SizeCapError,
)

ENUMERATION_CAP = 8


def check_measurable_embedding(small: SigmaAlgebra, big: SigmaAlgebra) -> bool:
    """True iff the trace of ``big`` on the small ground set equals ``small``."""
    _require(small, SigmaAlgebra, "the small algebra")
    cuts = _cuts(_require(big, SigmaAlgebra, "the big algebra"), small.ground)[1]
    return {cut for cut in cuts if cut} == {atom.bits for atom in small.atoms}


class EmbeddingReport(_Value):
    """Outcome of a measure-embedding check, with a witness on failure."""

    __slots__ = __match_args__ = ("ok", "reason", "witness")

    def __init__(self, ok: bool, reason: str | None = None, witness: SubsetMask | None = None):
        _setattr(self, "ok", ok)
        _setattr(self, "reason", reason)
        _setattr(self, "witness", witness)


def _embeds(small: MeasureSpace, big: MeasureSpace, cuts: list[int]) -> bool:
    """True iff X is thick and the trace space of ``big`` on X, in the small
    ground's label order, equals ``small``, decided on the raw ``cuts``: big
    atoms that miss X are null, and the other atoms' cuts A & X are exactly
    the atoms of ``small``, each with A's value."""
    value_of = {atom.bits: value for atom, value in zip(small.algebra.atoms, small.atom_values)}
    for cut, value in zip(cuts, big.atom_values):
        # empty cuts need null atoms; a cut no small atom has, or met twice, gets None
        if (value_of.pop(cut, None) if cut else ZERO) != value:
            return False
    return not value_of


def measure_embedding_report(small: MeasureSpace, big: MeasureSpace) -> EmbeddingReport:
    """Check the embedding and, if it fails, name a concrete counterexample.

    The embedding holds exactly when X is thick and the trace space of
    ``big`` on X, in the small ground's label order, equals ``small``: a
    big atom A that misses X must weigh mu(empty) = 0, and one that meets
    X must weigh mu(A & X), where A & X is an atom of ``small`` once the
    traces agree.  Both measures are additive, so agreement on the atoms
    is agreement on every measurable set.  ``_embeds`` decides this on
    the one cut list (``core._cuts``) and builds no ground set, mask,
    algebra or space.  A failing pair's witness is the least set, in
    canonical order, that is a big set whose trace (the union of its
    atoms' cuts) splits a small atom, else a small set that splits a cut,
    else a big set whose measure is not its trace's: one ``_least_set``
    walk each, on raw bits.  Each property is one-step.  Cuts are
    disjoint, so a trace starts to split a small atom only by adding an
    atom whose cut does.  If s splits no cut, a cut that s | R splits is
    disjoint from s and not inside R, so s plus any atom of R that meets
    it splits it.  Once traces are measurable, both measures add over big
    atoms: a balanced finite set is unbalanced only by an unbalanced atom,
    and a balanced infinite one never is.  A refusal that no set backs
    raises :class:`InvariantError`.
    """
    _require(small, MeasureSpace, "the small space")
    _require(big, MeasureSpace, "the big space")
    cuts = _cuts(big.algebra, small.ground)[1]
    if _embeds(small, big, cuts):
        return EmbeddingReport(True)
    pairs = list(zip([atom.bits for atom in big.algebra.atoms], cuts))
    small_atoms = [atom.bits for atom in small.algebra.atoms]

    def trace(c: int) -> int:
        return sum(cut for atom, cut in pairs if atom & c)

    def splits(s: int, parts: list[int]) -> bool:
        return any(s & part not in (0, part) for part in parts)

    for reason, space, passes in (
        ("trace-mismatch", big, lambda c: splits(trace(c), small_atoms)),
        ("trace-mismatch", small, lambda s: splits(s, cuts)),
        ("measure-mismatch", big, lambda c: big._inner(c) != small._inner(trace(c))),
    ):
        witness = space.algebra._least_set(passes)
        if witness is not None:
            return EmbeddingReport(False, reason, witness)
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
        _require(base, MeasureSpace, "a kit's base")
        _require(pasted, SigmaAlgebra, "a kit's pasted part")
        _require(dfamily, Mapping, "a kit's dfamily")
        _require(fibers, Mapping, "a kit's fibers")
        # a family object shared by many keys is checked once; ``held`` keeps
        # each object alive, so no later family can take over its id
        held: dict[int, tuple] = {}
        for key, members in dfamily.items():
            first = id(members) not in held
            if first:
                _require(members, Iterable, f"the pasted family of {key!r}")
            # read once; each member is type-checked before it is hashed
            read = (members if isinstance(members, frozenset) else tuple(members)) if first else ()
            for mask in (key, *read):
                _require(mask, SubsetMask, "a set in a kit's dfamily")
            if first:
                held[id(members)] = members, frozenset(read)
        if type(dfamily) is dict and all(m is f for m, f in held.values()):
            families = dfamily.copy()  # every family is a frozenset: the copy keeps key hashes
        else:
            families = {key: held[id(members)][1] for key, members in dfamily.items()}
        fiber_labels = {}
        for kernel, labels in fibers.items():
            fiber_labels[kernel] = labels = _ordered(labels, "fiber labels")
            _require(kernel, SubsetMask, "a fiber kernel")
            for label in labels:
                _check_label(label)
        _setattr(self, "base", base)
        _setattr(self, "pasted", pasted)
        _setattr(self, "dfamily", families)
        _setattr(self, "fibers", fiber_labels)


def identity_kit(base: MeasureSpace) -> ExtensionKit:
    """The kit whose extension is the base space itself."""
    _require(base, MeasureSpace, "the base")
    pasted = SigmaAlgebra(GroundSet(()), ())
    return ExtensionKit(base, pasted, full_dfamily(base.algebra, pasted), {})


def full_dfamily(
    base_algebra: SigmaAlgebra, pasted: SigmaAlgebra
) -> dict[SubsetMask, frozenset[SubsetMask]]:
    """The constant-full family D_B = D, valid for any pasted space."""
    _require(base_algebra, SigmaAlgebra, "the base algebra")
    _require(pasted, SigmaAlgebra, "the pasted algebra")
    return dict.fromkeys(base_algebra.sets(), frozenset(pasted.sets()))


def auto_fibers(sizes: Mapping[SubsetMask, int]) -> dict[SubsetMask, tuple[str, ...]]:
    """Generate fresh fiber labels "<u>#k" from requested fiber sizes.

    ``u`` is the least-index point of the kernel atom, so distinct atoms
    never collide.
    """
    out: dict[SubsetMask, tuple[str, ...]] = {}
    for kernel, size in _require(sizes, Mapping, "the fiber sizes").items():
        if type(size) is not int:
            raise InputFormatError(f"fiber sizes must be integers, got {size!r}")
        if size < 1:
            raise InputFormatError("fiber sizes must be at least 1")
        if size > MAX_POINTS:
            raise SizeCapError(f"fiber sizes must be at most {MAX_POINTS}, the point cap")
        if not _require(kernel, SubsetMask, "a fiber kernel"):
            raise InputFormatError("a fiber kernel must be nonempty")
        u = kernel.labels()[0]
        out[kernel] = tuple(f"{u}#{k}" for k in range(1, size + 1))
    return out


def validate_kit(kit: ExtensionKit) -> list[str]:
    """Return the list of violated kit invariants (empty = valid).

    One pass on raw bits (``_shape_problems``) checks that the labels are
    pairwise distinct, every fiber is a nonempty fiber on a base atom, the
    dfamily keys are exactly the measurable base sets, and every family is
    a nonempty set of measurable pasted sets.  Once keys and families are
    well typed, the three closure conditions (the empty set in D_empty,
    complements, unions of selections) are decided by one count.  Put the
    pasted points after X and let G = {B + D : D in D_B}.  G lies inside
    the algebra it generates, which has 2**blocks sets, where blocks
    counts the classes of points of X + Z that no member of G separates.
    So G is closed, which is exactly the three conditions, iff
    |G| = 2**blocks.  The count is exact without building G: the keys
    are distinct sets over X and each family's members distinct sets
    over Z, which the shift keeps apart from X, so the members B + D are
    distinct and |G| is the sum of the family sizes.  A valid kit builds
    no mask and sorts nothing.

    Only failing entries are sorted, to list them in canonical order.  A
    refused count is listed condition by condition, the union condition
    for pairs only: a finite selection D_1, ..., D_n folds to pairwise
    unions ((D_1 | D_2) | D_3 ...), so pairwise closure already gives the
    finite case (the test suite re-checks selections of length three).  A
    refused count that the listing cannot back raises
    :class:`InvariantError`.
    """
    return _checked(kit)[0]


def _checked(kit: ExtensionKit) -> tuple[list[str], list[int] | None]:
    """validate_kit's problems and G's blocks (None unless the count holds)."""
    problems, typed = _shape_problems(_require(kit, ExtensionKit, "a kit"))
    blocks = _closed_blocks(kit) if typed else None
    if typed and blocks is None:
        closure = _closure_problems(kit)
        if not closure:
            raise InvariantError("the closure count refused a kit that no condition contradicts")
        problems += closure
    return problems, blocks


def _shape_problems(kit: ExtensionKit) -> tuple[list[str], bool]:
    """The violated label, fiber, key and family conditions, and whether
    keys and families are well typed (so the closure count applies).

    Each condition is decided on ints; only its failing entries are sorted
    by mask_key for the messages.  Base and pasted labels are distinct
    within their grounds, so only a repeat among all labels together
    walks the fibers to name the collision.
    """
    base_alg, pasted = kit.base.algebra, kit.pasted
    x, z = base_alg.ground, pasted.ground
    labels = [*x.labels, *z.labels]
    for fiber in kit.fibers.values():
        labels += fiber
    collision = len(set(labels)) != len(labels)
    atoms = set(base_alg.atoms)
    bad_fibers = [
        kernel for kernel, fiber in kit.fibers.items() if not fiber or kernel not in atoms
    ]

    measurable = set(_unions(atom.bits for atom in base_alg.atoms))
    keyed = {b.bits: ds for b, ds in kit.dfamily.items() if b.ground is x or b.ground == x}
    missing = measurable.difference(keyed)
    # with no key missing, as many keys as measurable sets leave none extra
    scan = kit.dfamily if missing or len(kit.dfamily) != len(measurable) else ()
    extra = [
        b for b in scan if not (b.ground is x or b.ground == x) or b.bits not in measurable
    ]
    z_measurable = set(_unions(atom.bits for atom in pasted.atoms))
    # equal families are unioned once, a family shared by every key too
    distinct = set(kit.dfamily.values())
    wrong = {
        d
        for d in set().union(*distinct)
        if not ((d.ground is z or d.ground == z) and d.bits in z_measurable)
    }
    # a family is listed only under a measurable key; another key is listed as extra
    failing = (
        [bits for bits, ds in keyed.items() if not ds or wrong and not wrong.isdisjoint(ds)]
        if wrong or frozenset() in distinct
        else []
    )
    typed = not (missing or extra or failing)
    if typed and not (collision or bad_fibers):
        return [], True

    problems: list[str] = []
    if collision:
        used = dict.fromkeys(x.labels, "base")
        for kernel in sorted(kit.fibers, key=mask_key):
            fiber = kit.fibers[kernel]
            if len(set(fiber)) != len(fiber):
                problems.append(f"fiber {kernel!r} repeats a label")
            for label in fiber:
                if label in used:
                    problems.append(
                        f"label {label!r} of fiber {kernel!r} collides with {used[label]}"
                    )
                else:
                    used[label] = f"fiber {kernel!r}"
        for label in z.labels:
            if label in used:
                problems.append(f"pasted label {label!r} collides with {used[label]}")
            else:
                used[label] = "pasted"
    for kernel in sorted(bad_fibers, key=mask_key):
        if kernel not in atoms:
            problems.append(f"fiber key {kernel!r} is not an atom of the base algebra")
        if not kit.fibers[kernel]:
            problems.append(f"fiber {kernel!r} is empty")
    for bits in sorted(missing, key=bits_key):
        problems.append(f"no pasted family for base set {SubsetMask(x, bits)!r}")
    for b in sorted(extra, key=mask_key):
        problems.append(f"pasted family keyed by non-measurable set {b!r}")
    for bits in sorted(measurable.intersection(failing), key=bits_key):
        ds, b = keyed[bits], SubsetMask(x, bits)
        if not ds:
            problems.append(f"pasted family for {b!r} is empty")
        for d in sorted([d for d in ds if d in wrong], key=mask_key):
            problems.append(f"pasted family for {b!r} contains non-measurable {d!r}")
    return problems, typed


def _closed_blocks(kit: ExtensionKit) -> list[int] | None:
    """The blocks of G on X + Z if |G| = 2**blocks (see validate_kit), else None.

    Only a typed kit gets here.  Its keys are distinct sets over X and the
    members of each family distinct sets over Z, shifted past X where no
    key reaches, so the members B + D of G are all distinct and |G| is the
    sum of the family sizes: G is counted, never built.  Every member is a
    union of the k base atoms and the m pasted atoms.  Those k + m cells
    cover X + Z, so G has at most k + m blocks, and the refinement stops
    once it has that many: no later member can split a cell.  The members
    under the base atoms come first, as they split the cells soonest; a
    member met again splits nothing.
    """
    shift = kit.base.ground.size
    families, atoms = kit.dfamily, kit.base.algebra.atoms
    generated = (b.bits | d.bits << shift for b in chain(atoms, families) for d in families[b])
    cells = len(atoms) + len(kit.pasted.atoms)
    blocks = generated_atom_bits(shift + kit.pasted.ground.size, generated, cells)
    return blocks if sum(map(len, families.values())) == 1 << len(blocks) else None


def _submasks(bits: int) -> Iterator[int]:
    """Every submask of ``bits``, once each, from ``bits`` itself down to 0."""
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = sub - 1 & bits


def _closure_problems(kit: ExtensionKit) -> list[str]:
    """One message per violated closure condition, base sets in mask_key order.

    The keys are exactly the unions of base atoms.  Equal families are
    shared, so each is sorted once, the unions of selections from two
    families are formed once (a cached pair union), and each set named in
    a message is formatted once.  A pair B1, B2 can break the union
    condition only under T = B1 | B2, and only if D_T misses some union
    of two families; just those T have their pairs enumerated over the
    atoms, and only the failing pairs are sorted into canonical order.
    """
    base_ground, z_ground = kit.base.ground, kit.pasted.ground
    x_full = (1 << base_ground.size) - 1
    z_full = (1 << z_ground.size) - 1
    shared: dict[frozenset[int], frozenset[int]] = {}
    family = {}
    for b, ds in kit.dfamily.items():
        members = frozenset(d.bits for d in ds)
        family[b.bits] = shared.setdefault(members, members)
    ordered = {ds: sorted(ds, key=bits_key) for ds in shared}
    keys = sorted(family, key=bits_key)
    fb = cache(lambda bits: repr(SubsetMask(base_ground, bits)))
    fz = cache(lambda bits: repr(SubsetMask(z_ground, bits)))
    problems: list[str] = []
    if 0 not in family[0]:
        problems.append("the empty pasted set is missing from the family of the empty base set")
    for b in keys:
        comp = b ^ x_full
        for d in ordered[family[b]]:
            if d ^ z_full not in family[comp]:
                problems.append(
                    f"complement {fz(d ^ z_full)} of {fz(d)} in the family of "
                    f"{fb(b)} is missing from the family of {fb(comp)}"
                )

    members = frozenset().union(*shared)
    every_union = {d1 | d2 for d1 in members for d2 in members}
    joined = cache(lambda ds1, ds2: frozenset(d1 | d2 for d1 in ds1 for d2 in ds2))
    union = _unions(atom.bits for atom in kit.base.algebra.atoms)
    failing = []
    for t_atoms, t in enumerate(union):
        target = family[t]
        if every_union <= target:
            continue
        for a1 in _submasks(t_atoms):  # B1 over the sub-unions of T, B2 = (T - B1) + part of B1
            b1, rest = union[a1], t_atoms & ~a1
            for s in _submasks(a1):
                b2 = union[rest | s]
                if not joined(family[b1], family[b2]) <= target:
                    failing.append((b1, b2))
    rank = {b: i for i, b in enumerate(keys)}
    failing.sort(key=lambda pair: (rank[pair[0]], rank[pair[1]]))
    for b1, b2 in failing:
        target = family[b1 | b2]
        for d1 in ordered[family[b1]]:
            for d2 in ordered[family[b2]]:
                if d1 | d2 not in target:
                    problems.append(
                        f"union {fz(d1 | d2)} of selections from {fb(b1)} and "
                        f"{fb(b2)} is missing from the family of {fb(b1 | b2)}"
                    )
    return problems


def construct_extension(kit: ExtensionKit) -> MeasureSpace:
    """Build the measure space a valid kit generates.

    The ground set is the base points followed by all outside labels in
    lexicographic order (a canonical choice, so reconstruction from a
    decomposed kit is reproducible).  Measurable sets are exactly
    B + (fibers of atoms inside B) + D with D in D_B, and such a set gets
    the base value of B.  Validation found the blocks of G on X + Z and
    proved |G| = 2**blocks (see validate_kit).  Keeping each base point,
    sending each fiber point with its kernel atom and each pasted point
    to its place in the ground is a Boolean isomorphism onto the
    extension's algebra, so its atoms are the images of the blocks and
    the count carries over.  Each atom meets X in nothing (a pasted
    atom, null) or in one base atom, whose value it carries.  The result
    is checked to embed the base; a failure raises :class:`InvariantError`.
    """
    problems, blocks = _checked(kit)
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

    # the base points come first in the ground, so base bits carry over
    x_bits = (1 << base.ground.size) - 1
    move = _bit_table(kit.pasted.ground, ground)[1]
    fiber_of = {kernel.bits: ground.mask(labels).bits for kernel, labels in kit.fibers.items()}
    atoms = []
    for block in blocks:
        trace = block & x_bits
        moved = _move(block >> base.ground.size, move)
        atoms.append(SubsetMask(ground, trace | fiber_of.get(trace, 0) | moved))
    algebra = SigmaAlgebra(ground, tuple(atoms))

    value_of = {atom.bits: value for atom, value in zip(base.algebra.atoms, base.atom_values)}
    value_of[0] = ZERO
    traces = [atom.bits & x_bits for atom in algebra.atoms]
    if not all(trace in value_of for trace in traces):
        raise InvariantError("a constructed atom meets X in more than one base atom")
    values = tuple(map(value_of.__getitem__, traces))
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
    """Read an extension over X off one trace pass (see ``core._trace``).

    Returns the trace space on X, the bits of Z (the big atoms the pass
    did not cut), the fibers, each keyed and anchored by the trace atom
    its big atom was cut to, and the class of every point of Y minus X,
    in atom order.  Each trace atom A & X carries A's value.  The trace
    space takes X's own label order, so it embeds exactly when X is
    thick (see ``measure_embedding_report``).  Only a refusal runs the
    embedding report, for its reason and witness.
    """
    _set_bits(x, _require(big, MeasureSpace, "an extension").ground, "x")
    algebra, sources = _trace(big.algebra, x, None)
    small = MeasureSpace(algebra, tuple(big.atom_values[i] for i in sources))
    inside_of = dict(zip(sources, small.algebra.atoms))
    z_bits = 0
    fibers: dict[SubsetMask, tuple[str, ...]] = {}
    assignment: dict[str, OutsidePointClass] = {}
    pasted = OutsidePointClass("pasted")
    for i, atom in enumerate(big.algebra.atoms):
        inside = inside_of.get(i)
        if inside:
            stuck = (atom - x).labels()
            if stuck:
                fibers[inside] = stuck
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

    Each fresh point joins a block (a base atom as a fiber point, or a
    pasted block) so every extension comes out once.  Atoms sort by least
    point and the base points come first, so the base atoms keep their
    order and values ahead of the pasted atoms, which miss X and are null.
    Output is canonically sorted and uses the canonical ground order (base
    points first, extra points sorted lexicographically).

    ``_canonical_blocks`` lists the atom tuples in that order, each one
    a checked partition of the ground, sharing one mask per block.  Each
    space is built unchecked from one tuple, the base values and one
    ``ZERO`` per pasted block.
    """
    _require(base, MeasureSpace, "the base")
    extras = list(_require(extra_labels, Iterable, "the extra labels"))
    # a string would split into one-letter labels
    if isinstance(extra_labels, str) or not all(isinstance(label, str) for label in extras):
        raise InputFormatError(
            f"extra labels must be a collection of strings, got {extra_labels!r}"
        )
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
    fresh = (1 << n) - (1 << base.ground.size)
    atom_bits = tuple(a.bits for a in base.algebra.atoms)
    values = {len(atom_bits) + p: base.atom_values + (ZERO,) * p for p in range(len(extras) + 1)}
    algebra, space = SigmaAlgebra._trusted, MeasureSpace._trusted
    return [
        space(algebra(ground, atoms), values[len(atoms)])
        for atoms in _canonical_blocks(ground, atom_bits, fresh)
    ]


def _canonical_blocks(
    ground: GroundSet, atom_bits: tuple[int, ...], fresh: int
) -> list[tuple[SubsetMask, ...]]:
    """Every partition of ``ground`` into the base atoms and the ``fresh``
    points that keeps the atoms apart, as atom tuples in canonical order:
    lexicographic over the blocks, each compared by its index tuple.

    Base atom i takes each subset S of the free fresh points, then each
    pasted block takes the least free point plus a subset S of the rest.
    Fresh points lie above the base points, so a block's index tuple is
    its head's followed by S's: taking each S in index-tuple order, empty
    first, lists in order.  That is the order of one sorted list of the
    subsets of ``fresh``, kept by filtering it to each free set.  The
    tuples after block i depend only on i and the free points, so each
    such suffix list is built once per call, with one mask per block.

    The tuples for (i, free) partition its domain, ``free`` plus the atoms
    from i on: each block must lie in the domain, hold its least point and
    leave exactly the tail's domain, and the root domain must be the
    ground, or ``InvariantError`` is raised.
    """
    order = sorted(_submasks(fresh), key=bits_key)
    k = len(atom_bits)
    covered = [0] * (k + 1)  # covered[i]: the union of the atoms from i on
    for i in reversed(range(k)):
        covered[i] = atom_bits[i] | covered[i + 1]
    if fresh | covered[0] != (1 << ground.size) - 1:
        raise InvariantError(f"atoms {atom_bits} and fresh points {fresh:#b} miss the ground")
    masks: dict[int, SubsetMask] = {}
    memo: dict[tuple[int, int], list[tuple[SubsetMask, ...]]] = {}

    def suffixes(i: int, free: int) -> list[tuple[SubsetMask, ...]]:
        if (i, free) in memo:
            return memo[i, free]
        if i < k:
            head, rest, after = atom_bits[i], free, i + 1
        elif free:
            head = free & -free
            rest, after = free ^ head, k
        else:
            return [()]
        domain = free | covered[i]
        memo[i, free] = listed = []
        for s in order:
            if s & rest == s:
                block, left = head | s, rest ^ s
                remains = left | covered[after]  # the domain of the tuples after block
                if not block & domain & -domain or block & ~domain or remains != domain ^ block:
                    raise InvariantError(f"block {block:#b} does not split {domain:#b}")
                mask = masks.get(block)
                if mask is None:
                    mask = masks[block] = SubsetMask._trusted(ground, block)
                listed += [(mask,) + tail for tail in suffixes(after, left)]
        return listed

    listed = suffixes(0, fresh)
    del suffixes  # it refers to itself: break the cycle so the memo is freed now, not by gc
    return listed
