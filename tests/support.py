"""Shared builders, independent oracles and theorem predicates for the
test suite.

The brute-force oracles avoid the library's own code paths: set families
are plain frozensets of bitmasks, partitions are enumerated via
restricted growth strings, and closure is computed by fixpoint iteration.
The scan oracles keep the definition-by-definition code that the library
replaced with atom-level and kernel-level constructions (classifying
families with ``classify_family_oracle``, scanning every measurable
set), so each fast path is checked against its definition on all small
instances.
"""
from __future__ import annotations

from functools import reduce
from itertools import product as iproduct
from operator import or_

from measpace import (
    INFINITY,
    ONE,
    ZERO,
    DecompositionRecord,
    EmbeddingReport,
    ExtensionKit,
    GroundMismatchError,
    GroundSet,
    InputFormatError,
    InvalidKitError,
    InvariantError,
    MeasureSpace,
    OutsidePointClass,
    PreconditionError,
    SetFamily,
    SigmaAlgebra,
    SizeCapError,
    SubsetMask,
    UltrafilterRecord,
    all_sigma_algebras,
    auto_fibers,
    check_measurable_embedding,
    check_measure_embedding,
    generate_sigma_algebra,
    mask_key,
)
from measpace.core import MAX_POINTS, _partitions, bits_key
from measpace.embeddings import ENUMERATION_CAP


def G(*labels):
    return GroundSet(tuple(labels))


def alg(ground, *atom_groups):
    return SigmaAlgebra(ground, tuple(ground.mask(g) for g in atom_groups))


def space(ground, atom_groups, values):
    return MeasureSpace(alg(ground, *atom_groups), tuple(values))


def bits_of(ground, labels):
    return ground.mask(labels).bits


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its refusal,
    so a routine and its oracle can be compared on refused input too."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------- oracles

def closure_oracle(n_points: int, generator_bits: list[int]) -> set[int]:
    """Brute-force sigma-algebra closure over all subsets of an n-point set.

    Starts from the generators, closes under complement and binary union
    until a fixpoint; countable unions reduce to binary ones finitely.
    """
    full = (1 << n_points) - 1
    family = {0, full} | set(generator_bits)
    while True:
        new = set()
        for a in family:
            new.add(a ^ full)
            for b in family:
                new.add(a | b)
        if new <= family:
            return family
        family |= new


def refinement_oracle(n_points: int, generator_bits) -> list[int]:
    """The blocks of the points no generator separates, by least point:
    points share a block exactly when the same generators hold them."""
    gens = list(generator_bits)
    blocks: dict[tuple[int, ...], int] = {}
    for p in range(n_points):
        signature = tuple(g >> p & 1 for g in gens)
        blocks[signature] = blocks.get(signature, 0) | 1 << p
    return sorted(blocks.values(), key=lambda b: b & -b)


def closed_blocks_oracle(kit: ExtensionKit) -> list[int] | None:
    """The closure count by building G: the set of every B + D, D in D_B,
    with D shifted past X, refined by all its members.  Its blocks, by
    least point, if |G| = 2**blocks, else None.  Any kit is accepted."""
    shift = kit.base.ground.size
    generated = {b.bits | d.bits << shift for b, ds in kit.dfamily.items() for d in ds}
    blocks = refinement_oracle(shift + kit.pasted.ground.size, generated)
    return blocks if len(generated) == 1 << len(blocks) else None


def bits_key_oracle(bits: int) -> tuple[int, ...]:
    """The point indices of a raw bitmask, one bit position at a time."""
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def atoms_of_family(n_points: int, family: set[int]) -> set[int]:
    """Minimal nonempty members of a closed family."""
    atoms = set()
    for a in family:
        if a and not any(b and b != a and b | a == a for b in family):
            atoms.add(a)
    return atoms


def brute_force_ultrafilters(set_bits: list[int]) -> list[frozenset[int]]:
    """Every ultrafilter of a finite algebra, by scanning up-closed families.

    ``set_bits`` lists all measurable sets.  A family (subset of the
    algebra, encoded as an index bitmap) survives when it is up-closed,
    is a filter-base, and contains every measurable set that meets all of
    its members.
    """
    m = len(set_bits)
    supersets = []
    for i, s in enumerate(set_bits):
        sup = 0
        for j, t in enumerate(set_bits):
            if s | t == t:
                sup |= 1 << j
        supersets.append(sup)

    found = []
    for fam in range(1, 1 << m):
        # up-closed: every member's supersets are members
        probe = fam
        up_closed = True
        while probe:
            i = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if supersets[i] & ~fam:
                up_closed = False
                break
        if not up_closed:
            continue
        members = [set_bits[i] for i in range(m) if fam >> i & 1]
        if not _is_filter_base(members):
            continue
        if all(
            b in members or not all(b & a for a in members) for b in set_bits
        ):
            found.append(frozenset(members))
    return found


def _is_filter_base(members: list[int]) -> bool:
    return bool(members) and all(
        any(c and c | (a & b) == a & b for c in members)
        for a in members
        for b in members
    )


def has_cip_oracle(members: frozenset[int], full: int) -> bool:
    """Direct definition: every nonempty subfamily has nonempty intersection."""
    pool = list(members)
    for k in range(1 << len(pool)):
        if k == 0:
            continue
        inter = full
        for i, m in enumerate(pool):
            if k >> i & 1:
                inter &= m
        if inter == 0:
            return False
    return True


def rgs_partitions(n: int):
    """Set partitions of range(n) via restricted growth strings.

    Independent of the library's partition generator: a string
    a_0..a_{n-1} with a_0=0 and a_i <= max(previous)+1 encodes which
    block each element joins.
    """
    if n == 0:
        yield ()
        return
    code = [0] * n

    def rec(i, top):
        if i == n:
            blocks = [[] for _ in range(top + 1)]
            for j, c in enumerate(code):
                blocks[c].append(j)
            yield tuple(tuple(b) for b in blocks)
            return
        for c in range(top + 2):
            code[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def family_of_algebra_bits(atom_bits: list[int]) -> set[int]:
    """All unions of atoms, as raw bitmasks."""
    out = set()
    for combo in range(1 << len(atom_bits)):
        bits = 0
        for k, a in enumerate(atom_bits):
            if combo >> k & 1:
                bits |= a
        out.add(bits)
    return out


def trace_family(family_bits: set[int], x_bits: int) -> set[int]:
    return {c & x_bits for c in family_bits}


def relabel_oracle(mask: SubsetMask, target: GroundSet) -> SubsetMask:
    """``mask`` re-expressed over ``target`` by looking each of its labels
    up in the target's label tuple."""
    labels = mask.ground.labels
    return SubsetMask(
        target,
        sum(1 << target.labels.index(labels[i]) for i in range(len(labels)) if mask.bits >> i & 1),
    )


def trace_algebra_oracle(algebra: SigmaAlgebra, x: SubsetMask, target=None) -> SigmaAlgebra:
    """The trace {C & X : C measurable} by definition, on raw bits: every
    measurable set is cut down to X, and the minimal nonempty cuts are
    moved by label into ``target`` (by default X's labels in ground
    order)."""
    ground = algebra.ground
    if target is None:
        target = GroundSet(tuple(ground.labels[i] for i in range(ground.size) if x.bits >> i & 1))
    traces = trace_family(family_of_algebra_bits([a.bits for a in algebra.atoms]), x.bits)
    atoms = atoms_of_family(ground.size, traces)
    return SigmaAlgebra(
        target, tuple(relabel_oracle(SubsetMask(ground, bits), target) for bits in atoms)
    )


def canonical_blocks_oracle(atom_bits: tuple[int, ...], first: int, n: int) -> list[tuple]:
    """The block tuples of every extension of the partition ``atom_bits`` of
    the first ``first`` points to ``n`` points, in canonical order, as the
    listing once built them: every tuple from ``core._partitions``, then a
    sort on one bytes key per tuple (each block's indices + 1, then a 0
    terminator, so bytes order is index-tuple order over the blocks)."""

    def key(blocks):
        return b"".join(bytes(i + 1 for i in bits_key(bits)) + b"\0" for bits in blocks)

    return sorted(_partitions(tuple(atom_bits), first, n), key=key)


def is_canonical_partition(blocks: tuple[int, ...], full: int) -> bool:
    """True iff ``blocks`` lists nonempty blocks by increasing least bit
    (all above 0) whose sum and union are both ``full``: then no two
    overlap and together they cover it.  Every atom tuple that
    ``enumerate_extensions`` lists must pass, since the check its
    generator makes on each block proves this by induction."""
    least = 0
    for bits in blocks:
        if (low := bits & -bits) <= least:
            return False
        least = low
    return sum(blocks) == full and reduce(or_, blocks, 0) == full


def count_extensions_oracle(base: MeasureSpace, n_extra: int) -> int:
    """Independent count of σ-algebras on X + extras whose trace is the base.

    Uses restricted-growth-string partitions and set-of-sets trace
    comparison (never the library's partition generator or atom-level
    trace), so it can referee ``enumerate_extensions``.
    """
    nx = base.ground.size
    n = nx + n_extra
    x_bits = (1 << nx) - 1
    base_family = trace_family(
        family_of_algebra_bits([a.bits for a in base.algebra.atoms]), x_bits
    )
    count = 0
    for blocks in rgs_partitions(n):
        atom_bits = [sum(1 << i for i in blk) for blk in blocks]
        fam = family_of_algebra_bits(atom_bits)
        if trace_family(fam, x_bits) == base_family:
            count += 1
    return count


def all_value_tuples(n_atoms: int, choices):
    yield from iproduct(choices, repeat=n_atoms)


def small_kits():
    """Exhaustive kit candidates: |X| <= 2, |Z| <= 1, fibers <= 2 points."""
    mu_choices = (ZERO, ONE, INFINITY)
    for labels in (("a",), ("a", "b")):
        ground = GroundSet(labels)
        for algebra in all_sigma_algebras(ground):
            base_sets = list(algebra.sets())
            fiber_options = []
            for sizes in iproduct((0, 1, 2), repeat=len(algebra.atoms)):
                wanted = {
                    atom: size for atom, size in zip(algebra.atoms, sizes) if size
                }
                fiber_options.append(auto_fibers(wanted))
            for z_present in (False, True):
                if z_present:
                    zg = GroundSet(("z:0",))
                    pasted = SigmaAlgebra(zg, (zg.full,))
                else:
                    pasted = SigmaAlgebra(GroundSet(()), ())
                dsets = list(pasted.sets())
                nonempty = [
                    frozenset(d for i, d in enumerate(dsets) if pick >> i & 1)
                    for pick in range(1, 1 << len(dsets))
                ]
                for values in iproduct(mu_choices, repeat=len(algebra.atoms)):
                    base = MeasureSpace(algebra, values)
                    for assignment in iproduct(nonempty, repeat=len(base_sets)):
                        dfamily = dict(zip(base_sets, assignment))
                        for fibers in fiber_options:
                            yield ExtensionKit(base, pasted, dfamily, fibers)


def _fmt(mask) -> str:
    return "{%s}" % ",".join(mask.labels())


def validate_kit_oracle(kit: ExtensionKit) -> list[str]:
    """Kit validation by direct definition: every closure condition is
    scanned over all pairs of base sets and selections, so the problem
    list (and its order) referees ``validate_kit``.
    """
    problems: list[str] = []
    base_alg = kit.base.algebra

    used: dict[str, str] = {label: "base" for label in base_alg.ground.labels}
    for kernel in sorted(kit.fibers, key=mask_key):
        labels = kit.fibers[kernel]
        if len(set(labels)) != len(labels):
            problems.append(f"fiber {_fmt(kernel)} repeats a label")
        for label in labels:
            if label in used:
                problems.append(
                    f"label {label!r} of fiber {_fmt(kernel)} collides with {used[label]}"
                )
            else:
                used[label] = f"fiber {_fmt(kernel)}"
    for label in kit.pasted.ground.labels:
        if label in used:
            problems.append(f"pasted label {label!r} collides with {used[label]}")
        else:
            used[label] = "pasted"

    atoms = set(base_alg.atoms)
    for kernel in sorted(kit.fibers, key=mask_key):
        if kernel not in atoms:
            problems.append(f"fiber key {_fmt(kernel)} is not an atom of the base algebra")
        if not kit.fibers[kernel]:
            problems.append(f"fiber {_fmt(kernel)} is empty")

    expected = set(base_alg.sets())
    keys = set(kit.dfamily)
    for b in sorted(expected - keys, key=mask_key):
        problems.append(f"no pasted family for base set {_fmt(b)}")
    for b in sorted(keys - expected, key=mask_key):
        problems.append(f"pasted family keyed by non-measurable set {_fmt(b)}")

    shared = sorted(keys & expected, key=mask_key)
    well_typed = keys == expected
    for b in shared:
        ds = kit.dfamily[b]
        if not ds:
            problems.append(f"pasted family for {_fmt(b)} is empty")
            well_typed = False
        for d in sorted(ds, key=mask_key):
            if d.ground != kit.pasted.ground or not kit.pasted.member(d):
                problems.append(
                    f"pasted family for {_fmt(b)} contains non-measurable {_fmt(d)}"
                )
                well_typed = False

    if well_typed:
        empty_base = base_alg.ground.empty
        if kit.pasted.ground.empty not in kit.dfamily[empty_base]:
            problems.append("the empty pasted set is missing from the family of the empty base set")
        for b in shared:
            comp = b.complement()
            for d in sorted(kit.dfamily[b], key=mask_key):
                if d.complement() not in kit.dfamily[comp]:
                    problems.append(
                        f"complement {_fmt(d.complement())} of {_fmt(d)} in the family of "
                        f"{_fmt(b)} is missing from the family of {_fmt(comp)}"
                    )
        for b1 in shared:
            for b2 in shared:
                target = kit.dfamily[b1 | b2]
                for d1 in sorted(kit.dfamily[b1], key=mask_key):
                    for d2 in sorted(kit.dfamily[b2], key=mask_key):
                        if (d1 | d2) not in target:
                            problems.append(
                                f"union {_fmt(d1 | d2)} of selections from {_fmt(b1)} and "
                                f"{_fmt(b2)} is missing from the family of {_fmt(b1 | b2)}"
                            )
    return problems


def construct_extension_oracle(kit: ExtensionKit) -> MeasureSpace:
    """The extension a kit generates, by direct definition: every
    measurable base set B contributes B + (fibers of atoms inside B) + D
    for each D in D_B, each pasted set is moved onto the extension ground
    label by label, and every atom weighs the base measure of its trace
    on X.
    """
    problems = validate_kit_oracle(kit)
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

    fiber_bits = {kernel: ground.mask(labels).bits for kernel, labels in kit.fibers.items()}
    family: set[int] = set()
    for b in base.algebra.sets():
        bits = b.bits
        for kernel, fb in fiber_bits.items():
            if kernel.issubset(b):
                bits |= fb
        for d in kit.dfamily[b]:
            family.add(bits | relabel_oracle(d, ground).bits)

    algebra = generate_sigma_algebra(ground, (SubsetMask(ground, bits) for bits in family))
    if len(family) != n_sets(algebra):
        raise InvariantError(
            f"the kit generates {len(family)} sets, but their algebra has {n_sets(algebra)}"
        )
    values = tuple(
        base.measure_of(relabel_oracle(atom & x, base.ground)) for atom in algebra.atoms
    )
    result = MeasureSpace(algebra, values)
    report = embedding_report_oracle(base, result)
    if not report.ok:
        raise InvariantError(
            f"the constructed space does not embed the base: {report.reason}"
            f" at {report.witness!r}"
        )
    return result


def embedding_report_oracle(small: MeasureSpace, big: MeasureSpace) -> EmbeddingReport:
    """The measure embedding by direct definition: every trace and every
    measure is compared set by set, in canonical order, so the first
    counterexample found is the witness ``measure_embedding_report`` owes.
    """
    x = big.ground.mask(small.ground.labels)
    big_sets = sorted(big.algebra.sets(), key=mask_key)
    traces = set()
    for c in big_sets:
        t = relabel_oracle(c & x, small.ground)
        traces.add(t)
        if not small.algebra.member(t):
            return EmbeddingReport(False, "trace-mismatch", c)
    for s in sorted(small.algebra.sets(), key=mask_key):
        if s not in traces:
            return EmbeddingReport(False, "trace-mismatch", s)
    for c in big_sets:
        t = relabel_oracle(c & x, small.ground)
        if big.measure_of(c) != small.measure_of(t):
            return EmbeddingReport(False, "measure-mismatch", c)
    return EmbeddingReport(True)


# ------------------------------------------------------------- definition predicates
# Quantities the definitions name that the library itself never needs.

def n_sets(algebra: SigmaAlgebra) -> int:
    """The number of measurable sets: one per union of atoms."""
    return 1 << len(algebra.atoms)


def is_sigma_finite(ms: MeasureSpace) -> bool:
    """True iff the ground set is a union of finite-measure sets.

    On a finite space that is equivalent to every atom carrying a finite
    value.  Products accept non-sigma-finite factors under the
    0 * inf = 0 convention, so this is only ever reported.
    """
    return all(not v.is_infinite for v in ms.atom_values)


def null_sets_cover_ground(ms: MeasureSpace) -> bool:
    """True iff the union of all null measurable sets is the ground set."""
    bits = 0
    for atom, value in zip(ms.algebra.atoms, ms.atom_values):
        if value == ZERO:
            bits |= atom.bits
    return bits == (1 << ms.ground.size) - 1


# ------------------------------------------------------------- theorem predicates
# Each states a theorem of the paper as a biconditional, so on valid input
# it must return True.

def check_dichotomy(u, b) -> bool:
    """True iff exactly one of ``b`` and its complement is a member."""
    if not u.is_ultrafilter:
        raise PreconditionError("dichotomy is only meaningful for ultrafilters")
    u.algebra.require_member(b)
    return (b in u.members) != (b.complement() in u.members)


def check_union_membership(u, bs) -> bool:
    """Whether (union in U) iff (some listed set in U) holds.

    For an ultrafilter with c.i.p. the biconditional is a theorem, so this
    must always return True.
    """
    if not (u.is_ultrafilter and u.has_cip):
        raise PreconditionError("needs an ultrafilter with c.i.p.")
    union = u.algebra.ground.empty
    for b in bs:
        u.algebra.require_member(b)
        union = union | b
    return (union in u.members) == any(b in u.members for b in bs)


def check_sup_property(m, family) -> bool:
    """Whether measure(union of family) equals sup of member measures.

    Precondition (checked): the null sets of ``m`` cover the ground set.
    On a finite space this forces ``m`` to be trivial, so the check can
    only ever run against the zero measure; it states the general
    property honestly, finite collapse included.
    """
    if family.algebra != m.ms.algebra:
        raise GroundMismatchError("family and measure live on different algebras")
    if not null_sets_cover_ground(m.ms):
        raise PreconditionError("the null sets of the measure do not cover the space")
    union = m.ms.algebra.ground.empty
    for member in family.members:
        union = union | member
    m.ms.algebra.require_member(union)
    supremum = ZERO
    for member in family.members:
        value = m.ms.measure_of(member)
        if supremum < value:
            supremum = value
    return m.ms.measure_of(union) == supremum


def check_thickness_equivalence(small, big) -> bool:
    """Embedding holds iff X is thick and lambda = mu o trace.

    Requires the measurable-space embedding; under it, the measure
    embedding forces X to have full outer measure, so the biconditional
    must always come back True.
    """
    if not check_measurable_embedding(small.algebra, big.algebra):
        raise PreconditionError("the measurable-space embedding does not hold")
    x = big.ground.mask(small.ground.labels)
    lhs = check_measure_embedding(small, big)
    rhs = big.is_thick(x) and all(
        big.measure_of(c) == small.measure_of(relabel_oracle(c & x, small.ground))
        for c in big.algebra.sets()
    )
    return lhs == rhs


# ------------------------------------------------------------- scan oracles
# Each computes by scanning measurable sets what the library builds from
# the atom partition.

def measure_oracle(ms, c):
    """The measure of a measurable ``c``, added up atom by atom in a plain
    loop (``measure_of`` is built on ``inner_measure``, which the scans
    below referee)."""
    total = ZERO
    for atom, value in zip(ms.algebra.atoms, ms.atom_values):
        if atom.bits & ~c.bits == 0:
            total = total + value
    return total


def outer_measure_oracle(ms, s):
    """min over the measurable supersets of ``s`` of their measure."""
    return min(measure_oracle(ms, c) for c in ms.algebra.sets() if s.bits & ~c.bits == 0)


def inner_measure_oracle(ms, s):
    """max over the measurable subsets of ``s`` of their measure."""
    return max(measure_oracle(ms, c) for c in ms.algebra.sets() if c.bits & ~s.bits == 0)


def is_thick_oracle(ms, x) -> bool:
    """The complement of ``x`` has inner measure zero, by scan."""
    return inner_measure_oracle(ms, x.complement()) == ZERO


def thick_witness_oracle(ms, x):
    """The first measurable set, in canonical order, that misses ``x`` and
    is not null, by scan; None when ``x`` is thick."""
    return next(
        (
            c
            for c in sorted(ms.algebra.sets(), key=mask_key)
            if c.bits & x.bits == 0 and measure_oracle(ms, c) != ZERO
        ),
        None,
    )


def spaces_and_subsets_up_to(n_points):
    """(space, X) for every space on at most ``n_points`` points with atom
    values in {0, 1, inf}, and every subset X of its ground."""
    for n in range(n_points + 1):
        g = GroundSet(tuple("abcd"[:n]))
        for algebra in all_sigma_algebras(g):
            for values in iproduct((ZERO, ONE, INFINITY), repeat=len(algebra.atoms)):
                ms = MeasureSpace(algebra, values)
                for bits in range(1 << n):
                    yield ms, SubsetMask(g, bits)


_VALUES = ("0", "1/2", "1", "2", "inf")


def random_space(rng, labels):
    """A seeded space on ``labels``: a partition into a uniform number of
    atoms (the first points, shuffled, open one atom each, the others join
    one at random), each valued in {0, 1/2, 1, 2, inf}."""
    g = GroundSet(tuple(labels))
    points = list(range(g.size))
    rng.shuffle(points)
    blocks = [1 << i for i in points[: rng.randint(1, g.size)]] if points else []
    for i in points[len(blocks) :]:
        blocks[rng.randrange(len(blocks))] |= 1 << i
    atoms = tuple(SubsetMask(g, bits) for bits in blocks)
    return MeasureSpace(SigmaAlgebra(g, atoms), tuple(rng.choice(_VALUES) for _ in atoms))


def random_report_pair(rng, n_points):
    """A seeded (small, big) pair: a random big space on ``n_points``
    points, X a random subset of it listed by small in shuffled order,
    and small the trace space on X, that space with one value changed,
    or a random space on X."""
    big = random_space(rng, [f"p{i}" for i in range(n_points)])
    x_labels = [label for label in big.ground.labels if rng.random() < 0.7]
    rng.shuffle(x_labels)
    kind = rng.randrange(3)
    if kind == 2:
        return random_space(rng, x_labels), big
    small = trace_space(big, big.ground.mask(x_labels), GroundSet(tuple(x_labels)))
    values = list(small.atom_values)
    if kind == 1 and values:
        values[rng.randrange(len(values))] = rng.choice(_VALUES)
    return MeasureSpace(small.algebra, tuple(values)), big


def classify_family_oracle(family: SetFamily) -> UltrafilterRecord:
    """Compute every classification flag by its direct definition.

    - filter-base: nonempty, and every two members contain a nonempty
      member below their intersection;
    - filter: filter-base, closed upward and under binary intersections;
    - ultrafilter: filter-base such that any measurable set meeting every
      member is itself a member;
    - c.i.p.: every finite subfamily has nonempty intersection, which for
      a finite family is equivalent to a nonempty kernel;
    - free: empty kernel.
    """
    algebra = family.algebra
    ground = algebra.ground
    # raw-int mirror of the members, smallest sets first so that the
    # "find a nonempty member below ..." scans exit early
    member_bits = sorted(
        (m.bits for m in family.members), key=lambda b: (b.bit_count(), b)
    )
    member_set = set(member_bits)
    all_bits = [s.bits for s in algebra.sets()]
    kernel_bits = (1 << ground.size) - 1
    for b in member_bits:
        kernel_bits &= b

    def nonempty_member_below(target: int) -> bool:
        return any(c and c & ~target == 0 for c in member_bits)

    is_filter_base = bool(member_bits) and all(
        nonempty_member_below(a & b) for a in member_bits for b in member_bits
    )
    upward_closed = all(
        b in member_set or not any(f & ~b == 0 for f in member_bits)
        for b in all_bits
    )
    intersection_closed = all(
        (a & b) in member_set for a in member_bits for b in member_bits
    )
    is_filter = is_filter_base and upward_closed and intersection_closed
    is_ultrafilter = is_filter_base and all(
        b in member_set or any(b & m == 0 for m in member_bits)
        for b in all_bits
    )
    kernel = SubsetMask(ground, kernel_bits)
    has_cip = kernel.bits != 0
    return UltrafilterRecord(
        family=family,
        kernel=kernel,
        is_filter_base=is_filter_base,
        is_filter=is_filter,
        is_ultrafilter=is_ultrafilter,
        has_cip=has_cip,
        is_free=not has_cip,
    )


def principal_ultrafilter_oracle(algebra, atom):
    """The up-set of ``atom``, classified by direct definition."""
    members = frozenset(s for s in algebra.sets() if atom.issubset(s))
    return classify_family_oracle(SetFamily(algebra, members))


def ultrafilter_from_01_measure_oracle(m):
    """The measure-1 sets of a {0,1}-valued measure, classified."""
    members = frozenset(s for s in m.ms.algebra.sets() if m.ms.measure_of(s) == ONE)
    return classify_family_oracle(SetFamily(m.ms.algebra, members))


def lift_to_superspace_oracle(f, superalgebra):
    """{G : G contains some member of f}, classified, with the same
    refusal messages: X, the points of f, must be a measurable set of the
    superalgebra whose trace algebra is f's."""
    x = superalgebra.ground.mask(f.algebra.ground.labels)
    if x not in set(superalgebra.sets()):
        raise PreconditionError("X is not measurable in the superalgebra")
    if trace_algebra_oracle(superalgebra, x, f.algebra.ground) != f.algebra:
        raise PreconditionError(
            "the ultrafilter's algebra is not the trace of the superalgebra on X"
        )
    lifted = frozenset(
        g
        for g in superalgebra.sets()
        if any(relabel_oracle(m, superalgebra.ground).issubset(g) for m in f.members)
    )
    return classify_family_oracle(SetFamily(superalgebra, lifted))


def extend_to_ultrafilter_oracle(base):
    """The principal ultrafilter of the least atom inside the classified
    kernel of a filter-base, with the same refusal messages."""
    record = classify_family_oracle(base)
    if not record.is_filter_base:
        if not base.members:
            reason = "the family is empty"
        elif any(m.bits == 0 for m in base.members):
            reason = "the family contains the empty set"
        else:
            reason = "some pair of members has no nonempty member below it"
        raise PreconditionError(f"not a filter-base: {reason}")
    for atom in base.algebra.atoms:
        if atom.issubset(record.kernel):
            return principal_ultrafilter_oracle(base.algebra, atom)
    raise AssertionError("a filter-base kernel contains an atom")


def restrict_by_trace_oracle(h, x):
    """Every member must meet X; the traces {H & X} are extended."""
    if x.ground != h.algebra.ground:
        raise GroundMismatchError("x is over a different ground set")
    if not (h.is_ultrafilter and h.has_cip):
        raise PreconditionError("needs an ultrafilter with c.i.p.")
    for member in sorted(h.members, key=mask_key):
        if member.isdisjoint(x):
            raise PreconditionError(f"member {member!r} does not meet X")
    small = trace_algebra_oracle(h.algebra, x)
    traces = frozenset(relabel_oracle(m & x, small.ground) for m in h.members)
    return extend_to_ultrafilter_oracle(SetFamily(small, traces))


def lift_ultrafilter_oracle(ps, f, y):
    """The slices {F x {y} : F in f}, extended in the product."""
    if f.algebra != ps.left.algebra:
        raise GroundMismatchError("the ultrafilter is not over the left factor")
    if not f.is_ultrafilter:
        raise PreconditionError("needs an ultrafilter")
    if y not in ps.right.ground.labels:
        raise PreconditionError(f"{y!r} is not a point of the right factor")
    y_mask = ps.right.ground.singleton(y)
    if not ps.right.algebra.member(y_mask):
        raise PreconditionError(f"the singleton {{{y}}} is not measurable on the right")
    slices = frozenset(ps.rectangle(F, y_mask) for F in f.members)
    return extend_to_ultrafilter_oracle(SetFamily(ps.product.algebra, slices))


def project_ultrafilter_oracle(ps, h):
    """{B : B x Y in h} and {C : X x C in h}, each extended in its factor."""
    if h.algebra != ps.product.algebra:
        raise GroundMismatchError("the ultrafilter is not over the product")
    if not (h.is_ultrafilter and h.has_cip):
        raise PreconditionError("needs an ultrafilter with c.i.p.")
    for side, ms in (("left", ps.left), ("right", ps.right)):
        if not ms.algebra.is_discrete:
            raise PreconditionError(f"singletons are not measurable in the {side} factor")
    left_base = frozenset(
        b
        for b in ps.left.algebra.sets()
        if ps.rectangle(b, ps.right.ground.full) in h.members
    )
    right_base = frozenset(
        c
        for c in ps.right.algebra.sets()
        if ps.rectangle(ps.left.ground.full, c) in h.members
    )
    left = extend_to_ultrafilter_oracle(SetFamily(ps.left.algebra, left_base))
    right = extend_to_ultrafilter_oracle(SetFamily(ps.right.algebra, right_base))
    return left, right


def trace_space(big, x, target=None):
    """The trace measure space on X, over ``target`` (by default X's labels
    in ground order): each trace atom A & X carries the value of its big
    atom A.  It embeds exactly when X is thick."""
    small_alg = trace_algebra_oracle(big.algebra, x, target)
    # big atoms are disjoint, so each trace atom is A & X for exactly one
    # big atom A; it need not sort where A does unless X comes first
    value_of = {
        relabel_oracle(atom & x, small_alg.ground): value
        for atom, value in zip(big.algebra.atoms, big.atom_values)
        if atom.bits & x.bits
    }
    return MeasureSpace(small_alg, tuple(value_of[t] for t in small_alg.atoms))


def induced_base_oracle(big, x):
    """The trace space on X, or an error naming the embedding report's
    reason and witness if it does not embed."""
    small = trace_space(big, x)
    report = embedding_report_oracle(small, big)
    if not report.ok:
        raise PreconditionError(
            f"the trace space on X is not embedded: {report.reason}"
            f" at {report.witness!r}"
        )
    return small


def classify_outside_points_oracle(big, x):
    """Each outside point is pasted when its big atom misses X, and
    otherwise sticks to the points its atom shares with X."""
    if x.ground != big.ground:
        raise GroundMismatchError("x is over a different ground set")
    induced_base_oracle(big, x)
    out = {}
    for atom in big.algebra.atoms:
        inside = atom & x
        outside = atom - x
        if not outside:
            continue
        if not inside:
            for label in outside.labels():
                out[label] = OutsidePointClass("pasted")
        else:
            kind = OutsidePointClass("sticks_to", inside.labels())
            for label in outside.labels():
                out[label] = kind
    return out


def decompose_extension_oracle(big, x):
    """The canonical kit read set by set: D_B collects the Z-traces of
    the sets whose X-trace is B, and each outside point p in a big atom
    that meets X goes to the kernel of the classified family
    {C & X : p in C}.
    """
    if x.ground != big.ground:
        raise GroundMismatchError("x is over a different ground set")
    small = induced_base_oracle(big, x)
    z_bits = 0
    for atom in big.algebra.atoms:
        if atom.bits & x.bits == 0:
            z_bits |= atom.bits
    z_part = SubsetMask(big.ground, z_bits)
    z_ground = GroundSet(z_part.labels())
    pasted = SigmaAlgebra(
        z_ground,
        tuple(relabel_oracle(a, z_ground) for a in big.algebra.atoms if a.issubset(z_part)),
    )
    dfamily = {}
    for c in big.algebra.sets():
        b = relabel_oracle(c & x, small.ground)
        dfamily.setdefault(b, set()).add(relabel_oracle(c & z_part, z_ground))
    fibers = {}
    assignment = {label: OutsidePointClass("pasted") for label in z_part.labels()}
    for atom in big.algebra.atoms:
        inside, stuck = atom & x, atom - x
        if not inside or not stuck:
            continue
        members = frozenset(
            relabel_oracle(c & x, small.ground) for c in big.algebra.sets() if atom.issubset(c)
        )
        record = classify_family_oracle(SetFamily(small.algebra, members))
        if not (record.is_ultrafilter and record.has_cip):
            raise PreconditionError(f"the family of {atom!r} is not a c.i.p. ultrafilter")
        fibers[record.kernel] = stuck.labels()
        for label in stuck.labels():
            assignment[label] = OutsidePointClass("sticks_to", record.kernel.labels())
    kit = ExtensionKit(small, pasted, {b: frozenset(ds) for b, ds in dfamily.items()}, fibers)
    return DecompositionRecord(z_part=z_part, kit=kit, point_assignment=assignment)


def enumerate_extensions_oracle(
    base: MeasureSpace, extra_labels
) -> list[MeasureSpace]:
    """Every extension of the base by the given fresh points, by filtering.

    One candidate per set partition of the enlarged ground set; a
    partition survives iff its trace on X reproduces the base algebra,
    and then the measure is forced: each new atom weighs what its X-part
    weighs.  Output is canonically sorted and uses the canonical ground
    order (base points first, extra points sorted lexicographically).
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
    x = ground.mask(base.ground.labels)

    out = []
    for blocks in rgs_partitions(n):
        atoms = tuple(
            SubsetMask(ground, sum(1 << i for i in block)) for block in blocks
        )
        algebra = SigmaAlgebra(ground, atoms)
        if trace_algebra_oracle(algebra, x, base.ground) != base.algebra:
            continue
        values = tuple(
            base.measure_of(relabel_oracle(atom & x, base.ground))
            for atom in algebra.atoms
        )
        out.append(MeasureSpace(algebra, values))
    out.sort(key=lambda ms: tuple(atom.indices() for atom in ms.algebra.atoms))
    return out


def family_members_oracle(family: SetFamily) -> list[list[str]]:
    """The "members" list ``family_to_obj`` owes: the members sorted by
    ``mask_key``, each written as its own labels."""
    return [list(m.labels()) for m in sorted(family.members, key=mask_key)]


def kit_dfamily_oracle(kit: ExtensionKit) -> dict[str, list[list[str]]]:
    """The "dfamily" object ``kit_to_obj`` owes: under each base set's key,
    its own family sorted by ``mask_key``, each member written as its labels."""
    return {
        ",".join(b.labels()): [list(d.labels()) for d in sorted(ds, key=mask_key)]
        for b, ds in kit.dfamily.items()
    }
