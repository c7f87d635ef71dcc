"""Finite measurable and measure spaces.

Ground sets are ordered label tuples, subsets are bitmasks, and a
sigma-algebra is stored canonically as its atom partition (every finite
sigma-algebra is atomic, so the partition determines it).  Measures carry
one exact extended-rational value per atom; there is no floating point
anywhere.  All values are immutable after construction and safe to share
between threads.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .errors import (
    GroundMismatchError,
    InputFormatError,
    NotMeasurableError,
    SizeCapError,
)

#: Hard cap on ground-set size (bitmask width).  Exhaustive enumeration is
#: only practical well below this; see ``enumerate_extensions``.
MAX_POINTS = 16

# Value strings are ASCII (Fraction also reads PEP 515 underscores and other
# scripts' digits) with at most this many digits and an exponent of at most
# this size (CPython's default cap on int <-> str conversion), so
# "1e999999999" is refused before Fraction builds a billion-digit integer.
_VALUE_CHARS = frozenset("0123456789+-./eE")
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e([-+]?[0-9]+)$", re.IGNORECASE)

# __init__ stores fields through object's setter: the classes refuse assignment
_setattr = object.__setattr__


def _ordered(items, what: str) -> tuple:
    """``items`` as a tuple; a string, a set or a non-iterable is refused.

    A string would split into one-letter labels, and a set would give an
    order (so bit positions) that depends on string hashing.
    """
    if isinstance(items, (str, set, frozenset)) or not isinstance(items, Iterable):
        raise InputFormatError(f"{what} must be an ordered sequence of strings, got {items!r}")
    return tuple(items)


def _require(value, cls: type, what: str):
    """``value`` if it is a ``cls``; the one refusal of an argument of the
    wrong type.  ``what`` names the argument with its article."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise InputFormatError(f"{what} must be {article} {cls.__name__}, got {value!r}")


def _set_bits(s, ground: "GroundSet", what: str = "a set") -> int:
    """The bits of ``s``, a ``SubsetMask`` over ``ground``; the one refusal
    of a set argument of the wrong type or over another ground."""
    if not isinstance(s, SubsetMask):
        _require(s, SubsetMask, what)
    if s.ground is not ground and s.ground != ground:
        raise GroundMismatchError(f"{what} is over a different ground set")
    return s.bits


def _check_label(label) -> None:
    """Refuse a label that a label list or a comma-joined set key cannot
    carry unambiguously: anything but a nonempty string without ','."""
    if not isinstance(label, str) or not label:
        raise InputFormatError(f"point labels must be nonempty strings, got {label!r}")
    if "," in label:
        raise InputFormatError(f"point label {label!r} may not contain ','")


class _Value:
    """Base of the immutable value classes.

    A subclass lists its fields, in ``__init__`` order, as
    ``__match_args__`` and declares them (plus any derived slots) in
    ``__slots__``.  Its ``__init__`` checks the arguments and stores them
    with ``_setattr``.  Two values are equal when they have the same class
    and equal field tuples, and the hash is the hash of that tuple, so a
    value with a dict field is unhashable; ``SubsetMask`` alone hashes
    by its bits instead.  Assignment and deletion raise
    ``AttributeError``; copies and pickles are rebuilt through
    ``__init__``, which checks them again.

    ``_trusted(first, second)`` is the one construction path that skips
    ``__init__``, for values whose invariants the library has just checked
    on raw bits itself: the masks of ``SigmaAlgebra.sets`` and
    ``SigmaAlgebra._least_set`` and the spaces of ``enumerate_extensions``.
    Only a class whose slots are exactly its two fields has one: when the
    class is created, its two slot descriptors' setters are looked up
    once, so a value costs one ``object.__new__`` and two stores.  Any
    other class's ``_trusted`` is None.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__
        if len(fields) != 2 or cls.__dict__.get("__slots__") != fields:
            cls._trusted = None
            return
        set_first, set_second = (cls.__dict__[name].__set__ for name in fields)

        def trusted(first, second, new=object.__new__):
            value = new(cls)
            set_first(value, first)
            set_second(value, second)
            return value

        cls._trusted = staticmethod(trusted)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class ExtReal(_Value):
    """A nonnegative exact rational or +infinity (``finite is None``).

    Addition is total with infinity absorbing; multiplication uses the
    measure-theoretic convention 0 * inf = 0.
    """

    __slots__ = __match_args__ = ("finite",)

    def __init__(self, finite: Fraction | None):
        if finite is not None:
            if not isinstance(finite, Fraction):
                raise InputFormatError(f"ExtReal wants a Fraction or None, got {finite!r}")
            if finite < 0:
                raise InputFormatError(f"measure values may not be negative: {finite}")
        _setattr(self, "finite", finite)

    # identity first, as comparing field tuples does; most values are shared
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.finite is other.finite or self.finite == other.finite
        return NotImplemented

    def __hash__(self):
        return hash((self.finite,))

    @classmethod
    def of(cls, value) -> "ExtReal":
        """Coerce an int, Fraction, or string ("2/3", "0.5", "inf")."""
        if isinstance(value, ExtReal):
            return value
        if isinstance(value, bool) or isinstance(value, float):
            raise InputFormatError(
                f"floating point / boolean measure values are not accepted: {value!r}"
            )
        if isinstance(value, int):
            return cls(Fraction(value))
        if isinstance(value, Fraction):
            return cls(value)
        if isinstance(value, str):
            text = value.strip(" \t\n\r\f\v")
            if text == "inf":
                return cls(None)
            if not _VALUE_CHARS.issuperset(text):
                raise InputFormatError(f"bad measure value {value!r}")
            exponent = _EXPONENT.search(text)
            if sum(map(text.count, "0123456789")) > _MAX_DIGITS or (
                exponent and abs(int(exponent[1])) > _MAX_DIGITS
            ):
                raise InputFormatError(
                    f"measure value has more than {_MAX_DIGITS} digits "
                    f"or an exponent beyond +-{_MAX_DIGITS}"
                )
            try:
                return cls(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise InputFormatError(f"bad measure value {value!r}") from None
        raise InputFormatError(f"bad measure value {value!r}")

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __add__(self, other: "ExtReal") -> "ExtReal":
        other = ExtReal.of(other)
        if self.finite is None or other.finite is None:
            return INFINITY
        return ExtReal(self.finite + other.finite)

    def __mul__(self, other: "ExtReal") -> "ExtReal":
        other = ExtReal.of(other)
        if self == ZERO or other == ZERO:
            return ZERO
        if self.finite is None or other.finite is None:
            return INFINITY
        return ExtReal(self.finite * other.finite)

    def __lt__(self, other: "ExtReal") -> bool:
        other = ExtReal.of(other)
        if self.finite is None:
            return False
        if other.finite is None:
            return True
        return self.finite < other.finite

    def __le__(self, other: "ExtReal") -> bool:
        other = ExtReal.of(other)
        return self == other or self < other

    def __str__(self) -> str:
        return "inf" if self.finite is None else str(self.finite)

    def __repr__(self) -> str:
        return f"ExtReal({self})"


ZERO = ExtReal(Fraction(0))
ONE = ExtReal(Fraction(1))
INFINITY = ExtReal(None)


class GroundSet(_Value):
    """Ordered tuple of distinct point labels; label index = bit position.

    May be empty (e.g. an empty pasted part).  Labels are nonempty strings
    without commas, so that label lists serialize unambiguously.
    """

    __match_args__ = ("labels",)
    __slots__ = ("labels", "_position")

    def __init__(self, labels: tuple[str, ...]):
        labels = _ordered(labels, "point labels")
        if len(labels) > MAX_POINTS:
            raise SizeCapError(
                f"ground set has {len(labels)} points; the cap is {MAX_POINTS}"
            )
        position: dict[str, int] = {}
        for i, label in enumerate(labels):
            _check_label(label)
            if label in position:
                raise InputFormatError(f"duplicate point label {label!r}")
            position[label] = i
        _setattr(self, "labels", labels)
        _setattr(self, "_position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.labels is other.labels or self.labels == other.labels
        return NotImplemented

    def __hash__(self):
        return hash((self.labels,))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InputFormatError(f"unknown point label {label!r}") from None

    def mask(self, labels: Iterable[str]) -> "SubsetMask":
        bits = 0
        try:
            if isinstance(labels, str):  # it would split into one-letter labels
                raise TypeError
            for label in labels:
                bits |= 1 << self.index(label)
        except TypeError:  # a string, or not iterable
            raise InputFormatError(
                f"a set must be a collection of point labels, got {labels!r}"
            ) from None
        return SubsetMask(self, bits)

    def singleton(self, label: str) -> "SubsetMask":
        return SubsetMask(self, 1 << self.index(label))

    @property
    def empty(self) -> "SubsetMask":
        return SubsetMask(self, 0)

    @property
    def full(self) -> "SubsetMask":
        return SubsetMask(self, (1 << self.size) - 1)

    def __repr__(self) -> str:
        return f"GroundSet({', '.join(self.labels)})"


class SubsetMask(_Value):
    """Bitmask subset of a specific ground set.

    Masks are only comparable/combinable over equal ground sets; mixing
    grounds raises :class:`GroundMismatchError`.
    """

    __slots__ = __match_args__ = ("ground", "bits")

    def __init__(self, ground: GroundSet, bits: int):
        _require(ground, GroundSet, "a mask's ground")
        if type(bits) is not int:
            raise InputFormatError(f"mask bits must be an int, got {bits!r}")
        if not 0 <= bits < 1 << len(ground.labels):
            raise InputFormatError("mask bits out of range for its ground set")
        _setattr(self, "ground", ground)
        _setattr(self, "bits", bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.bits == other.bits and (
                self.ground is other.ground or self.ground == other.ground
            )
        return NotImplemented

    def __hash__(self):
        """The bits alone: equal masks have equal bits, and masks with the
        same bits over different grounds share a hash but stay unequal."""
        return self.bits

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        return SubsetMask(self.ground, self.bits | _set_bits(other, self.ground))

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        return SubsetMask(self.ground, self.bits & _set_bits(other, self.ground))

    def __sub__(self, other: "SubsetMask") -> "SubsetMask":
        return SubsetMask(self.ground, self.bits & ~_set_bits(other, self.ground))

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.ground, self.bits ^ (1 << self.ground.size) - 1)

    def issubset(self, other: "SubsetMask") -> bool:
        return self.bits & ~_set_bits(other, self.ground) == 0

    __le__ = issubset

    def isdisjoint(self, other: "SubsetMask") -> bool:
        return self.bits & _set_bits(other, self.ground) == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return bits_key(self.bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.labels[i] for i in self.indices())

    def __contains__(self, label: str) -> bool:
        return bool(self.bits >> self.ground.index(label) & 1)

    def __repr__(self) -> str:
        return "{%s}" % ",".join(self.labels())


def _unions(atom_bits: Iterable[int]) -> list[int]:
    """Every union of the given disjoint atoms, as raw bits: entry i is the
    union of the atoms at the bits of i."""
    unions = [0]
    for bits in atom_bits:
        unions += [u | bits for u in unions]
    return unions


def _partitions(blocks: tuple[int, ...], first: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of the first ``n`` points that grows ``blocks``, a
    partition of the points below ``first``, as raw block tuples by least bit,
    one at a time: the last point joins each partition of the points below it,
    block by block, then opens its own.  It streams, trivial partition first,
    for ``all_sigma_algebras`` and ``partitions.set_partitions`` at any size;
    ``enumerate_extensions`` lists in canonical order instead."""
    if n == first:
        yield blocks
        return
    point = 1 << (n - 1)
    for blocks in _partitions(blocks, first, n - 1):
        for j in range(len(blocks)):
            yield blocks[:j] + (blocks[j] | point,) + blocks[j + 1 :]
        yield blocks + (point,)


def _byte_keys(first: int) -> tuple[tuple[int, ...], ...]:
    """Entry i is ``bits_key(i << first)`` for each byte i, built by
    doubling as ``_unions`` builds its list."""
    keys = [()]
    for i in range(first, first + 8):
        keys += [key + (i,) for key in keys]
    return tuple(keys)


# masks fit in two bytes (MAX_POINTS): a low and a high byte lookup
_LOW_KEYS, _HIGH_KEYS = _byte_keys(0), _byte_keys(8)


def bits_key(bits: int) -> tuple[int, ...]:
    """The point indices of a raw bitmask, in increasing order."""
    if not bits >> 16:  # 0 <= bits < 2**16
        return _LOW_KEYS[bits & 255] + _HIGH_KEYS[bits >> 8]
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def mask_key(mask: SubsetMask) -> tuple[int, ...]:
    """Canonical sort key for listing sets: the tuple of point indices."""
    if not isinstance(mask, SubsetMask):  # inline: sorts call this once per set
        _require(mask, SubsetMask, "a set")
    return bits_key(mask.bits)


class SigmaAlgebra(_Value):
    """Sigma-algebra on a finite ground set, stored as its atom partition.

    Atoms are pairwise disjoint, nonempty, cover the ground set, and are
    kept sorted by least point index, so structural equality is canonical.
    A set is measurable exactly when it is a union of atoms.
    """

    __slots__ = __match_args__ = ("ground", "atoms")

    def __init__(self, ground: GroundSet, atoms: tuple[SubsetMask, ...]):
        _require(ground, GroundSet, "an algebra's ground")
        atoms = tuple(_require(atoms, Iterable, "an algebra's atoms"))
        union = 0
        least = 0
        in_order = True
        for atom in atoms:
            bits = _set_bits(atom, ground, "an atom")
            if not bits:
                raise InputFormatError("atoms must be nonempty")
            if union & bits:
                raise InputFormatError("atoms must be pairwise disjoint")
            union |= bits
            low = bits & -bits
            in_order = in_order and least < low
            least = low
        if union != (1 << ground.size) - 1:
            raise InputFormatError("atoms must cover the ground set")
        if not in_order:
            atoms = tuple(sorted(atoms, key=lambda a: a.bits & -a.bits))
        _setattr(self, "ground", ground)
        _setattr(self, "atoms", atoms)

    @classmethod
    def discrete(cls, ground: GroundSet) -> "SigmaAlgebra":
        return cls(ground, tuple(SubsetMask(ground, 1 << i) for i in range(ground.size)))

    @classmethod
    def trivial(cls, ground: GroundSet) -> "SigmaAlgebra":
        if ground.size == 0:
            return cls(ground, ())
        return cls(ground, (ground.full,))

    @property
    def is_discrete(self) -> bool:
        """True when all singletons are measurable."""
        return all(atom.size == 1 for atom in self.atoms)

    def member(self, s: SubsetMask) -> bool:
        """True iff ``s`` is a union of atoms."""
        bits = _set_bits(s, self.ground)
        for atom in self.atoms:
            inter = atom.bits & bits
            if inter and inter != atom.bits:
                return False
        return True

    def require_member(self, s: SubsetMask) -> None:
        if not self.member(s):
            raise NotMeasurableError(f"set {s!r} is not measurable")

    def sets(self) -> Iterator[SubsetMask]:
        """All 2**n_atoms measurable sets: set i is the union of the atoms at the bits of i.

        Unions of the algebra's own checked, disjoint atoms lie in range by
        construction, so each mask is built through ``_trusted``.
        """
        for bits in _unions(atom.bits for atom in self.atoms):
            yield SubsetMask._trusted(self.ground, bits)

    def _least_set(self, passes) -> SubsetMask | None:
        """The least measurable set in ``mask_key`` order whose raw bits pass
        ``passes`` (the one mask built), or None, from O(k**2) calls on k atoms.

        ``passes`` must be one-step: if C fails and C | R passes for a
        union R of atoms, so does C plus one atom of R.  The atoms come by
        least point q, so the points below q are decided: a chosen set
        with nothing above q that passes is the least, and otherwise an
        atom is taken whenever the chosen set plus it still passes, or
        does with one more later atom.
        """
        atoms = [atom.bits for atom in self.atoms]
        chosen = 0
        for i, atom in enumerate(atoms):
            if chosen < atom & -atom and passes(chosen):
                break
            if passes(chosen | atom) or any(passes(chosen | atom | b) for b in atoms[i + 1 :]):
                chosen |= atom
        return SubsetMask._trusted(self.ground, chosen) if passes(chosen) else None

    def __repr__(self) -> str:
        return "SigmaAlgebra[%s]" % "|".join(repr(a) for a in self.atoms)


def generate_sigma_algebra(
    ground: GroundSet, generators: Iterable[SubsetMask]
) -> SigmaAlgebra:
    """Smallest sigma-algebra containing the generators, in atom form.

    Two points land in the same atom exactly when no generator separates
    them, so the atoms are the blocks of the common refinement of the
    generators and their complements.
    """
    _require(ground, GroundSet, "an algebra's ground")
    generators = _require(generators, Iterable, "the generators")
    gen_bits = [_set_bits(g, ground, "a generator") for g in generators]
    atoms = generated_atom_bits(ground.size, gen_bits)
    return SigmaAlgebra(ground, tuple(SubsetMask(ground, bits) for bits in atoms))


def generated_atom_bits(
    size: int, generator_bits: Iterable[int], most: int | None = None
) -> list[int]:
    """Atoms, as raw bitmasks, of the algebra raw generators span on ``size`` points.

    Each generator splits every block into its inside and its outside, so
    the blocks left at the end are the classes of points no generator
    separates.  The algebra has exactly 2**len(result) sets.

    ``most`` (default ``size``) bounds the blocks the generators can
    reach: every generator must be a union of some ``most`` disjoint cells
    covering the points (``size`` singletons always are).  Every block is
    then a union of cells, so once there are ``most`` blocks each one is a
    single cell, no generator can split it, and the rest are skipped.
    """
    blocks = [(1 << size) - 1] if size else []
    if most is None:
        most = size
    for g in generator_bits:
        if len(blocks) >= most:
            break
        blocks = [part for b in blocks for part in (b & g, b & ~g) if part]
    return blocks


def _bit_table(source: GroundSet, target: GroundSet) -> tuple[int, list[int]]:
    """The points of ``source`` whose labels ``target`` has, as raw bits,
    and the table whose entry i is the bit point i takes in ``target`` (0
    if none), from one lookup per point of ``target``.  A set of those
    points moves onto ``target`` as the sum of its points' entries."""
    table = [0] * len(source.labels)
    inside = 0
    position = source._position
    for j, label in enumerate(target.labels):
        i = position.get(label)
        if i is not None:
            table[i] = 1 << j
            inside |= 1 << i
    return inside, table


def _move(bits: int, table: list[int]) -> int:
    """Raw ``bits`` moved point by point through a ``_bit_table``."""
    return sum(map(table.__getitem__, bits_key(bits)))


def transfer_mask(mask: SubsetMask, target: GroundSet) -> SubsetMask:
    """Re-express a mask over another ground set containing its labels."""
    _require(mask, SubsetMask, "a set")
    inside, move = _bit_table(mask.ground, _require(target, GroundSet, "the target"))
    missing = mask.bits & ~inside
    if missing:  # name the least point that ``target`` lacks
        target.index(mask.ground.labels[bits_key(missing)[0]])
    return SubsetMask(target, _move(mask.bits, move))


def _cuts(algebra: SigmaAlgebra, target: GroundSet, x: int | None = None) -> tuple[int, list[int]]:
    """X as raw bits (by default the points of ``target``, all in the
    algebra's ground) and the cut list every trace and embedding test reads:
    each atom's A & X moved onto ``target`` by one ``_bit_table``.  Of the
    points of a given X that ``target`` lacks, the first met atom by atom is named."""
    inside, move = _bit_table(algebra.ground, target)
    if x is None:
        x = inside
        if x.bit_count() != len(target.labels):
            raise GroundMismatchError("the small ground set is not a subset of the big one")
    elif missing := x & ~inside:
        first = next(atom.bits & missing for atom in algebra.atoms if atom.bits & missing)
        target.index(algebra.ground.labels[bits_key(first)[0]])
    point = move.__getitem__  # ``_move`` inline: every embedding check comes here
    return x, [(cut := atom.bits & x) and sum(map(point, bits_key(cut))) for atom in algebra.atoms]


def _trace(
    algebra: SigmaAlgebra, x: SubsetMask, target: GroundSet | None
) -> tuple[SigmaAlgebra, list[int]]:
    """The one trace pass: ``trace_algebra``, whose atoms are the nonempty
    ``_cuts`` in order of their distinct least points, and for each of its
    atoms the index of the atom of ``algebra`` it is cut from."""
    x_bits = _set_bits(x, _require(algebra, SigmaAlgebra, "an algebra").ground)
    if target is None:
        target = GroundSet(x.labels())
    cut = _cuts(algebra, _require(target, GroundSet, "the target"), x_bits)[1]
    sources = sorted((i for i, b in enumerate(cut) if b), key=lambda i: cut[i] & -cut[i])
    return SigmaAlgebra(target, tuple(SubsetMask(target, cut[i]) for i in sources)), sources


def trace_algebra(
    algebra: SigmaAlgebra, x: SubsetMask, target: GroundSet | None = None
) -> SigmaAlgebra:
    """The induced sigma-algebra {C intersect X : C measurable} on X.

    Its atoms are the nonempty cuts A & X of the atoms (see ``_trace``).
    ``target`` fixes the label order of the result (defaults to the order
    inherited from the ambient ground set).
    """
    return _trace(algebra, x, target)[0]


class MeasureSpace(_Value):
    """A sigma-algebra plus one extended-rational value per atom.

    Finite additivity is forced by the representation; on finite spaces
    countable additivity coincides with it.  The empty set has measure 0
    by construction.
    """

    __slots__ = __match_args__ = ("algebra", "atom_values")

    def __init__(self, algebra: SigmaAlgebra, atom_values: tuple[ExtReal, ...]):
        _require(algebra, SigmaAlgebra, "a measure space's algebra")
        values = atom_values
        if type(values) is not tuple or not all(type(v) is ExtReal for v in values):
            values = _require(values, Iterable, "a measure space's atom values")
            values = tuple(ExtReal.of(v) for v in values)
        if len(values) != len(algebra.atoms):
            raise InputFormatError(
                f"need one value per atom: {len(values)} values for "
                f"{len(algebra.atoms)} atoms"
            )
        _setattr(self, "algebra", algebra)
        _setattr(self, "atom_values", values)

    @property
    def ground(self) -> GroundSet:
        return self.algebra.ground

    def measure_of(self, s: SubsetMask) -> ExtReal:
        """Sum of the atom values inside a measurable ``s``; inf absorbs."""
        self.algebra.require_member(s)
        return self.inner_measure(s)

    def outer_measure(self, s: SubsetMask) -> ExtReal:
        """min over measurable C >= s of the measure of C.

        ``s`` need not be measurable.  The least such C is the union of the
        atoms that meet ``s``.
        """
        bits = _set_bits(s, self.algebra.ground)
        pairs = zip(self.algebra.atoms, self.atom_values)
        return sum((v for a, v in pairs if a.bits & bits), ZERO)

    def inner_measure(self, s: SubsetMask) -> ExtReal:
        """max over measurable C <= s of the measure of C: the atoms inside ``s``."""
        return self._inner(_set_bits(s, self.algebra.ground))

    def _inner(self, bits: int) -> ExtReal:
        """``inner_measure`` of raw ``bits``: the sum of the atoms inside them."""
        pairs = zip(self.algebra.atoms, self.atom_values)
        return sum((v for a, v in pairs if not a.bits & ~bits), ZERO)

    def is_thick(self, x: SubsetMask) -> bool:
        """True iff the complement of ``x`` has inner measure zero.

        Equivalently: every measurable set disjoint from ``x`` is null,
        i.e. ``x`` has full outer measure.
        """
        return self._inner(~_set_bits(x, self.algebra.ground)) == ZERO

    def _thick_witness(self, x: SubsetMask) -> SubsetMask | None:
        """The least measurable set, in ``mask_key`` order, that misses ``x``
        and is not null, or None exactly when ``x`` is thick.  One-step: a
        null set outside X gains weight only, and always, from a non-null atom outside X."""
        x_bits = _set_bits(x, self.algebra.ground)
        return self.algebra._least_set(lambda c: not c & x_bits and self._inner(c) != ZERO)

    @property
    def total(self) -> ExtReal:
        return self.measure_of(self.ground.full)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{a!r}:{v}" for a, v in zip(self.algebra.atoms, self.atom_values)
        )
        return f"MeasureSpace({pairs})"


def all_sigma_algebras(ground: GroundSet) -> Iterator[SigmaAlgebra]:
    """Every sigma-algebra on the ground set, one per set partition, in
    ``_partitions`` order: trivial first, discrete last.  The ground is
    checked at the call, before the first algebra is asked for."""
    _require(ground, GroundSet, "the ground")
    return (
        SigmaAlgebra(ground, tuple(SubsetMask(ground, bits) for bits in blocks))
        for blocks in _partitions((), 0, ground.size)
    )
