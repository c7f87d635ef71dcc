"""Independent output checks used after the timed section.

None of these calls the library routine whose output it checks.  They
read the library's data fields (atom bitmasks, exact values, member
bitmasks) and recompute each answer from its atom-level formula.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def ext_sum(values):
    """Sum of exact values, ``None`` standing for +infinity."""
    total = Fraction(0)
    for v in values:
        if v is None:
            return None
        total += v
    return total


def _pairs(ms):
    return [(a.bits, v.finite) for a, v in zip(ms.algebra.atoms, ms.atom_values)]


def inner(ms, bits: int):
    """Sum over the atoms inside the set."""
    return ext_sum(v for a, v in _pairs(ms) if a & ~bits == 0)


def outer(ms, bits: int):
    """Sum over the atoms meeting the set."""
    return ext_sum(v for a, v in _pairs(ms) if a & bits)


def thick(ms, bits: int) -> bool:
    """No non-null atom is disjoint from the set."""
    return not any(a & bits == 0 and v != 0 for a, v in _pairs(ms))


def space_text(ms) -> str:
    """Canonical JSON of a space, written without ``measpace.jsonio``."""
    labels = ms.ground.labels
    obj = {
        "points": list(labels),
        "atoms": [
            [labels[i] for i in range(len(labels)) if a.bits >> i & 1]
            for a in ms.algebra.atoms
        ],
        "values": ["inf" if v.finite is None else str(v.finite) for v in ms.atom_values],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def canonical(text: str) -> bool:
    """True when the JSON text re-dumps to itself in canonical form."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def extension_count(m: int, k: int) -> int:
    """Extensions of a k-atom base by m fresh points, in closed form.

    Each fresh point joins one of the k atoms or the pasted part, and the
    pasted points are partitioned freely: sum_j C(m,j) k^(m-j) Bell(j).
    """
    return sum(comb(m, j) * k ** (m - j) * bell(j) for j in range(m + 1))


def family_flags(algebra, member_bits) -> dict:
    """Every classification flag from the kernel alone.

    In a finite algebra a family is a filter-base iff its kernel is a
    nonempty member, a filter iff it is the up-set of that kernel, and an
    ultrafilter iff it is the up-set of an atom.
    """
    atoms = [a.bits for a in algebra.atoms]
    members = set(member_bits)
    kernel = (1 << algebra.ground.size) - 1
    for b in members:
        kernel &= b
    inside = sum(1 for a in atoms if a & ~kernel == 0)
    is_filter_base = kernel != 0 and kernel in members
    is_filter = is_filter_base and len(members) == 1 << (len(atoms) - inside)
    return {
        "kernel": kernel,
        "is_filter_base": is_filter_base,
        "is_filter": is_filter,
        "is_ultrafilter": is_filter and kernel in atoms,
        "has_cip": kernel != 0,
        "is_free": kernel == 0,
    }


def flags_problem(record) -> str | None:
    """Compare a classification record with :func:`family_flags`."""
    want = family_flags(record.algebra, [m.bits for m in record.members])
    got = {
        "kernel": record.kernel.bits,
        "is_filter_base": record.is_filter_base,
        "is_filter": record.is_filter,
        "is_ultrafilter": record.is_ultrafilter,
        "has_cip": record.has_cip,
        "is_free": record.is_free,
    }
    bad = sorted(k for k in want if want[k] != got[k])
    return f"flags differ: {bad}" if bad else None


def ultrafilter_problem(record, kernel_bits: int | None = None) -> str | None:
    """An ultrafilter must be the up-set of an atom (its kernel)."""
    problem = flags_problem(record)
    if problem:
        return problem
    if not record.is_ultrafilter:
        return "not an ultrafilter"
    if record.kernel not in record.algebra.atoms:
        return "kernel is not an atom"
    if kernel_bits is not None and record.kernel.bits != kernel_bits:
        return "unexpected kernel"
    return None
