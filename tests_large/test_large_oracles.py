"""Seeded oracle checks at 13-16 points, past tier-1's sizes.

This directory lies outside ``testpaths``, so the tier-1 command does
not collect it.  Run it with

    PYTHONPATH=src python -m pytest -q tests_large

Each test compares a fast path with its definition-by-definition oracle
from ``tests/support.py``.  The report and thickness oracles scan the
2**k measurable sets of a k-atom space, so their cases take up to 16
atoms; the trace and lift oracles compare set families member by member,
so theirs keep fewer.
"""
import random

from measpace import (
    ZERO,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    check_measurable_embedding,
    lift_to_superspace,
    measure_embedding_report,
    principal_ultrafilter,
    trace_algebra,
)
from measpace.core import MAX_POINTS

from support import (
    embedding_report_oracle,
    lift_to_superspace_oracle,
    outcome,
    random_report_pair,
    random_space,
    thick_witness_oracle,
    trace_algebra_oracle,
)

SIZES = (13, 14, 15, 16)
VALUES = ("0", "1/2", "1", "2", "inf")


def _labels(n):
    return [f"p{i}" for i in range(n)]


def _random_subset(rng, ms):
    return ms.ground.mask(label for label in ms.ground.labels if rng.random() < 0.7)


def _space(rng, n, fewest=1, most=MAX_POINTS):
    """A seeded ``random_space`` on ``n`` points with ``fewest`` to
    ``most`` atoms: many atoms make the scans long, and few keep an
    oracle that compares set families cheap."""
    while True:
        ms = random_space(rng, _labels(n))
        if fewest <= len(ms.algebra.atoms) <= most:
            return ms


def _fine_pair(rng, n):
    """A seeded (small, big) pair on a big space of at least n - 2 atoms:
    small is the trace space on a random X, listed in shuffled order, that
    space with one value changed, or with its first two atoms merged.
    ``random_report_pair`` builds the trace space by its oracle, which
    compares the traces pairwise; here it is read off the cuts directly."""
    big = _space(rng, n, fewest=n - 2)
    x = _random_subset(rng, big)
    labels = list(x.labels())
    rng.shuffle(labels)
    pairs = zip(big.algebra.atoms, big.atom_values)
    cuts = {(atom & x).labels(): value for atom, value in pairs if atom & x}
    blocks, values = list(cuts), list(cuts.values())
    kind = rng.randrange(3)
    if kind == 1 and values:
        values[rng.randrange(len(values))] = rng.choice(VALUES)
    elif kind == 2 and len(blocks) > 1:
        blocks[:2], values[:2] = [blocks[0] + blocks[1]], values[:1]
    order = sorted(range(len(blocks)), key=lambda i: min(map(labels.index, blocks[i])))
    ground = GroundSet(tuple(labels))
    algebra = SigmaAlgebra(ground, tuple(ground.mask(blocks[i]) for i in order))
    return MeasureSpace(algebra, tuple(values[i] for i in order)), big


def test_measure_embedding_report_matches_the_oracle():
    rng = random.Random(1613)
    outcomes = set()
    pairs = [random_report_pair(rng, n) for n in SIZES * 4]
    for n in SIZES * 3:
        pairs.append(_fine_pair(rng, n))
    for small, big in pairs:
        report = measure_embedding_report(small, big)
        assert report == embedding_report_oracle(small, big)
        outcomes.add((report.reason, report.ok or report.witness.ground == small.ground))
    assert outcomes == {
        (None, True),
        ("trace-mismatch", False),  # a big set whose trace splits a small atom
        ("trace-mismatch", True),  # a small set that splits a cut
        ("measure-mismatch", False),
    }


def test_thick_witness_matches_the_oracle():
    rng = random.Random(1614)
    refused = 0
    for n in SIZES * 5:
        ms = _space(rng, n, fewest=n - 2)
        x = _random_subset(rng, ms)
        if rng.random() < 0.5:  # thick: X meets every atom that is not null
            for atom, value in zip(ms.algebra.atoms, ms.atom_values):
                if value != ZERO:
                    x = x | atom
        witness = ms._thick_witness(x)
        assert witness == thick_witness_oracle(ms, x)
        assert (witness is None) == ms.is_thick(x)
        refused += witness is not None
    assert 0 < refused < len(SIZES) * 5


def test_trace_algebra_and_the_measurable_embedding_check_match_the_oracle():
    rng = random.Random(1615)
    held = 0
    for n in SIZES * 5:
        ms = random_space(rng, _labels(n))
        x = _random_subset(rng, ms)
        for target in (None, GroundSet(x.labels()[::-1])):
            expected = trace_algebra_oracle(ms.algebra, x, target)
            assert trace_algebra(ms.algebra, x, target) == expected
        small, big = random_report_pair(rng, n)
        x = big.ground.mask(small.ground.labels)
        expected = trace_algebra_oracle(big.algebra, x, small.ground) == small.algebra
        assert check_measurable_embedding(small.algebra, big.algebra) is expected
        held += expected
    assert 0 < held < len(SIZES) * 5


def test_lift_to_superspace_matches_the_oracle():
    # X is a union of atoms or a random subset, and the ultrafilter's
    # algebra is the trace on X or a random algebra on X's points, listed
    # in shuffled order: every outcome, lifted or refused, is compared
    rng = random.Random(1616)
    answers = set()
    for n in SIZES * 4:
        big = _space(rng, n, most=7).algebra
        if rng.random() < 0.7:
            x = sum((a.bits for a in big.atoms if rng.random() < 0.6), 0)
            labels = [big.ground.labels[i] for i in range(n) if x >> i & 1]
        else:
            labels = [label for label in big.ground.labels if rng.random() < 0.7]
        rng.shuffle(labels)
        if rng.random() < 0.7:
            small = trace_algebra_oracle(big, big.ground.mask(labels), GroundSet(tuple(labels)))
        else:
            small = random_space(rng, labels).algebra
        for atom in small.atoms[:3]:
            f = principal_ultrafilter(small, atom)
            answer = outcome(lift_to_superspace, f, big)
            assert answer == outcome(lift_to_superspace_oracle, f, big)
            answers.add(answer[1] if type(answer) is tuple else "lifted")
    assert answers == {
        "lifted",
        "X is not measurable in the superalgebra",
        "the ultrafilter's algebra is not the trace of the superalgebra on X",
    }
