"""A view of ``core._partitions`` over arbitrary items.  No library code
calls it: the benchmark imports this module and times it, and the tests call it."""
from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

from .core import _partitions, bits_key

T = TypeVar("T")


def set_partitions(items: Sequence[T]) -> Iterator[tuple[tuple[T, ...], ...]]:
    """Yield every partition of ``items`` into nonempty blocks: Bell(len(items))
    of them in ``core._partitions`` order, each raw block's items in place of its bits."""
    pool = tuple(items)
    for blocks in _partitions((), 0, len(pool)):
        yield tuple(tuple(pool[i] for i in bits_key(bits)) for bits in blocks)
