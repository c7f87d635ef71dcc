"""Set-partition enumeration for small index sets."""
from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def set_partitions(items: Sequence[T]) -> Iterator[tuple[tuple[T, ...], ...]]:
    """Yield every partition of ``items`` into nonempty blocks.

    Deterministic order, Bell(len(items)) partitions in total.  The only
    library caller is ``core.all_sigma_algebras``.
    """
    pool = list(items)
    if not pool:
        yield ()
        return
    head, rest = pool[0], pool[1:]
    for part in set_partitions(rest):
        yield ((head,),) + part
        for i in range(len(part)):
            yield part[:i] + ((head,) + part[i],) + part[i + 1 :]
