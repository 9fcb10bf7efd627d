"""Array-codec helpers for aligned array-per-key side-tables.

The columnar tag store (:class:`repro.tagging.columnar.ColumnarTagStore`,
one array per ``(column, indicator)`` pair) keeps its arrays aligned
with a backing row store through three maintenance moves — grow every
array by one slot on append, compact every array to a keep-list on
delete, and detect length divergence from the backing row store.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, MutableMapping, Optional, Sequence

__all__ = [
    "append_blank",
    "compact_in_place",
    "gather",
    "keep_indices",
    "misaligned",
]


def append_blank(arrays: Iterable[list], value: Any = None) -> None:
    """Grow every array by one slot (a fresh, untagged/unset position)."""
    for array in arrays:
        array.append(value)


def keep_indices(rows: Iterable[Any], predicate) -> list[int]:
    """Positions of ``rows`` that *survive* a delete-``predicate``."""
    return [
        index for index, row in enumerate(rows) if not predicate(row)
    ]


def gather(array: Sequence[Any], keep: Sequence[int]) -> list[Any]:
    """The kept positions of one array, in ``keep`` order."""
    return [array[index] for index in keep]


def compact_in_place(
    arrays: MutableMapping[Any, list], keep: Sequence[int]
) -> None:
    """Rebuild every array of a keyed mapping down to the kept positions.

    The delete-compaction move: after the backing row store drops the
    same positions, every array stays aligned with it.
    """
    for key, array in arrays.items():
        arrays[key] = [array[index] for index in keep]


def misaligned(
    expected: int, arrays: Mapping[Any, Sequence[Any]]
) -> Optional[tuple[Any, int]]:
    """The first ``(key, length)`` whose array diverges from ``expected``.

    ``None`` means every array matches the backing store's row count.
    Divergence is how a store detects that its backing relation was
    mutated behind its back.
    """
    for key, array in arrays.items():
        if len(array) != expected:
            return key, len(array)
    return None
