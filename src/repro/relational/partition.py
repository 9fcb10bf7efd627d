"""Partition specifications: stable hash/range bucketing for relations.

A :class:`PartitionSpec` declares how a relation's rows are split into
``count`` buckets keyed on one column.  Two kinds exist:

- ``hash`` — ``bucket = crc32(canonical(value)) % buckets``.  The hash
  is **process-stable** (CRC-32 over a type-tagged canonical byte
  encoding, never Python's randomized ``hash()``), so the on-disk
  ``key=<bucket>`` snapshot layout reloads into the identical
  distribution in any interpreter.
- ``range`` — ``bounds`` is an ascending tuple of split points; bucket
  ``i`` holds values in ``(bounds[i-1], bounds[i]]``-style half-open
  ranges as produced by ``bisect_right``.  ``NULL`` routes to bucket 0.

The spec is frozen and shared: a partitioned relation and all of its
snapshots reference one immutable layout, and the planner derives
static partition elimination from it (see
``repro.sql.optimizer.derive_partition_buckets``).
"""

from __future__ import annotations

import datetime as _dt
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import SchemaError

__all__ = [
    "PartitionSpec",
    "hash_partitions",
    "range_partitions",
    "stable_bucket_hash",
]


def _canonical_bytes(value: Any) -> bytes:
    """A type-tagged, cross-process-stable byte encoding of *value*.

    Values that compare equal under ``==`` must encode identically
    (``7 == 7.0 == True*7`` all land in one bucket), because equality
    predicates prune to the bucket of the *literal*, whatever numeric
    flavor the stored value has.
    """
    if value is None:
        return b"z:"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return b"n:" + repr(value).encode("ascii")
    if isinstance(value, float):
        try:
            if value.is_integer():
                return b"n:" + repr(int(value)).encode("ascii")
        except (OverflowError, ValueError):  # pragma: no cover - inf/nan
            pass
        return b"n:" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if isinstance(value, _dt.datetime):
        return b"t:" + value.isoformat().encode("ascii")
    if isinstance(value, _dt.date):
        return b"d:" + value.isoformat().encode("ascii")
    return b"r:" + repr(value).encode("utf-8", "backslashreplace")


def stable_bucket_hash(value: Any) -> int:
    """CRC-32 of the canonical encoding: the hash-partition router."""
    return zlib.crc32(_canonical_bytes(value))


@dataclass(frozen=True)
class PartitionSpec:
    """An immutable hash/range partition layout over one column."""

    kind: str
    column: str
    buckets: int = 0
    bounds: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "range"):
            raise SchemaError(f"unknown partition kind: {self.kind!r}")
        if self.kind == "hash":
            if self.buckets < 1:
                raise SchemaError("hash partitioning needs buckets >= 1")
            if self.bounds:
                raise SchemaError("hash partitioning takes no bounds")
        else:
            if not self.bounds:
                raise SchemaError("range partitioning needs split bounds")
            if self.buckets:
                raise SchemaError("range partitioning takes no bucket count")
            object.__setattr__(self, "bounds", tuple(self.bounds))
            for low, high in zip(self.bounds, self.bounds[1:]):
                if not low < high:
                    raise SchemaError(
                        "range bounds must be strictly ascending"
                    )

    @property
    def count(self) -> int:
        """Total bucket count N (``partitions=k/N`` in EXPLAIN)."""
        if self.kind == "hash":
            return self.buckets
        return len(self.bounds) + 1

    def bucket_of(self, value: Any) -> int:
        """The bucket holding *value*.

        Raises ``TypeError`` for a range spec when *value* is not
        comparable to the bounds (callers deriving pruning sets treat
        that as "cannot prune").
        """
        if self.kind == "hash":
            return stable_bucket_hash(value) % self.buckets
        if value is None:
            return 0
        return bisect_right(self.bounds, value)

    def describe(self) -> str:
        """A compact human-readable layout summary."""
        if self.kind == "hash":
            return f"hash({self.column}, {self.buckets})"
        bounds = ", ".join(repr(bound) for bound in self.bounds)
        return f"range({self.column}, bounds=[{bounds}])"

    def to_dict(self) -> dict:
        """A plain-dict form; bound values are raw (callers encode)."""
        payload: dict = {"kind": self.kind, "column": self.column}
        if self.kind == "hash":
            payload["buckets"] = self.buckets
        else:
            payload["bounds"] = list(self.bounds)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PartitionSpec":
        if payload.get("kind") == "hash":
            return cls(
                kind="hash",
                column=payload["column"],
                buckets=int(payload["buckets"]),
            )
        return cls(
            kind="range",
            column=payload["column"],
            bounds=tuple(payload["bounds"]),
        )


def hash_partitions(column: str, buckets: int) -> PartitionSpec:
    """A hash layout: ``buckets`` partitions keyed on *column*."""
    return PartitionSpec(kind="hash", column=column, buckets=buckets)


def range_partitions(column: str, bounds: Sequence[Any]) -> PartitionSpec:
    """A range layout: ``len(bounds) + 1`` partitions keyed on *column*."""
    return PartitionSpec(kind="range", column=column, bounds=tuple(bounds))
