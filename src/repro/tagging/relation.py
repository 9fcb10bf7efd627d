"""Tagged relations: relations whose cells carry quality-indicator tags.

A :class:`TaggedRelation` pairs a relational schema (application data
types) with a :class:`~repro.tagging.indicators.TagSchema` (quality
requirements) and stores rows of
:class:`~repro.tagging.cell.QualityCell`.  It can render itself in the
paper's Table-2 style and convert to/from plain relations.
"""

from __future__ import annotations

import threading
from array import array
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import SnapshotWriteError, UnknownColumnError
from repro.relational.partition import PartitionSpec
from repro.relational.relation import Relation, Row
from repro.relational.schema import RelationSchema
from repro.relational.versioned import Carried, Versioned
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue, TagSchema


class TaggedRow(Mapping[str, QualityCell]):
    """An immutable row of quality cells, ordered by the relation schema."""

    __slots__ = ("_schema", "_cells")

    def __init__(
        self,
        schema: RelationSchema,
        tag_schema: TagSchema,
        cells: Mapping[str, QualityCell | Any],
    ) -> None:
        self._schema = schema
        unknown = set(cells) - set(schema.column_names)
        if unknown:
            raise UnknownColumnError(
                f"row references unknown columns {sorted(unknown)} of "
                f"relation {schema.name!r}"
            )
        prepared: list[QualityCell] = []
        for column in schema.columns:
            raw = cells.get(column.name)
            cell = raw if isinstance(raw, QualityCell) else QualityCell(raw)
            value = column.domain.validate(cell.value)
            tags = tag_schema.validate_tags(column.name, cell.tags)
            prepared.append(QualityCell(value, tags.values()))
        self._cells: tuple[QualityCell, ...] = tuple(prepared)

    @classmethod
    def _from_validated(
        cls, schema: RelationSchema, cells: tuple[QualityCell, ...]
    ) -> "TaggedRow":
        """Trusted constructor: ``cells`` must already be validated
        against both the relation schema's domains and the tag schema,
        in schema order.  Fast path for the quality-extended algebra."""
        row = object.__new__(cls)
        row._schema = schema
        row._cells = cells
        return row

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, name: str) -> QualityCell:
        try:
            return self._cells[self._schema._positions[name]]
        except KeyError:
            raise UnknownColumnError(
                f"row of {self._schema.name!r} has no column {name!r}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.column_names)

    def __len__(self) -> int:
        return len(self._cells)

    # -- access ------------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def cells(self) -> tuple[QualityCell, ...]:
        return self._cells

    def value(self, name: str) -> Any:
        """The application value of one column (tag-free)."""
        return self[name].value

    def values_dict(self) -> dict[str, Any]:
        """Application values only, as a plain dict."""
        return {
            n: c.value for n, c in zip(self._schema.column_names, self._cells)
        }

    def values_tuple(self) -> tuple[Any, ...]:
        """Application values in schema order."""
        return tuple(c.value for c in self._cells)

    def cells_dict(self) -> dict[str, QualityCell]:
        """Column name → quality cell."""
        return dict(zip(self._schema.column_names, self._cells))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaggedRow):
            return (
                self._schema.column_names == other._schema.column_names
                and self._cells == other._cells
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema.column_names, self._cells))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={c!r}" for n, c in zip(self._schema.column_names, self._cells)
        )
        return f"TaggedRow({inner})"


class TaggedRelation:
    """A relation of quality cells under a relation schema + tag schema.

    Example (the paper's Table 2)
    -----------------------------
    >>> from repro.relational.schema import schema
    >>> from repro.tagging.indicators import (IndicatorDefinition, TagSchema,
    ...                                       IndicatorValue)
    >>> ts = TagSchema(
    ...     indicators=[IndicatorDefinition("source"),
    ...                 IndicatorDefinition("creation_time", "DATE")],
    ...     allowed={"address": ["source", "creation_time"]})
    >>> rel = TaggedRelation(
    ...     schema("customer", [("co_name", "STR"), ("address", "STR")]), ts)
    >>> _ = rel.insert({
    ...     "co_name": "Nut Co",
    ...     "address": QualityCell("62 Lois Av", [
    ...         IndicatorValue("creation_time", "1991-10-24"),
    ...         IndicatorValue("source", "acct'g")])})
    >>> rel.rows[0]["address"].tag_value("source")
    "acct'g"
    """

    def __init__(
        self,
        schema: RelationSchema,
        tag_schema: Optional[TagSchema] = None,
        rows: Iterable[Mapping[str, Any]] = (),
    ) -> None:
        self.schema = schema
        self.tag_schema = tag_schema or TagSchema()
        self.tag_schema.check_against(schema)
        self._rows: list[TaggedRow] = []
        #: Mutation counter; bumped by every insert/delete so the read
        #: snapshot can detect staleness cheaply.
        self._version = 0
        #: Rewrite counter, mirroring ``Relation``: bumped by every
        #: write that is not an append.  Derived per-row state (the tag
        #: store, value arrays, score blocks) is keyed by it plus the
        #: row count, so an append extends that state.
        self._epoch = 0
        self._derived = Carried()
        #: Partitioning state, mirroring ``Relation``: the flat
        #: ``_rows`` list stays canonical; shards are TaggedRelations
        #: (one per bucket), each a subsequence of the flat list with
        #: its own derived state and flat-order sequence numbers.
        self._partition_spec: Optional[PartitionSpec] = None
        self._partitions: list["TaggedRelation"] = []
        self._partition_position: Optional[int] = None
        self._seqs = array("q")
        self._next_seq = 0
        self._partition_layout_version = 0
        self._dirty_partitions: set[int] = set()
        #: Mutation lock + frozen flag, mirroring ``Relation`` (see
        #: DESIGN.md §15 for the locking discipline).
        self._lock = threading.RLock()
        self._snapshot_cache = Versioned()
        self._frozen = False
        for row in rows:
            self.insert(row)

    # -- mutation -------------------------------------------------------------

    def _require_mutable(self) -> None:
        if self._frozen:
            raise SnapshotWriteError(
                f"tagged relation {self.schema.name!r} is a frozen read "
                f"snapshot; write to the live relation instead"
            )

    def insert(self, cells: Mapping[str, QualityCell | Any] | TaggedRow) -> TaggedRow:
        """Insert a row of cells (validated against both schemas)."""
        if isinstance(cells, TaggedRow):
            row = TaggedRow(self.schema, self.tag_schema, cells.cells_dict())
        else:
            row = TaggedRow(self.schema, self.tag_schema, cells)
        with self._lock:
            self._require_mutable()
            self._rows.append(row)
            self._version += 1
            if self._partition_spec is not None:
                self._route_insert(row)
        return row

    def _insert_validated(self, row: TaggedRow) -> TaggedRow:
        """Append a row already valid under both schemas (fast path)."""
        with self._lock:
            self._require_mutable()
            self._rows.append(row)
            self._version += 1
            if self._partition_spec is not None:
                self._route_insert(row)
        return row

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Insert many rows; returns the count."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete(self, predicate: Callable[[TaggedRow], bool]) -> int:
        """Delete rows matching ``predicate``; returns the count removed."""
        with self._lock:
            self._require_mutable()
            if self._partition_spec is None:
                before = len(self._rows)
                self._replace_rows(
                    [r for r in self._rows if not predicate(r)]
                )
                return before - len(self._rows)
            dead: set[int] = set()
            kept: list[TaggedRow] = []
            for row in self._rows:
                if predicate(row):
                    dead.add(id(row))
                else:
                    kept.append(row)
            removed = len(self._rows) - len(kept)
            self._rows = kept
            self._version += 1
            self._epoch += 1
            if not dead:
                return 0
            for bucket, shard in enumerate(self._partitions):
                if any(id(row) in dead for row in shard._rows):
                    shard._set_shard_rows(
                        [
                            (seq, row)
                            for seq, row in zip(shard._seqs, shard._rows)
                            if id(row) not in dead
                        ]
                    )
                    self._dirty_partitions.add(bucket)
            return removed

    def _replace_rows(self, rows: list[TaggedRow]) -> None:
        """Swap in a new backing row list (trusted; bumps the version
        and the epoch), mirroring ``Relation._replace_rows``."""
        with self._lock:
            self._require_mutable()
            self._rows = rows
            self._version += 1
            self._epoch += 1
            if self._partition_spec is not None:
                self._redistribute()

    @property
    def version(self) -> int:
        """Monotonic mutation counter (for cache invalidation)."""
        return self._version

    # -- partitioning ----------------------------------------------------------

    def repartition(self, spec: Optional[PartitionSpec]) -> "TaggedRelation":
        """(Re)declare the partition layout; ``None`` drops partitioning.

        Mirrors :meth:`repro.relational.relation.Relation.repartition`:
        rows route on the *cell value* of the partition column, shards
        share both schema objects, and cached plans that read the old
        layout replan.
        """
        position: Optional[int] = None
        if spec is not None:
            position = self.schema.index_of(spec.column)
        with self._lock:
            self._require_mutable()
            self._partition_spec = spec
            self._partition_position = position
            self._partition_layout_version += 1
            if spec is None:
                self._partitions = []
                self._dirty_partitions = set()
                return self
            self._partitions = [
                TaggedRelation(self.schema, self.tag_schema)
                for _ in range(spec.count)
            ]
            self._redistribute()
        return self

    def _route_insert(self, row: TaggedRow) -> None:
        bucket = self._partition_spec.bucket_of(
            row.cells[self._partition_position].value
        )
        shard = self._partitions[bucket]
        with shard._lock:
            shard._rows.append(row)
            shard._seqs.append(self._next_seq)
            shard._version += 1
        self._next_seq += 1
        self._dirty_partitions.add(bucket)

    def _redistribute(self) -> None:
        spec = self._partition_spec
        position = self._partition_position
        grouped: list[list[tuple[int, TaggedRow]]] = [
            [] for _ in range(spec.count)
        ]
        for seq, row in enumerate(self._rows):
            grouped[spec.bucket_of(row.cells[position].value)].append(
                (seq, row)
            )
        for shard, entries in zip(self._partitions, grouped):
            shard._set_shard_rows(entries)
        self._next_seq = len(self._rows)
        self._dirty_partitions = set(range(spec.count))

    def _set_shard_rows(self, entries: list[tuple[int, TaggedRow]]) -> None:
        """Replace a shard's rows with ``(sequence number, row)`` pairs
        in ascending sequence order (a rewrite: bumps the epoch)."""
        with self._lock:
            self._seqs = array("q", [seq for seq, _ in entries])
            self._replace_rows([row for _, row in entries])

    def row_sequence(self) -> array:
        """A shard's flat-order sequence numbers, aligned with
        :meth:`row_batch` and ascending (treat as read-only)."""
        return self._seqs

    @property
    def partition_spec(self) -> Optional[PartitionSpec]:
        """The declared layout, or ``None`` when unpartitioned."""
        return self._partition_spec

    @property
    def partition_layout_version(self) -> int:
        """Bumped by every :meth:`repartition` (gates snapshots and cached plans)."""
        return self._partition_layout_version

    @property
    def dirty_partitions(self) -> frozenset[int]:
        """Buckets mutated since :meth:`mark_partitions_clean`."""
        return frozenset(self._dirty_partitions)

    def mark_partitions_clean(self) -> None:
        """Reset dirty tracking (called after a successful save)."""
        self._dirty_partitions.clear()

    def partition(self, bucket: int) -> "TaggedRelation":
        """The shard relation backing one bucket."""
        return self._partitions[bucket]

    def partitions(self) -> list["TaggedRelation"]:
        """All shard relations, in bucket order."""
        return list(self._partitions)

    def columnar_store(self):
        """The relation's columnar tag store, built lazily and cached.

        The store is cached against the epoch and the row count
        (:class:`~repro.relational.versioned.Carried`), so query paths
        can route indicator-constrained scans through contiguous tag
        arrays without ever reading stale data; after an append the
        next store — this relation's or a later snapshot's — copies the
        last one's arrays and converts only the appended rows.
        """
        # Built under the mutation lock so two sessions racing on a cold
        # cache agree on one store (and neither sees a half-built one).
        return self._derived.fetch("tags", self, self._make_columnar_store)

    def _make_columnar_store(self, base: Any, count: int):
        from repro.tagging.columnar import ColumnarTagStore

        return ColumnarTagStore.from_tagged_relation(self, base, count)

    def value_array(self, position: int) -> list[Any]:
        """One column's cell values, aligned with :meth:`row_batch`.

        Read straight from the cells on first use — one column, not the
        whole tag store — and cached like the tag store, appended rows
        extending a copy of the last array.  Treat as read-only.
        """
        return self._derived.fetch(
            position, self, partial(self._make_value_array, position)
        )

    def _make_value_array(
        self, position: int, base: Optional[list], count: int
    ) -> list[Any]:
        rows = self._rows
        kept = 0 if base is None else min(count, len(rows))
        fresh = [row._cells[position].value for row in rows[kept:]]
        return base[:kept] + fresh if kept else fresh

    # -- snapshot reads --------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True for read snapshots, which reject every mutation."""
        return self._frozen

    def read_snapshot(self) -> "TaggedRelation":
        """A frozen copy-on-write snapshot of the current rows.

        Mirrors :meth:`repro.relational.relation.Relation.read_snapshot`:
        the snapshot shares this relation's schema and tag-schema
        objects and its immutable ``TaggedRow`` objects, is cached
        until the next mutation, carries the partition layout over with
        per-shard snapshot reuse, shares the family of derived state
        (so after an append it extends the last generation's tag
        store, value arrays and score blocks), and rejects every
        mutation with :class:`~repro.errors.SnapshotWriteError`.
        """
        with self._lock:
            if self._frozen:
                return self
            token = (self._version, self._partition_layout_version)
            cached = self._snapshot_cache.get(token)
            if cached is not None:
                return cached
            snapshot = TaggedRelation(self.schema, self.tag_schema)
            snapshot._rows = list(self._rows)
            snapshot._seqs = self._seqs[:]
            snapshot._epoch = self._epoch
            snapshot._derived = self._derived.successor()
            snapshot._partition_spec = self._partition_spec
            snapshot._partition_position = self._partition_position
            snapshot._partition_layout_version = (
                self._partition_layout_version
            )
            if self._partition_spec is not None:
                snapshot._partitions = [
                    shard.read_snapshot() for shard in self._partitions
                ]
            snapshot._frozen = True
            return self._snapshot_cache.put(token, snapshot)

    # -- access -------------------------------------------------------------------

    @property
    def rows(self) -> tuple[TaggedRow, ...]:
        return tuple(self._rows)

    def row_batch(self) -> list[TaggedRow]:
        """The backing row list, *not* a copy (treat as read-only)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TaggedRow]:
        return iter(self._rows)

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        tag_schema: TagSchema,
        rows: Iterable[TaggedRow],
    ) -> "TaggedRelation":
        """Trusted bulk constructor: ``rows`` must already conform to
        both schemas (validated values and tags, matching column order)."""
        relation = cls(schema, tag_schema)
        relation._rows = list(rows)
        return relation

    def empty_like(self) -> "TaggedRelation":
        """An empty tagged relation with the same schemas."""
        return TaggedRelation(self.schema, self.tag_schema)

    def copy(self) -> "TaggedRelation":
        fresh = self.empty_like()
        fresh._replace_rows(list(self._rows))
        if self._partition_spec is not None:
            fresh.repartition(self._partition_spec)
        return fresh

    # -- conversions ----------------------------------------------------------------

    def values_relation(self) -> Relation:
        """Strip all tags, producing a plain relation of the values."""
        return Relation.from_rows(
            self.schema,
            (
                Row._from_validated(self.schema, row.values_tuple())
                for row in self._rows
            ),
        )

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        tag_schema: Optional[TagSchema] = None,
        tagger: Optional[Callable[[str, Any], Iterable[IndicatorValue]]] = None,
    ) -> "TaggedRelation":
        """Lift a plain relation into a tagged one.

        ``tagger(column, value)`` supplies each cell's initial tags; if
        omitted, cells start untagged (and the tag schema must not
        *require* indicators on any column).
        """
        tagged = cls(relation.schema, tag_schema)
        for row in relation:
            cells: dict[str, QualityCell] = {}
            for name in relation.schema.column_names:
                value = row[name]
                tags = list(tagger(name, value)) if tagger else []
                cells[name] = QualityCell(value, tags)
            tagged.insert(cells)
        return tagged

    # -- rendering ---------------------------------------------------------------------

    def render(
        self,
        max_rows: Optional[int] = None,
        title: Optional[str] = None,
        show_tags: bool = True,
        date_format: str = "%m-%d-%y",
    ) -> str:
        """Render in the paper's Table-2 style (tags beneath values)."""
        names = list(self.schema.column_names)
        shown = self._rows if max_rows is None else self._rows[:max_rows]
        grid: list[list[str]] = [names]
        for row in shown:
            if show_tags:
                grid.append([row[n].render(date_format) for n in names])
            else:
                value_row = []
                for n in names:
                    v = row[n].value
                    value_row.append("" if v is None else str(v))
                grid.append(value_row)
        widths = [max(len(cell) for cell in col) for col in zip(*grid)]
        lines = []
        if title:
            lines.append(title)
        lines.append(
            " | ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip()
        )
        lines.append("-+-".join("-" * w for w in widths))
        for cells in grid[1:]:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            )
        if max_rows is not None and len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TaggedRelation({self.schema.name}, {len(self._rows)} rows)"

    # -- statistics -----------------------------------------------------------------------

    def tag_count(self) -> int:
        """Total number of indicator values stored across all cells."""
        return sum(len(cell.tags) for row in self._rows for cell in row.cells)

    def tag_coverage(self, column: str, indicator: str) -> float:
        """Fraction of ``column`` cells carrying ``indicator`` (0 if empty)."""
        self.schema.column(column)
        if not self._rows:
            return 0.0
        tagged = sum(1 for row in self._rows if row[column].has_tag(indicator))
        return tagged / len(self._rows)
