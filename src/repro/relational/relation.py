"""Relations (tuple stores) and rows.

A :class:`Relation` is a multiset of typed rows conforming to a
:class:`~repro.relational.schema.RelationSchema`.  The engine uses bag
semantics by default (as SQL does); :func:`repro.relational.algebra.distinct`
converts to set semantics explicitly.  Its storage — and a tagged
relation's (:class:`~repro.tagging.relation.TaggedRelation`) — is the
:class:`RowStore` both kinds share.
"""

from __future__ import annotations

import threading
from array import array
from itertools import compress, repeat
from operator import is_, is_not, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import SchemaError, SnapshotWriteError, UnknownColumnError
from repro.obs import metrics as _obs_metrics
from repro.relational.partition import PartitionSpec
from repro.relational.schema import RelationSchema
from repro.relational.versioned import Carried, Versioned, carry


class Row(Mapping[str, Any]):
    """An immutable, schema-ordered row of a relation.

    Rows behave as read-only mappings from column name to value and also
    support positional access through :meth:`at`.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: RelationSchema, values: dict[str, Any]) -> None:
        self._schema = schema
        validated = schema.validate_values(values)
        self._values = tuple(validated[name] for name in schema.column_names)

    @classmethod
    def _from_validated(
        cls, schema: RelationSchema, values: tuple[Any, ...]
    ) -> "Row":
        """Trusted constructor: ``values`` must already be validated
        members of the schema's domains, in schema order.  Used by the
        algebra's fast path to move rows without re-validation."""
        row = object.__new__(cls)
        row._schema = schema
        row._values = values
        return row

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[self._schema._positions[name]]
        except KeyError:
            raise UnknownColumnError(
                f"row of {self._schema.name!r} has no column {name!r}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.column_names)

    def __len__(self) -> int:
        return len(self._values)

    # -- extras ----------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    def at(self, index: int) -> Any:
        """Positional access to the row's values."""
        return self._values[index]

    def values_tuple(self) -> tuple[Any, ...]:
        """The row's values in schema order, as a hashable tuple."""
        return self._values

    def to_dict(self) -> dict[str, Any]:
        """A plain dict copy of the row."""
        return dict(zip(self._schema.column_names, self._values))

    def replace(self, **updates: Any) -> "Row":
        """Return a new row with some values replaced."""
        data = self.to_dict()
        data.update(updates)
        return Row(self._schema, data)

    def key_tuple(self) -> tuple[Any, ...]:
        """The values of the schema's primary-key columns.

        Raises :class:`SchemaError` if the schema declares no key.
        """
        if self._schema.key is None:
            raise SchemaError(
                f"relation {self._schema.name!r} declares no primary key"
            )
        return tuple(self[k] for k in self._schema.key)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return (
                self._schema.column_names == other._schema.column_names
                and self._values == other._values
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema.column_names, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._schema.column_names, self._values)
        )
        return f"Row({inner})"


class RowStore:
    """The row storage a plain and a tagged relation share.

    A relation kind differs from another only in its row type, so every
    storage mechanic lives here once: the flat row list, the mutation
    counter and rewrite epoch, the carried derived state, the lock and
    frozen flag, partitioning, read snapshots and derived arrays.  A kind
    supplies three hooks:

    - :meth:`_prepare` validates one incoming row into the kind's row
      type;
    - :meth:`_values_at` reads one column's values for a run of rows
      (routing, redistribution and value arrays all read through it);
    - :meth:`empty_like` makes an empty relation of the same kind and
      schemas (shards and snapshots are built from it).
    """

    def __init__(self, schema: RelationSchema, rows: Iterable[Any] = ()) -> None:
        self.schema = schema
        self._rows: list = []
        #: Mutation counter; bumped by every write so the read snapshot
        #: can detect staleness cheaply.
        self._version = 0
        #: Rewrite counter: bumped by every write that is not an append
        #: (delete, update, ``_replace_rows``).  Derived per-row state
        #: (value and tag arrays, order indexes, score blocks) is keyed by it
        #: plus the row count, so an append extends that state instead
        #: of rebuilding it.
        self._epoch = 0
        self._derived = Carried()
        #: Partitioning state.  The flat ``_rows`` list stays canonical
        #: (all read accessors are partition-oblivious); ``_partitions``
        #: holds one shard relation of the same kind per bucket, each
        #: with its own derived state, so a write to one partition never
        #: invalidates the other shards' arrays.  Each shard's rows are
        #: a subsequence of the flat list, and ``_seqs`` (on a shard)
        #: holds each row's ascending flat-order sequence number, drawn
        #: from the parent's ``_next_seq``, so multi-shard scans can
        #: merge back into the flat order.
        self._partition_spec: Optional[PartitionSpec] = None
        self._partitions: list = []
        self._partition_position: Optional[int] = None
        self._seqs = array("q")
        self._next_seq = 0
        #: Bumped by :meth:`repartition`; gates the read snapshot and
        #: the cached plans that read the layout.
        self._partition_layout_version = 0
        self._dirty_partitions: set[int] = set()
        #: Mutation lock.  Every write path (and every derived-state
        #: build) runs under it so concurrent sessions never lose
        #: a version bump or observe a half-applied mutation; see
        #: DESIGN.md §15 for the locking discipline.  Reentrant because
        #: writers compose (``delete`` → ``_replace_rows``).
        self._lock = threading.RLock()
        #: Version-gated read snapshot (see :meth:`read_snapshot`).
        self._snapshot_cache = Versioned()
        #: Frozen relations (read snapshots) reject every mutation.
        self._frozen = False
        for row in rows:
            self.insert(row)

    # -- hooks -------------------------------------------------------------------

    def _prepare(self, row: Any) -> Any:
        """Validate one incoming row into this kind's row type."""
        raise NotImplementedError

    @staticmethod
    def _values_at(rows: Sequence[Any], position: int) -> list[Any]:
        """The values of column ``position`` for each of ``rows``."""
        raise NotImplementedError

    def empty_like(self) -> Any:
        """An empty relation of the same kind and schemas."""
        raise NotImplementedError

    # -- mutation ---------------------------------------------------------------

    def _require_mutable(self) -> None:
        if self._frozen:
            raise SnapshotWriteError(
                f"relation {self.schema.name!r} is a frozen read snapshot; "
                f"write to the live relation instead"
            )

    def insert(self, row: Any) -> Any:
        """Insert a row (validated against the schema) and return it."""
        return self._insert_validated(self._prepare(row))

    def _insert_validated(self, row: Any) -> Any:
        """Append a row that is already valid under this schema.

        Internal fast path for the algebra: skips the validation and
        coercion :meth:`insert` would redo on values that came out of
        another relation with the same domains."""
        with self._lock:
            self._require_mutable()
            self._rows.append(row)
            self._version += 1
            if self._partition_spec is not None:
                self._route_insert(row)
        return row

    def insert_many(self, rows: Iterable[Any]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def _replace_rows(
        self, rows: list, seqs: Optional[Sequence[int]] = None
    ) -> None:
        """Swap in a new backing row list (trusted; bumps the version
        and the epoch).

        Every wholesale row replacement must flow through here so
        derived caches (value and tag arrays, the read snapshot)
        observe the mutation.  ``seqs``, ascending and aligned with
        ``rows``, are the rows' flat-order sequence numbers on a
        partitioned relation (default: their positions).
        """
        with self._lock:
            self._require_mutable()
            self._rows = rows
            self._version += 1
            self._epoch += 1
            if self._partition_spec is not None:
                self._redistribute(seqs)

    def delete(self, predicate: Callable[[Any], bool]) -> int:
        """Delete all rows matching ``predicate``; return the count removed.

        A delete that removes nothing still counts as a mutation (the
        version moves) but keeps the rewrite epoch, so derived state
        built over the rows stays valid.
        """
        with self._lock:
            self._require_mutable()
            # One predicate pass over the canonical flat list.
            dead: set[int] = set()
            kept: list = []
            for row in self._rows:
                if predicate(row):
                    dead.add(id(row))
                else:
                    kept.append(row)
            removed = len(self._rows) - len(kept)
            if not removed:
                self._version += 1
                return 0
            if self._partition_spec is None:
                self._replace_rows(kept)
                return removed
            # Partitioned: surgical per-shard removal, so untouched
            # partitions keep their derived state (and stay clean for
            # incremental saves).
            self._rows = kept
            self._version += 1
            self._epoch += 1
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

    @property
    def version(self) -> int:
        """Monotonic mutation counter (for cache invalidation)."""
        return self._version

    # -- partitioning ----------------------------------------------------------

    def repartition(self, spec: Optional[PartitionSpec]) -> "RowStore":
        """(Re)declare the partition layout; ``None`` drops partitioning.

        Rows are redistributed into ``spec.count`` shard relations (one
        per bucket, all sharing this relation's schema objects) by the
        value of the partition column, and every bucket is marked dirty.
        Bumps :attr:`partition_layout_version`; cached plans that read
        the old layout replan.
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
            self._partitions = [self.empty_like() for _ in range(spec.count)]
            self._redistribute()
        return self

    def _route_insert(self, row: Any) -> None:
        """Append an already-inserted row to its shard (an append there
        too: the shard's epoch stays)."""
        (value,) = self._values_at((row,), self._partition_position)
        bucket = self._partition_spec.bucket_of(value)
        shard = self._partitions[bucket]
        with shard._lock:
            shard._rows.append(row)
            shard._seqs.append(self._next_seq)
            shard._version += 1
        self._next_seq += 1
        self._dirty_partitions.add(bucket)

    def _redistribute(self, seqs: Optional[Sequence[int]] = None) -> None:
        """Rebuild every shard from the canonical flat row list, the rows
        numbered by ``seqs`` (default: their positions)."""
        spec = self._partition_spec
        rows = self._rows
        if seqs is None:
            seqs = range(len(rows))
        bucket_of = spec.bucket_of
        grouped: list[list[tuple[int, Any]]] = [[] for _ in range(spec.count)]
        values = self._values_at(rows, self._partition_position)
        for entry, value in zip(zip(seqs, rows), values):
            grouped[bucket_of(value)].append(entry)
        for shard, entries in zip(self._partitions, grouped):
            shard._set_shard_rows(entries)
        self._next_seq = seqs[-1] + 1 if rows else 0
        self._dirty_partitions = set(range(spec.count))

    def _set_shard_rows(self, entries: list[tuple[int, Any]]) -> None:
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

    def partition(self, bucket: int) -> Any:
        """The shard relation backing one bucket."""
        return self._partitions[bucket]

    def partitions(self) -> list:
        """All shard relations, in bucket order."""
        return list(self._partitions)

    # -- derived arrays ------------------------------------------------------------

    def value_array(self, position: int) -> list[Any]:
        """One column's values, aligned with :meth:`row_batch` (see
        :meth:`_derived_array`).  Treat as read-only."""
        values_at = self._values_at
        return self._derived_array(position, lambda rows: values_at(rows, position))

    def _derived_array(self, key: Any, derive: Callable[[list], list]) -> list:
        """The array ``derive`` reads from the rows, cached under ``key``.

        The one builder of per-row arrays (value arrays; a tagged
        relation's tag arrays).  Read on first use and cached against
        the epoch and the row count
        (:class:`~repro.relational.versioned.Carried`): after an append
        the next array — this relation's or a later snapshot's — copies
        the last one and ``derive`` reads only the appended rows
        (:func:`~repro.relational.versioned.carry`).  Each build counts
        into ``relation.value_array_builds`` and
        ``relation.value_array_rows``.
        """

        def counted(rows: list) -> list:
            if _obs_metrics.enabled():
                _record_array_build(len(rows))
            return derive(rows)

        return self._derived.fetch(
            key, self, lambda base, count: carry(base, count, self._rows, counted)
        )

    def order_index(self, position: int, descending: bool) -> Optional[array]:
        """Column ``position``'s positions in key order, or None.

        The positions of :meth:`value_array`, sorted by the engine's
        None-safe ``(not None, value)`` key — ascending, or descending —
        with ties in ascending position: one ``array('q')`` per
        direction (treat as read-only).  It is carried like the value
        array: after an append the next index — this relation's or a
        later snapshot's — copies the last one and bisect-inserts only
        the appended positions (past 1/16 of the rows appended it sorts
        again), and a snapshot older than the family's index keeps the
        positions below its own length.

        An index is sorted from nothing only in a rewrite epoch that
        asked for it before: the first ask answers None (a caller then
        reads without the index), so a rewrite before every read costs
        no sort.  An epoch whose values do not compare answers None too.
        """
        key = ("order", position, descending)
        derived = self._derived
        if not derived.holds(key, self):
            asked = ("asked", key)
            if not derived.holds(asked, self):
                derived.fetch(asked, self, lambda base, count: True)
                return None
        return derived.fetch(
            key,
            self,
            lambda base, count: _ordered_positions(
                self.value_array(position), base, count, descending
            ),
        )

    # -- snapshot reads --------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True for read snapshots, which reject every mutation."""
        return self._frozen

    def read_snapshot(self) -> Any:
        """A frozen copy-on-write snapshot of the current rows.

        The snapshot is a relation of the same kind sharing this
        relation's schema objects and its immutable row objects — the
        copy is a pointer-list copy, never a row copy — so queries run
        against it exactly as against the live relation, but no later
        write is ever visible through it.  Snapshots are *frozen*:
        mutating one raises :class:`~repro.errors.SnapshotWriteError`.

        Copy-on-write is version-gated: the snapshot is cached and
        reused until the next mutation, so pinning is O(1) on an
        unchanged relation.  Partition layouts carry over with
        per-shard snapshot reuse — a write to one bucket rebuilds only
        that shard's snapshot, and every untouched shard keeps its
        (lazily built) derived state across snapshot generations.  A
        new snapshot shares its relation's family of derived state
        (:class:`~repro.relational.versioned.Carried`), so after an
        append it extends the previous generation's value and tag
        arrays and score blocks.
        """
        with self._lock:
            if self._frozen:
                return self
            token = (self._version, self._partition_layout_version)
            cached = self._snapshot_cache.get(token)
            if cached is not None:
                return cached
            snapshot = self.empty_like()
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

    def copy(self) -> Any:
        """A shallow copy (rows are immutable, so this is a full copy)."""
        fresh = self.empty_like()
        if self._partition_spec is not None:
            fresh.repartition(self._partition_spec)
        fresh._replace_rows(list(self._rows))
        return fresh

    # -- access -------------------------------------------------------------------

    @property
    def rows(self) -> tuple:
        """All rows, in insertion order (immutable snapshot)."""
        return tuple(self._rows)

    def row_batch(self) -> list:
        """The backing row list, *not* a copy (treat as read-only).

        Batch execution paths iterate relations many times; this avoids
        the per-call tuple copy :attr:`rows` makes.  Callers must not
        mutate the returned list.
        """
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.schema.name}, {len(self._rows)} rows)"


def _ordered_positions(
    values: list, base: Optional[array], count: int, descending: bool
) -> Optional[array]:
    """The order index of ``values`` (see :meth:`RowStore.order_index`),
    carried from ``base``, the index of their first ``count`` values
    (``None`` with ``count`` 0: none to start from; ``None`` with rows:
    those values did not compare, and the epoch's later ones still hold
    them)."""
    rows = len(values)
    if base is None and count:
        return None
    try:
        # Past 1/16 of the rows appended, one C-level sort beats that
        # many Python-level bisects and array inserts.
        if base is None or (rows - count) * 16 > rows:
            return _sorted_positions(values, descending)
        if count >= rows:
            return base if count == rows else array(
                "q", compress(base, map(rows.__gt__, base))
            )
        index = base[:]
        for position in range(count, rows):
            index.insert(
                _insertion_point(index, values, position, descending), position
            )
        return index
    except TypeError:
        return None


def _sorted_positions(values: list, descending: bool) -> array:
    """Every position of ``values`` in key order, sorted at C level: the
    non-NULL positions by value, the NULL positions (whose key sorts
    lowest) before them ascending and after them descending."""
    positions = range(len(values))
    if None not in values:
        return array(
            "q", sorted(positions, key=values.__getitem__, reverse=descending)
        )
    nulls = list(compress(positions, map(is_, values, repeat(None))))
    present = sorted(
        compress(positions, map(is_not, values, repeat(None))),
        key=values.__getitem__,
        reverse=descending,
    )
    return array("q", present + nulls if descending else nulls + present)


def _insertion_point(
    index: array, values: list, position: int, descending: bool
) -> int:
    """Where ``position``, larger than every position in ``index``, goes:
    after each position whose key sorts before its key or ties with it."""
    value = values[position]
    target = (value is not None, value)
    lo, hi = 0, len(index)
    while lo < hi:
        mid = (lo + hi) // 2
        probe = values[index[mid]]
        key = (probe is not None, probe)
        if (key < target) if descending else (target < key):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _record_array_build(rows: int) -> None:
    """Report one derived-array build into the global registry (enabled only)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "relation.value_array_builds",
        "value and tag arrays built or extended from row data",
    ).inc()
    registry.counter(
        "relation.value_array_rows", "rows read into value and tag arrays"
    ).inc(rows)


class Relation(RowStore):
    """A named multiset of rows over a fixed schema.

    Relations support mutation (``insert``/``delete``/``update``) so the
    catalog and transaction manager can manage live tables, while the
    algebra in :mod:`repro.relational.algebra` treats them as values and
    always returns fresh relations.
    """

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dicts(
        cls, schema: RelationSchema, dicts: Iterable[dict[str, Any]]
    ) -> "Relation":
        """Build a relation from plain dictionaries."""
        return cls(schema, dicts)

    @classmethod
    def from_tuples(
        cls, schema: RelationSchema, tuples: Iterable[Sequence[Any]]
    ) -> "Relation":
        """Build a relation from positional value sequences."""
        names = schema.column_names
        rows = []
        for values in tuples:
            if len(values) != len(names):
                raise SchemaError(
                    f"tuple {values!r} has {len(values)} values; "
                    f"schema {schema.name!r} has {len(names)} columns"
                )
            rows.append(dict(zip(names, values)))
        return cls(schema, rows)

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable[Row]
    ) -> "Relation":
        """Trusted bulk constructor: ``rows`` must already conform to
        ``schema`` (validated values, matching column order).  The
        algebra operators use this to move already-validated tuples
        without re-validation or dict round-trips."""
        relation = cls(schema)
        relation._replace_rows(list(rows))
        return relation

    def empty_like(self) -> "Relation":
        """An empty relation with the same schema."""
        return Relation(self.schema)

    # -- storage hooks -----------------------------------------------------------

    def _prepare(self, row: Row | dict[str, Any]) -> Row:
        if isinstance(row, Row):
            if row.schema.column_names != self.schema.column_names:
                # Re-validate under our schema (supports cross-schema moves).
                return Row(self.schema, row.to_dict())
            return row
        return Row(self.schema, dict(row))

    @staticmethod
    def _values_at(rows: Sequence[Row], position: int) -> list[Any]:
        return [row._values[position] for row in rows]

    # -- mutation ---------------------------------------------------------------

    def update(
        self,
        predicate: Callable[[Row], bool],
        updater: Callable[[Row], dict[str, Any]],
    ) -> int:
        """Replace matching rows with updated copies; return the count.

        ``updater`` receives the old row and returns a dict of column
        updates applied via :meth:`Row.replace`.  Like :meth:`delete`,
        an update that matches nothing moves the version but keeps the
        rewrite epoch.
        """
        with self._lock:
            self._require_mutable()
            if self._partition_spec is None:
                count = 0
                new_rows = []
                for row in self._rows:
                    if predicate(row):
                        new_rows.append(row.replace(**updater(row)))
                        count += 1
                    else:
                        new_rows.append(row)
                if count:
                    self._replace_rows(new_rows)
                else:
                    self._version += 1
                return count
            # Partitioned: replace in the flat list, then patch only the
            # shards that held a matching row.  An update that changes
            # the partition-key value moves the row to its new bucket,
            # at the place its sequence number gives it there, so every
            # shard stays a subsequence of the flat order.
            count = 0
            pending: dict[int, list[Row]] = {}
            new_rows: list[Row] = []
            for row in self._rows:
                if predicate(row):
                    fresh = row.replace(**updater(row))
                    pending.setdefault(id(row), []).append(fresh)
                    new_rows.append(fresh)
                    count += 1
                else:
                    new_rows.append(row)
            self._version += 1
            if not count:
                return 0
            self._rows = new_rows
            self._epoch += 1
            spec = self._partition_spec
            position = self._partition_position
            patched: dict[int, list[tuple[int, Row]]] = {}
            moves: list[tuple[int, int, Row]] = []
            for bucket, shard in enumerate(self._partitions):
                if not any(id(row) in pending for row in shard._rows):
                    continue
                kept: list[tuple[int, Row]] = []
                for seq, row in zip(shard._seqs, shard._rows):
                    queue = pending.get(id(row))
                    if not queue:
                        kept.append((seq, row))
                        continue
                    fresh = queue.pop(0)
                    target = spec.bucket_of(fresh.at(position))
                    if target == bucket:
                        kept.append((seq, fresh))
                    else:
                        moves.append((target, seq, fresh))
                patched[bucket] = kept
            for target, seq, fresh in moves:
                if target not in patched:
                    shard = self._partitions[target]
                    patched[target] = list(zip(shard._seqs, shard._rows))
                patched[target].append((seq, fresh))
            for bucket, entries in patched.items():
                entries.sort(key=itemgetter(0))
                self._partitions[bucket]._set_shard_rows(entries)
                self._dirty_partitions.add(bucket)
            return count

    def clear(self) -> None:
        """Remove all rows."""
        self._replace_rows([])

    # -- access -------------------------------------------------------------------

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema columns and same row multiset."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.column_names != other.schema.column_names:
            return False
        return sorted(
            (r.values_tuple() for r in self._rows), key=repr
        ) == sorted((r.values_tuple() for r in other._rows), key=repr)

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row.at(index) for row in self._rows]

    def find(self, predicate: Callable[[Row], bool]) -> Optional[Row]:
        """The first row matching ``predicate``, or None."""
        for row in self._rows:
            if predicate(row):
                return row
        return None

    def lookup(self, **equalities: Any) -> list[Row]:
        """All rows whose named columns equal the given values."""
        for name in equalities:
            self.schema.column(name)
        return [
            row
            for row in self._rows
            if all(row[n] == v for n, v in equalities.items())
        ]

    # -- serialization / display ---------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        """All rows as plain dictionaries."""
        return [row.to_dict() for row in self._rows]

    def to_dict(self) -> dict[str, Any]:
        """Serialize schema and data (values stringified for JSON safety)."""
        return {
            "schema": self.schema.to_dict(),
            "rows": [
                {k: _serialize_value(v) for k, v in row.to_dict().items()}
                for row in self._rows
            ],
        }

    def render(self, max_rows: Optional[int] = None, title: Optional[str] = None) -> str:
        """Render the relation as an aligned text table (paper style).

        >>> from repro.relational.schema import schema
        >>> r = Relation.from_tuples(
        ...     schema("t", [("a", "STR"), ("b", "INT")]), [("x", 1)])
        >>> print(r.render())
        a | b
        --+--
        x | 1
        """
        names = list(self.schema.column_names)
        shown = self._rows if max_rows is None else self._rows[:max_rows]
        grid = [names] + [
            ["" if row[n] is None else str(row[n]) for n in names] for row in shown
        ]
        widths = [max(len(cell) for cell in col) for col in zip(*grid)]
        lines = []
        if title:
            lines.append(title)
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        lines.append(header.rstrip())
        lines.append("-+-".join("-" * w for w in widths))
        for cells in grid[1:]:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            )
        if max_rows is not None and len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)


def _serialize_value(value: Any) -> Any:
    """Make a cell value JSON-friendly."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
