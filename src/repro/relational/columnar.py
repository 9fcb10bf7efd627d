"""Columnar value storage: array-per-column mirrors of base relations.

The row store (:class:`~repro.relational.relation.Relation`) keeps one
``Row`` object per tuple — the right shape for OLTP-style mutation and
for operators that genuinely need rows.  Scan-heavy query pipelines
want the transpose: one contiguous Python list per *column*, so a
filter touches a single array instead of calling a getter closure on
every row object, and rows are materialized late, only for the
survivors.

:class:`ColumnarRelation` is that transpose, kept as a side-table of a
live relation exactly like the columnar *tag* store
(:class:`~repro.tagging.columnar.ColumnarTagStore`) is for tags: built
lazily through :meth:`Relation.columnar_store`, cached against the
relation's epoch and row count (extended from the previous store after
an append), and maintained through the shared array codec
(:mod:`repro.relational.arrays`) on store-mediated appends and
deletes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import SchemaError
from repro.obs import metrics as _obs_metrics
from repro.relational import arrays as _codec
from repro.relational.relation import Relation, Row
from repro.relational.schema import RelationSchema


def _record_build(rows: int) -> None:
    """Report one store build into the global registry (enabled only)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "columnar.relation_builds",
        "ColumnarRelation stores built from row data",
    ).inc()
    registry.counter(
        "columnar.relation_rows_transposed",
        "rows transposed into column arrays",
    ).inc(rows)


class ColumnarRelation:
    """Aligned per-column value arrays over a backing relation.

    The arrays are position-aligned with ``relation.row_batch()``: row
    ``i``'s value for column ``c`` is ``column(c)[i]``.  Mutate through
    the store (:meth:`append` / :meth:`delete`) to keep that alignment;
    mutating the relation directly is detected by :meth:`check_aligned`
    — and by the cache in :meth:`Relation.columnar_store`, which
    derives a new store.
    """

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._arrays: dict[str, list[Any]] = {
            name: [] for name in relation.schema.column_names
        }

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        base: Optional["ColumnarRelation"] = None,
        count: int = 0,
    ) -> "ColumnarRelation":
        """Transpose a row store into column arrays (one pass).

        ``base``, when given, is a store built for the first ``count``
        rows of the same epoch of ``relation``
        (:class:`~repro.relational.versioned.Carried`): its arrays are
        copied up to the rows held now and only the rows after them are
        transposed.  ``base`` itself is never modified.
        """
        store = cls(relation)
        rows = relation.row_batch()
        kept = 0 if base is None else min(count, len(rows))
        names = relation.schema.column_names
        fresh = rows[kept:] if kept else rows
        columns = zip(*(r.values_tuple() for r in fresh)) if fresh else ()
        for name, values in zip(names, columns):
            store._arrays[name] = list(values)
        if kept:
            for name in names:
                store._arrays[name] = (
                    base._arrays[name][:kept] + store._arrays[name]
                )
        if _obs_metrics.enabled():
            _record_build(len(fresh))
        return store

    # -- access ----------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        return self.relation.schema

    def __len__(self) -> int:
        return len(self.relation)

    def column(self, name: str) -> list[Any]:
        """One column's aligned value array (treat as read-only)."""
        try:
            return self._arrays[name]
        except KeyError:
            self.relation.schema.column(name)  # raises UnknownColumnError
            raise  # pragma: no cover - schema.column always raises first

    def column_arrays(self) -> list[list[Any]]:
        """Every column array, in schema order."""
        return [
            self._arrays[name] for name in self.relation.schema.column_names
        ]

    # -- mutation --------------------------------------------------------------

    def append(self, row: Row | dict[str, Any]) -> Row:
        """Insert into the backing relation and extend every array."""
        self.check_aligned()
        inserted = self.relation.insert(row)
        for array, value in zip(
            self.column_arrays(), inserted.values_tuple()
        ):
            array.append(value)
        self._refresh_cache()
        return inserted

    def delete(self, predicate: Callable[[Row], bool]) -> int:
        """Delete matching rows; every array drops the same positions."""
        self.check_aligned()
        rows = self.relation.row_batch()
        keep = _codec.keep_indices(rows, predicate)
        removed = len(rows) - len(keep)
        if not removed:
            return 0
        self.relation._replace_rows(_codec.gather(rows, keep))
        _codec.compact_in_place(self._arrays, keep)
        self._refresh_cache()
        return removed

    def _refresh_cache(self) -> None:
        """Re-validate the owner's cache after a store-mediated mutation.

        Mutating through the store keeps the arrays aligned, so when
        this store *is* the relation's cached columnar store, the cache
        entry is moved to the relation's rows now instead of being
        derived again on the next query.  Only a live relation's store
        can be mutated, and a live relation never publishes its stores
        to its snapshots, so no other relation reads these arrays.
        """
        self.relation._derived.restamp("columns", self, self.relation)

    def check_aligned(self) -> None:
        """Raise if the backing relation's length diverges from any array."""
        divergence = _codec.misaligned(len(self.relation), self._arrays)
        if divergence is not None:
            name, length = divergence
            raise SchemaError(
                f"columnar store is out of sync with its backing relation "
                f"{self.relation.schema.name!r}: relation has "
                f"{len(self.relation)} rows but column array {name!r} has "
                f"{length} entries; mutate through the store "
                f"(append/delete), not the relation directly"
            )

    # -- materialization -------------------------------------------------------

    def materialize(
        self, indices: Optional[Sequence[int]] = None
    ) -> list[Row]:
        """Rows for the selected positions (all rows when ``None``).

        The late-materialization step: ``Row`` objects are built only
        here, from already-validated column values, via the trusted
        constructor.
        """
        schema = self.relation.schema
        make = Row._from_validated
        columns = self.column_arrays()
        if indices is None:
            return [make(schema, values) for values in zip(*columns)]
        gathered = [_codec.gather(array, indices) for array in columns]
        return [make(schema, values) for values in zip(*gathered)]

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation({self.relation.schema.name}, "
            f"{len(self.relation)} rows, {len(self._arrays)} column arrays)"
        )
