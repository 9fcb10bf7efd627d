"""Columnar tag storage: the alternative to per-cell tag objects.

DESIGN.md §7 calls out the tag-representation choice for ablation: the
attribute-based model stores tags *on* each cell (the
:class:`~repro.tagging.relation.TaggedRelation` design — simple,
self-describing rows, tags travel with cells through the algebra).  The
alternative is a **columnar side-table**: values live in a plain
relation; each (column, indicator) pair owns one aligned array of tag
values.

Trade-offs this module lets the E2 ablation measure:

- pro: indicator-constrained scans touch one contiguous array instead
  of per-cell dictionaries (faster filters, smaller per-tag overhead);
- con: rows are no longer self-describing, tags don't travel through
  row-at-a-time operators, and deletions must keep every array aligned.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import SnapshotWriteError, TagSchemaError, UnknownIndicatorError
from repro.obs import metrics as _obs_metrics
from repro.relational import arrays as _codec
from repro.relational.relation import Relation, Row
from repro.tagging.indicators import TagSchema
from repro.tagging.query import OPERATORS
from repro.tagging.relation import TaggedRelation


def _record_scan(rows_total: int, rows_hit: int) -> None:
    """Report one tag-array scan into the global registry (enabled only)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "columnar.scans", "tag-array scans served by ColumnarTagStore"
    ).inc()
    registry.counter(
        "columnar.rows_scanned", "rows examined by columnar tag scans"
    ).inc(rows_total)
    if rows_total:
        registry.histogram(
            "columnar.scan_selectivity",
            buckets=_obs_metrics.RATIO_BUCKETS,
            description="fraction of rows surviving each columnar tag scan",
        ).observe(rows_hit / rows_total)


def _array_keys(tag_schema: TagSchema) -> list[tuple[str, str]]:
    """The ``(column, indicator)`` pairs a store keeps an array for."""
    return [
        (column, indicator)
        for column in tag_schema.tagged_columns
        for indicator in tag_schema.allowed_for(column)
    ]


class ColumnarTagStore:
    """Plain relation + aligned per-(column, indicator) tag arrays."""

    def __init__(
        self,
        relation: Relation,
        tag_schema: TagSchema,
        arrays: Optional[dict[tuple[str, str], list[Any]]] = None,
    ) -> None:
        tag_schema.check_against(relation.schema)
        self.relation = relation
        self.tag_schema = tag_schema
        # (column, indicator) → list aligned with relation rows; blank
        # unless the caller built them.
        if arrays is None:
            arrays = {
                key: [None] * len(relation) for key in _array_keys(tag_schema)
            }
        self._arrays: dict[tuple[str, str], list[Any]] = arrays

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_tagged_relation(
        cls,
        tagged: TaggedRelation,
        base: Optional["ColumnarTagStore"] = None,
        count: int = 0,
    ) -> "ColumnarTagStore":
        """Convert a per-cell tagged relation into columnar form.

        ``base``, when given, is a store built for the first ``count``
        rows of the same epoch of ``tagged``
        (:class:`~repro.relational.versioned.Carried`): its rows and
        tag arrays are copied up to the rows ``tagged`` holds now, and
        only the rows after them are converted.  ``base`` itself is
        never modified.  The store is derived state and read-only:
        :meth:`append`, :meth:`set_tag` and :meth:`delete` raise
        :class:`~repro.errors.SnapshotWriteError`, and so does every
        write to its backing relation, so it never drifts from
        ``tagged`` and a later generation may extend it.
        """
        rows = tagged.row_batch()
        kept = 0 if base is None else min(count, len(rows))
        fresh_rows = rows[kept:] if kept else rows
        schema = tagged.schema
        tag_schema = tagged.tag_schema
        make = Row._from_validated
        plain = [make(schema, row.values_tuple()) for row in fresh_rows]
        arrays = {
            key: [None] * len(plain) for key in _array_keys(tag_schema)
        }
        positions = [
            (schema.index_of(column), column)
            for column in tag_schema.tagged_columns
        ]
        for row_index, row in enumerate(fresh_rows):
            cells = row._cells
            for position, column in positions:
                for tag in cells[position].tags:
                    arrays[(column, tag.name)][row_index] = tag.value
        if kept:
            plain = base.relation.row_batch()[:kept] + plain
            arrays = {
                key: base._arrays[key][:kept] + array
                for key, array in arrays.items()
            }
        relation = Relation(schema)
        relation._replace_rows(plain)
        relation._frozen = True
        return cls(relation, tag_schema, arrays)

    def to_tagged_relation(self) -> TaggedRelation:
        """Convert back to per-cell representation (round-trip)."""
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import IndicatorValue

        tagged = TaggedRelation(self.relation.schema, self.tag_schema)
        for row_index, row in enumerate(self.relation):
            cells: dict[str, Any] = {}
            for column in self.relation.schema.column_names:
                tags = []
                for indicator in self.tag_schema.allowed_for(column):
                    value = self._arrays[(column, indicator)][row_index]
                    if value is not None:
                        tags.append(IndicatorValue(indicator, value))
                cells[column] = QualityCell(row[column], tags)
            tagged.insert(cells)
        return tagged

    # -- mutation -----------------------------------------------------------------

    def append(
        self,
        values: dict[str, Any],
        tags: Optional[dict[tuple[str, str], Any]] = None,
    ) -> int:
        """Append one row with its tags; returns the new row index."""
        self._require_writable()
        self.relation.insert(values)
        _codec.append_blank(self._arrays.values())
        row_index = len(self.relation) - 1
        for (column, indicator), value in (tags or {}).items():
            self.set_tag(row_index, column, indicator, value)
        return row_index

    def set_tag(
        self, row_index: int, column: str, indicator: str, value: Any
    ) -> None:
        """Set one tag value (validated against the indicator's domain)."""
        key = (column, indicator)
        if key not in self._arrays:
            raise UnknownIndicatorError(
                f"indicator {indicator!r} is not allowed on column {column!r}"
            )
        self._require_writable()
        definition = self.tag_schema.definition(indicator)
        self._arrays[key][row_index] = definition.domain.validate(value)

    def delete(self, predicate: Callable[[Any], bool]) -> int:
        """Delete rows matching ``predicate`` (called with the plain row).

        Every ``(column, indicator)`` array drops the same positions as
        the backing relation, so scans stay aligned after deletion.
        Returns the number of rows removed.
        """
        self._require_writable()
        self.check_aligned()
        rows = self.relation.row_batch()
        keep = _codec.keep_indices(rows, predicate)
        removed = len(rows) - len(keep)
        if not removed:
            return 0
        self.relation._replace_rows(_codec.gather(rows, keep))
        _codec.compact_in_place(self._arrays, keep)
        return removed

    def _require_writable(self) -> None:
        if self.relation.frozen:
            raise SnapshotWriteError(
                f"the tag store of {self.relation.schema.name!r} is derived "
                f"from a tagged relation and is read-only; write to the "
                f"relation instead"
            )

    def check_aligned(self) -> None:
        """Raise if the backing relation's length diverges from any array.

        Divergence means the relation was mutated behind the store's
        back (e.g. ``store.relation.delete(...)`` instead of
        ``store.delete(...)``); scanning would return misaligned rows.
        """
        divergence = _codec.misaligned(len(self.relation), self._arrays)
        if divergence is not None:
            (column, indicator), length = divergence
            raise TagSchemaError(
                f"columnar store is out of sync with its backing "
                f"relation {self.relation.schema.name!r}: relation has "
                f"{len(self.relation)} rows but tag array ({column!r}, "
                f"{indicator!r}) has {length} entries; mutate "
                f"through the store (append/set_tag/delete), not the "
                f"relation directly"
            )

    # -- access --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.relation)

    def array(self, column: str, indicator: str) -> list[Any]:
        """The aligned tag array itself, not a copy (treat as read-only)."""
        try:
            return self._arrays[(column, indicator)]
        except KeyError:
            raise UnknownIndicatorError(
                f"indicator {indicator!r} is not allowed on column {column!r}"
            ) from None

    def tag_value(self, row_index: int, column: str, indicator: str) -> Any:
        """One tag value (None when untagged)."""
        return self.array(column, indicator)[row_index]

    def tag_array(self, column: str, indicator: str) -> Sequence[Any]:
        """A copy of the whole aligned tag array, as a tuple."""
        return tuple(self.array(column, indicator))

    def tag_count(self) -> int:
        """Number of non-None tag values stored."""
        return sum(
            1
            for array in self._arrays.values()
            for value in array
            if value is not None
        )

    # -- filtering --------------------------------------------------------------------

    def filter_indices(
        self,
        column: str,
        indicator: str,
        op: str,
        operand: Any,
        missing_ok: bool = False,
    ) -> list[int]:
        """Row indices whose tag satisfies the constraint.

        The columnar representation's fast path: one pass over one array.
        """
        if op not in OPERATORS:
            raise TagSchemaError(f"unknown operator {op!r}")
        compare = OPERATORS[op]
        array = self._arrays.get((column, indicator))
        if array is None:
            raise UnknownIndicatorError(
                f"indicator {indicator!r} is not allowed on column {column!r}"
            )
        self.check_aligned()
        hits = []
        for index, value in enumerate(array):
            if value is None:
                if missing_ok:
                    hits.append(index)
                continue
            try:
                if compare(value, operand):
                    hits.append(index)
            except TypeError:
                continue
        if _obs_metrics.enabled():
            _record_scan(len(array), len(hits))
        return hits

    def scan(
        self,
        constraints: Sequence[
            tuple[str, str, str, Any] | tuple[str, str, str, Any, bool]
        ],
    ) -> list[int]:
        """Row indices satisfying a *conjunction* of tag constraints.

        Each constraint is ``(column, indicator, op, operand)`` — or,
        with an optional fifth element, ``(..., missing_ok)`` — with
        ``op`` from :data:`~repro.tagging.query.OPERATORS`.  The first
        constraint scans its whole array; each further constraint only
        probes the surviving indices, so selective leading constraints
        keep the scan cheap.  Missing tags (None) never match unless
        the constraint says ``missing_ok=True`` (matching
        :class:`~repro.tagging.query.IndicatorConstraint` semantics).
        """
        self.check_aligned()
        hits: Optional[list[int]] = None
        for constraint in constraints:
            column, indicator, op, operand = constraint[:4]
            missing_ok = bool(constraint[4]) if len(constraint) > 4 else False
            if op not in OPERATORS:
                raise TagSchemaError(f"unknown operator {op!r}")
            compare = OPERATORS[op]
            array = self._arrays.get((column, indicator))
            if array is None:
                raise UnknownIndicatorError(
                    f"indicator {indicator!r} is not allowed on column "
                    f"{column!r}"
                )
            survivors: list[int] = []
            emit = survivors.append
            if hits is None:
                if op == "==" and operand is not None and not missing_ok:
                    # Equality scans hop hit-to-hit with list.index, a
                    # C-level search — no Python per-element loop.  (A
                    # None operand must fall through: missing tags never
                    # match, but index(None) would find them.  Likewise
                    # missing_ok: the hop cannot also emit the Nones.)
                    find = array.index
                    index = -1
                    try:
                        while True:
                            index = find(operand, index + 1)
                            emit(index)
                    except ValueError:
                        pass
                else:
                    for index, value in enumerate(array):
                        if value is None:
                            if missing_ok:
                                emit(index)
                            continue
                        try:
                            if compare(value, operand):
                                emit(index)
                        except TypeError:
                            continue
            else:
                for index in hits:
                    value = array[index]
                    if value is None:
                        if missing_ok:
                            emit(index)
                        continue
                    try:
                        if compare(value, operand):
                            emit(index)
                    except TypeError:
                        continue
            hits = survivors
            if not hits:
                break
        selected = (
            hits if hits is not None else list(range(len(self.relation)))
        )
        if _obs_metrics.enabled():
            _record_scan(len(self.relation), len(selected))
        return selected

    def select_rows(self, indices: Iterable[int]) -> Relation:
        """Build the selected rows as a plain relation."""
        rows = self.relation.rows
        return Relation.from_rows(
            self.relation.schema, (rows[index] for index in indices)
        )

    def filter(
        self,
        column: str,
        indicator: str,
        op: str,
        operand: Any,
        missing_ok: bool = False,
    ) -> Relation:
        """Convenience: constraint → materialized plain relation."""
        return self.select_rows(
            self.filter_indices(column, indicator, op, operand, missing_ok)
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarTagStore({self.relation.schema.name}, "
            f"{len(self.relation)} rows, {len(self._arrays)} tag arrays)"
        )
