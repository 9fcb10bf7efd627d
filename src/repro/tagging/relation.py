"""Tagged relations: relations whose cells carry quality-indicator tags.

A :class:`TaggedRelation` pairs a relational schema (application data
types) with a :class:`~repro.tagging.indicators.TagSchema` (quality
requirements) and stores rows of
:class:`~repro.tagging.cell.QualityCell`.  It can render itself in the
paper's Table-2 style and convert to/from plain relations.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import UnknownColumnError
from repro.relational.relation import Relation, Row, RowStore
from repro.relational.schema import RelationSchema
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


class TaggedRelation(RowStore):
    """A relation of quality cells under a relation schema + tag schema.

    Its storage is the :class:`~repro.relational.relation.RowStore` a
    plain relation has too; only the row type differs.  It is not a
    :class:`~repro.relational.relation.Relation`: ``isinstance(x,
    Relation)`` means a plain relation throughout the engine.

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
        self.tag_schema = tag_schema or TagSchema()
        self.tag_schema.check_against(schema)
        super().__init__(schema, rows)

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

    # -- storage hooks -----------------------------------------------------------

    def _prepare(
        self, cells: Mapping[str, QualityCell | Any] | TaggedRow
    ) -> TaggedRow:
        """Validate a row of cells against both schemas."""
        if isinstance(cells, TaggedRow):
            cells = cells.cells_dict()
        return TaggedRow(self.schema, self.tag_schema, cells)

    @staticmethod
    def _values_at(rows: Sequence[TaggedRow], position: int) -> list[Any]:
        return [row._cells[position].value for row in rows]

    #: Bound here as well as inherited: perfbench's traced probe patches
    #: ``insert_many`` in this class's own namespace.
    insert_many = RowStore.insert_many

    # -- tag store ------------------------------------------------------------------

    def columnar_store(self):
        """The relation's columnar tag store, built lazily and cached.

        The store is cached against the epoch and the row count
        (:class:`~repro.relational.versioned.Carried`), so query paths
        can route indicator-constrained scans through contiguous tag
        arrays without ever reading stale data; after an append the
        next store — this relation's or a later snapshot's — copies the
        last one's arrays and converts only the appended rows.  The
        store is read-only: write to the relation.
        """
        # Built under the mutation lock so two sessions racing on a cold
        # cache agree on one store (and neither sees a half-built one).
        return self._derived.fetch("tags", self, self._make_columnar_store)

    def _make_columnar_store(self, base: Any, count: int):
        from repro.tagging.columnar import ColumnarTagStore

        return ColumnarTagStore.from_tagged_relation(self, base, count)

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
