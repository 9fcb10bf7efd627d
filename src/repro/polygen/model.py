"""Polygen cells and relations: values with source provenance.

A :class:`PolygenCell` is the polygen model's data atom: a value plus
two source sets.  ``originating`` answers "which local database(s)
supplied this value"; ``intermediate`` answers "which local databases'
data was consulted to select/derive it".  Both are immutable frozensets
of source names, so set algebra is cheap and cells are hashable.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.errors import PolygenError, UnknownColumnError
from repro.relational.schema import RelationSchema

#: A set of local-database names.
SourceSet = frozenset


class PolygenCell:
    """A value with originating and intermediate source sets.

    >>> cell = PolygenCell(700, originating={"acctg_db"})
    >>> sorted(cell.originating)
    ['acctg_db']
    >>> cell.intermediate
    frozenset()
    """

    __slots__ = ("value", "originating", "intermediate")

    def __init__(
        self,
        value: Any,
        originating: Iterable[str] = (),
        intermediate: Iterable[str] = (),
    ) -> None:
        self.value = value
        self.originating: frozenset[str] = frozenset(originating)
        self.intermediate: frozenset[str] = frozenset(intermediate)

    @classmethod
    def _make(
        cls,
        value: Any,
        originating: frozenset[str],
        intermediate: frozenset[str],
    ) -> "PolygenCell":
        """Trusted constructor: both source sets must be frozensets."""
        cell = object.__new__(cls)
        cell.value = value
        cell.originating = originating
        cell.intermediate = intermediate
        return cell

    def with_intermediate(self, sources: Iterable[str]) -> "PolygenCell":
        """A copy with extra intermediate sources unioned in."""
        extra = (
            sources if isinstance(sources, frozenset) else frozenset(sources)
        )
        if extra <= self.intermediate:
            return self
        return PolygenCell._make(
            self.value, self.originating, self.intermediate | extra
        )

    def merged_with(self, other: "PolygenCell") -> "PolygenCell":
        """Merge two same-valued cells (duplicate elimination in union).

        Originating and intermediate sets union: the value is
        corroborated by every contributing database.
        """
        if other.value != self.value:
            raise PolygenError(
                f"cannot merge cells with different values "
                f"({self.value!r} vs {other.value!r})"
            )
        return PolygenCell(
            self.value,
            self.originating | other.originating,
            self.intermediate | other.intermediate,
        )

    @property
    def all_sources(self) -> frozenset[str]:
        """Union of originating and intermediate sources."""
        return self.originating | self.intermediate

    def render(self) -> str:
        """Compact text form: ``value {orig | inter}``."""
        orig = ",".join(sorted(self.originating)) or "-"
        inter = ",".join(sorted(self.intermediate))
        value = "" if self.value is None else str(self.value)
        if inter:
            return f"{value} {{{orig} | {inter}}}"
        return f"{value} {{{orig}}}"

    def __repr__(self) -> str:
        return (
            f"PolygenCell({self.value!r}, orig={sorted(self.originating)}, "
            f"inter={sorted(self.intermediate)})"
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolygenCell):
            return (
                other.value == self.value
                and other.originating == self.originating
                and other.intermediate == self.intermediate
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            ("PolygenCell", _freeze(self.value), self.originating, self.intermediate)
        )


def _freeze(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class PolygenRow(Mapping[str, PolygenCell]):
    """An immutable row of polygen cells."""

    __slots__ = ("_schema", "_cells")

    def __init__(
        self,
        schema: RelationSchema,
        cells: Mapping[str, PolygenCell | Any],
    ) -> None:
        self._schema = schema
        unknown = set(cells) - set(schema.column_names)
        if unknown:
            raise UnknownColumnError(
                f"row references unknown columns {sorted(unknown)} of "
                f"relation {schema.name!r}"
            )
        prepared = []
        for column in schema.columns:
            raw = cells.get(column.name)
            cell = raw if isinstance(raw, PolygenCell) else PolygenCell(raw)
            prepared.append(
                PolygenCell(
                    column.domain.validate(cell.value),
                    cell.originating,
                    cell.intermediate,
                )
            )
        self._cells: tuple[PolygenCell, ...] = tuple(prepared)

    @classmethod
    def _from_validated(
        cls, schema: RelationSchema, cells: tuple[PolygenCell, ...]
    ) -> "PolygenRow":
        """Trusted constructor: ``cells`` must already hold validated
        values, in schema order.  Fast path for the polygen algebra."""
        row = object.__new__(cls)
        row._schema = schema
        row._cells = cells
        return row

    def __getitem__(self, name: str) -> PolygenCell:
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

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def cells(self) -> tuple[PolygenCell, ...]:
        return self._cells

    def value(self, name: str) -> Any:
        """The application value of one column."""
        return self[name].value

    def values_dict(self) -> dict[str, Any]:
        """Application values only."""
        return {n: c.value for n, c in zip(self._schema.column_names, self._cells)}

    def values_tuple(self) -> tuple[Any, ...]:
        return tuple(c.value for c in self._cells)

    def cells_dict(self) -> dict[str, PolygenCell]:
        return dict(zip(self._schema.column_names, self._cells))

    def row_sources(self) -> frozenset[str]:
        """All sources any cell of this row touches."""
        sources: frozenset[str] = frozenset()
        for cell in self._cells:
            sources |= cell.all_sources
        return sources

    def with_intermediate(self, sources: Iterable[str]) -> "PolygenRow":
        """A copy with extra intermediate sources on every cell."""
        extra = frozenset(sources)
        if not extra:
            return self
        return PolygenRow._from_validated(
            self._schema,
            tuple(c.with_intermediate(extra) for c in self._cells),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolygenRow):
            return (
                self._schema.column_names == other._schema.column_names
                and self._cells == other._cells
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema.column_names, self._cells))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={c.render()}"
            for n, c in zip(self._schema.column_names, self._cells)
        )
        return f"PolygenRow({inner})"


class PolygenRelation:
    """A relation of polygen cells.

    Usually produced by tagging a local database's relation with its
    database name (see :meth:`from_relation`) and then transformed by
    the polygen algebra.
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Mapping[str, Any]] = (),
    ) -> None:
        self.schema = schema
        self._rows: list[PolygenRow] = []
        # key positions → (row count at build time, hash index).  Rows
        # are append-only, so a row-count match proves the indexed
        # prefix is still exactly the relation's contents.
        self._join_indexes: dict[
            tuple[int, ...],
            tuple[int, dict[Any, list[tuple[tuple[PolygenCell, ...], frozenset[str]]]]],
        ] = {}
        for row in rows:
            self.insert(row)

    @classmethod
    def from_relation(cls, relation: Any, source: str) -> "PolygenRelation":
        """Tag every cell of a plain relation with one originating source."""
        origin = frozenset({source})
        result = cls(relation.schema)
        # Values coming out of a Relation are already domain-validated.
        result._rows = [
            PolygenRow._from_validated(
                relation.schema,
                tuple(
                    PolygenCell(value, origin)
                    for value in row.values_tuple()
                ),
            )
            for row in relation
        ]
        return result

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable[PolygenRow]
    ) -> "PolygenRelation":
        """Trusted bulk constructor: ``rows`` must already conform."""
        relation = cls(schema)
        relation._rows = list(rows)
        return relation

    def insert(self, cells: Mapping[str, Any] | PolygenRow) -> PolygenRow:
        """Insert a row (validated against the schema)."""
        if isinstance(cells, PolygenRow):
            row = PolygenRow(self.schema, cells.cells_dict())
        else:
            row = PolygenRow(self.schema, cells)
        self._rows.append(row)
        return row

    def _insert_validated(self, row: PolygenRow) -> PolygenRow:
        """Append a row already valid under this schema (fast path)."""
        self._rows.append(row)
        return row

    @property
    def rows(self) -> tuple[PolygenRow, ...]:
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[PolygenRow]:
        return iter(self._rows)

    def empty_like(self) -> "PolygenRelation":
        return PolygenRelation(self.schema)

    def join_index(
        self, key_positions: tuple[int, ...]
    ) -> dict[Any, list[tuple[tuple[PolygenCell, ...], frozenset[str]]]]:
        """A hash index: join-key value → [(row cells, key-cell origins)].

        Built lazily and cached per key-position tuple so repeated joins
        on the same key (the federation steady state) skip the build.
        Single-column keys use the bare value as the index key; wider
        keys use a tuple.  Unhashable values are keyed by ``repr``.
        """
        cached = self._join_indexes.get(key_positions)
        if cached is not None and cached[0] == len(self._rows):
            return cached[1]
        index: dict[Any, list[tuple[tuple[PolygenCell, ...], frozenset[str]]]] = {}
        single = len(key_positions) == 1
        p0 = key_positions[0]
        for row in self._rows:
            cells = row.cells
            if single:
                key_cell = cells[p0]
                key = _freeze(key_cell.value)
                origins = key_cell.originating
            else:
                key = tuple(_freeze(cells[p].value) for p in key_positions)
                origins = frozenset()
                for p in key_positions:
                    origins |= cells[p].originating
            entry = index.get(key)
            if entry is None:
                index[key] = [(cells, origins)]
            else:
                entry.append((cells, origins))
        self._join_indexes[key_positions] = (len(self._rows), index)
        return index

    def all_sources(self) -> frozenset[str]:
        """Every source contributing to any cell of the relation."""
        sources: frozenset[str] = frozenset()
        for row in self._rows:
            sources |= row.row_sources()
        return sources

    def render(self, max_rows: Optional[int] = None, title: Optional[str] = None) -> str:
        """Aligned text table with per-cell source annotations."""
        names = list(self.schema.column_names)
        shown = self._rows if max_rows is None else self._rows[:max_rows]
        grid = [names] + [[row[n].render() for n in names] for row in shown]
        widths = [max(len(cell) for cell in col) for col in zip(*grid)]
        lines = []
        if title:
            lines.append(title)
        lines.append(" | ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip())
        lines.append("-+-".join("-" * w for w in widths))
        for cells in grid[1:]:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
            )
        if max_rows is not None and len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PolygenRelation({self.schema.name}, {len(self._rows)} rows)"
