"""Quality-extended relational algebra with tag propagation.

Mirrors :mod:`repro.relational.algebra` over tagged relations.  The
propagation principle (from the attribute-based model [28]) is that
**every output cell carries the tags of the input cell(s) it derives
from**:

- ``select``/``project``/``rename``/``sort``/``limit`` pass cells
  through untouched (tags included);
- joins concatenate rows, so each output cell keeps the tags of its
  originating side;
- ``union`` keeps each branch's cells as-is (duplicates may differ only
  in tags — both are retained, since their quality differs);
- ``distinct_values`` collapses rows whose *values* are equal, merging
  tags where they agree and dropping conflicting indicator values (the
  conservative resolution: a merged cell only claims tags all of its
  witnesses agree on).

Predicates in this module receive :class:`TaggedRow` objects, so they
can inspect both application values (``row.value("price")``) and tags
(``row["price"].tag_value("source")``) — the paper's query-time quality
filtering.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import QueryError, SchemaError, TagSchemaError
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue
from repro.tagging.relation import TaggedRelation, TaggedRow

TaggedPredicate = Callable[[TaggedRow], bool]


def select(relation: TaggedRelation, predicate: TaggedPredicate) -> TaggedRelation:
    """σ — keep rows satisfying ``predicate`` (tags travel with rows).

    Surviving rows are shared by reference with the input (rows are
    immutable), so selection never re-validates values or tags.
    """
    return TaggedRelation.from_rows(
        relation.schema,
        relation.tag_schema,
        (row for row in relation if predicate(row)),
    )


def project(
    relation: TaggedRelation,
    columns: Sequence[str],
    new_name: Optional[str] = None,
) -> TaggedRelation:
    """π — keep only ``columns``; each kept cell keeps its tags."""
    if not columns:
        raise QueryError("projection requires at least one column")
    out_schema = relation.schema.project(columns, new_name)
    out_tags = relation.tag_schema.project(columns)
    positions = relation.schema.positions_of(columns)
    return TaggedRelation.from_rows(
        out_schema,
        out_tags,
        (
            TaggedRow._from_validated(
                out_schema, tuple(row.cells[p] for p in positions)
            )
            for row in relation
        ),
    )


def rename(
    relation: TaggedRelation,
    column_mapping: Optional[dict[str, str]] = None,
    new_name: Optional[str] = None,
) -> TaggedRelation:
    """ρ — rename columns/relation; tag schema renames in lockstep."""
    out_schema = relation.schema
    out_tags = relation.tag_schema
    if column_mapping:
        out_schema = out_schema.rename_columns(column_mapping)
        out_tags = out_tags.rename_columns(column_mapping)
    if new_name:
        out_schema = out_schema.renamed(new_name)
    return TaggedRelation.from_rows(
        out_schema,
        out_tags,
        (
            TaggedRow._from_validated(out_schema, row.cells)
            for row in relation
        ),
    )


def union(left: TaggedRelation, right: TaggedRelation) -> TaggedRelation:
    """∪ — bag union; tag schemas merge; cells keep their own tags.

    Rows whose values coincide but whose tags differ are both kept:
    they represent data of different quality (Premise 1.3).
    """
    if not left.schema.union_compatible_with(right.schema):
        raise SchemaError(
            f"union: schemas are not union-compatible "
            f"({left.schema!r} vs {right.schema!r})"
        )
    merged_tags = left.tag_schema.merge(right.tag_schema)
    result = TaggedRelation(left.schema, merged_tags)
    # Rows of either side are already valid under the merged tag schema
    # *except* for indicators the other side newly requires: a column
    # required only on the right must still be present on left cells.
    for branch in (left, right):
        extra_required = [
            (position, missing)
            for position, column in enumerate(left.schema.column_names)
            for missing in [
                merged_tags.required_for(column)
                - branch.tag_schema.required_for(column)
            ]
            if missing
        ]
        for row in branch:
            for position, required in extra_required:
                cell = row.cells[position]
                absent = required - set(cell.indicator_names)
                if absent:
                    raise TagSchemaError(
                        f"column {left.schema.column_names[position]!r} is "
                        f"missing required indicator(s) {sorted(absent)}"
                    )
            result._insert_validated(
                TaggedRow._from_validated(left.schema, row.cells)
            )
    return result


def difference(left: TaggedRelation, right: TaggedRelation) -> TaggedRelation:
    """− — value-based bag difference (tags on the right are ignored).

    A right row cancels one left duplicate with equal *values*; the
    surviving left rows keep their tags.  Value-based matching follows
    [28]: quality tags describe data, they do not change its identity.
    """
    if not left.schema.union_compatible_with(right.schema):
        raise SchemaError("difference: schemas are not union-compatible")
    from collections import Counter

    remaining = Counter(row.values_tuple() for row in right)
    result = left.empty_like()
    for row in left:
        key = row.values_tuple()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            result._insert_validated(row)
    return result


def _merge_cells(cells: Sequence[QualityCell]) -> QualityCell:
    """Merge same-valued cells: keep only tags every witness agrees on."""
    first = cells[0]
    if len(cells) == 1:
        return first
    shared: list[IndicatorValue] = []
    for tag in first.tags:
        if all(
            other.has_tag(tag.name) and other.tag(tag.name) == tag
            for other in cells[1:]
        ):
            shared.append(tag)
    return QualityCell(first.value, shared)


def distinct_values(relation: TaggedRelation) -> TaggedRelation:
    """δ — collapse rows with equal values, merging tags conservatively."""
    groups: dict[tuple[Any, ...], list[TaggedRow]] = {}
    order: list[tuple[Any, ...]] = []
    for row in relation:
        key = tuple(_freeze(v) for v in row.values_tuple())
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    result = relation.empty_like()
    required_by_position = [
        relation.tag_schema.required_for(name)
        for name in relation.schema.column_names
    ]
    for key in order:
        rows = groups[key]
        if len(rows) == 1:
            result._insert_validated(rows[0])
            continue
        merged_cells = []
        for position, name in enumerate(relation.schema.column_names):
            merged = _merge_cells([row.cells[position] for row in rows])
            # Conservative merging may drop a required indicator when
            # witnesses disagree; that stays an error, as on insert.
            absent = required_by_position[position] - set(
                merged.indicator_names
            )
            if absent:
                raise TagSchemaError(
                    f"column {name!r} is missing required indicator(s) "
                    f"{sorted(absent)}"
                )
            merged_cells.append(merged)
        result._insert_validated(
            TaggedRow._from_validated(relation.schema, tuple(merged_cells))
        )
    return result


def _freeze(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def equi_join(
    left: TaggedRelation,
    right: TaggedRelation,
    on: Sequence[tuple[str, str]],
    new_name: Optional[str] = None,
) -> TaggedRelation:
    """Equality join on *values*; output cells keep their side's tags."""
    if not on:
        raise QueryError("equi_join requires at least one column pair")
    for lcol, rcol in on:
        left.schema.column(lcol)
        right.schema.column(rcol)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)

    # Column-name mapping applied by concat (overlaps get qualified).
    left_map, right_map = left.schema.concat_maps(right.schema)
    out_tags = left.tag_schema.rename_columns(left_map).merge(
        right.tag_schema.rename_columns(right_map)
    )
    result = TaggedRelation(out_schema, out_tags)
    left_key = left.schema.positions_of([lcol for lcol, _ in on])
    right_key = right.schema.positions_of([rcol for _, rcol in on])

    index: dict[tuple[Any, ...], list[TaggedRow]] = {}
    for rrow in right:
        key = tuple(_freeze(rrow.cells[p].value) for p in right_key)
        index.setdefault(key, []).append(rrow)
    # concat puts all left columns before all right columns, so the
    # output cell tuple is simply the concatenation of both cell tuples.
    for lrow in left:
        key = tuple(_freeze(lrow.cells[p].value) for p in left_key)
        matches = index.get(key)
        if not matches:
            continue
        for rrow in matches:
            result._insert_validated(
                TaggedRow._from_validated(
                    out_schema, lrow.cells + rrow.cells
                )
            )
    return result


def sort(
    relation: TaggedRelation,
    by: Sequence[str],
    descending: bool = False,
    key_indicator: Optional[str] = None,
) -> TaggedRelation:
    """Order rows by column values, or by a tag when ``key_indicator`` set.

    With ``key_indicator``, rows order by
    ``row[column].tag_value(key_indicator)`` for each column in ``by`` —
    e.g. sort by the ``creation_time`` tag of the address column.
    """
    if not by:
        raise QueryError("sort requires at least one column")
    positions = relation.schema.positions_of(by)

    def sort_key(row: TaggedRow) -> tuple:
        keys = []
        for p in positions:
            cell = row.cells[p]
            v = cell.tag_value(key_indicator) if key_indicator else cell.value
            keys.append((v is not None, v))
        return tuple(keys)

    return TaggedRelation.from_rows(
        relation.schema,
        relation.tag_schema,
        sorted(relation, key=sort_key, reverse=descending),
    )


def limit(relation: TaggedRelation, n: int) -> TaggedRelation:
    """Keep only the first ``n`` rows."""
    if n < 0:
        raise QueryError("limit must be non-negative")
    return TaggedRelation.from_rows(
        relation.schema, relation.tag_schema, relation.rows[:n]
    )


def retag(
    relation: TaggedRelation,
    column: str,
    tagger: Callable[[TaggedRow], Optional[IndicatorValue]],
) -> TaggedRelation:
    """Apply/replace one tag on every cell of ``column``.

    ``tagger`` may return None to leave a row's cell unchanged.  The new
    indicator must already be defined in the relation's tag schema.
    """
    position = relation.schema.position(column)
    allowed = relation.tag_schema.allowed_for(column)
    result = relation.empty_like()
    for row in relation:
        tag = tagger(row)
        if tag is None:
            result._insert_validated(row)
            continue
        if tag.name not in allowed:
            raise TagSchemaError(
                f"indicator {tag.name!r} is not allowed on column {column!r}"
            )
        # The new tag's value is the only unvalidated datum in the row.
        domain = relation.tag_schema.definition(tag.name).domain
        validated = domain.validate(tag.value)
        if validated != tag.value:
            tag = IndicatorValue(tag.name, validated, meta=tag.meta_dict())
        cells = list(row.cells)
        cells[position] = cells[position].with_tag(tag)
        result._insert_validated(
            TaggedRow._from_validated(relation.schema, tuple(cells))
        )
    return result
