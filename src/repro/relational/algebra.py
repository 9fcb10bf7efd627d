"""Relational algebra over :class:`~repro.relational.relation.Relation`.

All operators are pure: they never mutate their inputs and always return
fresh relations.  Bag semantics are used throughout (duplicates are
preserved) except for the explicit set operators, matching SQL behaviour.

The quality-extended algebra in :mod:`repro.tagging.algebra` and the
polygen algebra in :mod:`repro.polygen.algebra` mirror these signatures
so code can be written against either layer.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Optional, Sequence

from repro.errors import QueryError, SchemaError
from repro.relational.relation import Relation, Row
from repro.relational.schema import RelationSchema

Predicate = Callable[[Row], bool]


def select(relation: Relation, predicate: Predicate) -> Relation:
    """σ — keep rows satisfying ``predicate``."""
    return Relation.from_rows(
        relation.schema, (row for row in relation if predicate(row))
    )


def project(
    relation: Relation,
    columns: Sequence[str],
    new_name: Optional[str] = None,
) -> Relation:
    """π — keep only ``columns`` (bag semantics: duplicates retained)."""
    if not columns:
        raise QueryError("projection requires at least one column")
    out_schema = relation.schema.project(columns, new_name)
    positions = relation.schema.positions_of(columns)
    return Relation.from_rows(
        out_schema,
        (
            Row._from_validated(
                out_schema, tuple(row.at(p) for p in positions)
            )
            for row in relation
        ),
    )


def rename(
    relation: Relation,
    column_mapping: Optional[dict[str, str]] = None,
    new_name: Optional[str] = None,
) -> Relation:
    """ρ — rename the relation and/or some of its columns."""
    out_schema = relation.schema
    if column_mapping:
        out_schema = out_schema.rename_columns(column_mapping)
    if new_name:
        out_schema = out_schema.renamed(new_name)
    return Relation.from_rows(
        out_schema,
        (
            Row._from_validated(out_schema, row.values_tuple())
            for row in relation
        ),
    )


def distinct(relation: Relation) -> Relation:
    """δ — remove duplicate rows (bag → set)."""
    result = relation.empty_like()
    seen: set[tuple[Any, ...]] = set()
    for row in relation:
        key = row.values_tuple()
        if key not in seen:
            seen.add(key)
            result._insert_validated(row)
    return result


def _require_union_compatible(left: Relation, right: Relation, op: str) -> None:
    if not left.schema.union_compatible_with(right.schema):
        raise SchemaError(
            f"{op}: schemas are not union-compatible "
            f"({left.schema!r} vs {right.schema!r})"
        )


def union(left: Relation, right: Relation) -> Relation:
    """∪ — bag union (all rows of both sides)."""
    _require_union_compatible(left, right, "union")
    result = left.copy()
    # Union-compatible schemas share column names and domains, so right
    # rows are already valid; re-home them under the left schema.
    for row in right:
        result._insert_validated(
            Row._from_validated(left.schema, row.values_tuple())
        )
    return result


def difference(left: Relation, right: Relation) -> Relation:
    """− — bag difference (each right row cancels one left duplicate)."""
    _require_union_compatible(left, right, "difference")
    remaining = Counter(row.values_tuple() for row in right)
    result = left.empty_like()
    for row in left:
        key = row.values_tuple()
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            result._insert_validated(row)
    return result


def intersection(left: Relation, right: Relation) -> Relation:
    """∩ — bag intersection (multiplicity = min of the two sides)."""
    _require_union_compatible(left, right, "intersection")
    available = Counter(row.values_tuple() for row in right)
    result = left.empty_like()
    for row in left:
        key = row.values_tuple()
        if available.get(key, 0) > 0:
            available[key] -= 1
            result._insert_validated(row)
    return result


def cartesian_product(
    left: Relation, right: Relation, new_name: Optional[str] = None
) -> Relation:
    """× — all pairings of left and right rows.

    Overlapping column names are qualified as ``relation.column`` by
    :meth:`RelationSchema.concat`.
    """
    name = new_name or f"{left.schema.name}_x_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    result = Relation(out_schema)
    for lrow in left:
        lvals = lrow.values_tuple()
        for rrow in right:
            result._insert_validated(
                Row._from_validated(out_schema, lvals + rrow.values_tuple())
            )
    return result


def theta_join(
    left: Relation,
    right: Relation,
    predicate: Callable[[Row, Row], bool],
    new_name: Optional[str] = None,
) -> Relation:
    """⋈θ — join on an arbitrary two-row predicate."""
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    result = Relation(out_schema)
    for lrow in left:
        lvals = lrow.values_tuple()
        for rrow in right:
            if predicate(lrow, rrow):
                result._insert_validated(
                    Row._from_validated(
                        out_schema, lvals + rrow.values_tuple()
                    )
                )
    return result


def equi_join(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    new_name: Optional[str] = None,
) -> Relation:
    """Equality join on pairs of (left column, right column).

    Uses a hash join: right rows are indexed by their join-key values.
    """
    if not on:
        raise QueryError("equi_join requires at least one column pair")
    for lcol, rcol in on:
        left.schema.column(lcol)
        right.schema.column(rcol)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    result = Relation(out_schema)
    left_key = left.schema.positions_of([lcol for lcol, _ in on])
    right_key = right.schema.positions_of([rcol for _, rcol in on])

    index: dict[tuple[Any, ...], list[Row]] = {}
    for rrow in right:
        key = tuple(rrow.at(p) for p in right_key)
        index.setdefault(key, []).append(rrow)
    for lrow in left:
        key = tuple(lrow.at(p) for p in left_key)
        matches = index.get(key)
        if not matches:
            continue
        lvals = lrow.values_tuple()
        for rrow in matches:
            result._insert_validated(
                Row._from_validated(out_schema, lvals + rrow.values_tuple())
            )
    return result


def natural_join(
    left: Relation, right: Relation, new_name: Optional[str] = None
) -> Relation:
    """⋈ — join on all shared column names; shared columns appear once."""
    shared = [n for n in left.schema.column_names if n in right.schema]
    if not shared:
        return cartesian_product(left, right, new_name)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    right_only = [n for n in right.schema.column_names if n not in shared]
    out_columns = [left.schema.column(n) for n in left.schema.column_names]
    out_columns += [right.schema.column(n) for n in right_only]
    out_schema = RelationSchema(name, out_columns)
    result = Relation(out_schema)
    left_key = left.schema.positions_of(shared)
    right_key = right.schema.positions_of(shared)
    right_only_pos = right.schema.positions_of(right_only)

    index: dict[tuple[Any, ...], list[Row]] = {}
    for rrow in right:
        key = tuple(rrow.at(p) for p in right_key)
        index.setdefault(key, []).append(rrow)
    for lrow in left:
        key = tuple(lrow.at(p) for p in left_key)
        matches = index.get(key)
        if not matches:
            continue
        lvals = lrow.values_tuple()
        for rrow in matches:
            result._insert_validated(
                Row._from_validated(
                    out_schema,
                    lvals + tuple(rrow.at(p) for p in right_only_pos),
                )
            )
    return result


def sort(
    relation: Relation,
    by: Sequence[str],
    descending: bool = False,
) -> Relation:
    """Order rows by the given columns (None sorts first)."""
    if not by:
        raise QueryError("sort requires at least one column")
    positions = relation.schema.positions_of(by)

    def sort_key(row: Row) -> tuple:
        # None-safe: (is-not-None, value) keeps NULLs first and avoids
        # comparing None to concrete values.
        return tuple((row.at(p) is not None, row.at(p)) for p in positions)

    return Relation.from_rows(
        relation.schema, sorted(relation, key=sort_key, reverse=descending)
    )


def limit(relation: Relation, n: int) -> Relation:
    """Keep only the first ``n`` rows (insertion order)."""
    if n < 0:
        raise QueryError("limit must be non-negative")
    return Relation.from_rows(relation.schema, relation.rows[:n])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _agg_count(values: list[Any]) -> int:
    return sum(1 for v in values if v is not None)


def _agg_sum(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _agg_avg(values: list[Any]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _agg_min(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _agg_max(values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    return max(present) if present else None


#: Built-in aggregate functions usable by name in :func:`aggregate`.
AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": _agg_count,
    "sum": _agg_sum,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
}


def aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregations: dict[str, tuple[str, str]],
    new_name: Optional[str] = None,
) -> Relation:
    """γ — group rows and compute aggregates.

    Parameters
    ----------
    group_by:
        Columns to group on (may be empty for a single global group).
    aggregations:
        Maps output column name → (aggregate function name, input column).
        Function names come from :data:`AGGREGATES`.

    The output schema has the ``group_by`` columns followed by one column
    per aggregation.  Aggregate outputs use the STR-free permissive FLOAT
    domain for avg and the input column's domain otherwise, except count
    which is INT.
    """
    from repro.relational.schema import Column
    from repro.relational.types import FLOAT, INT

    for name in group_by:
        relation.schema.column(name)
    out_columns = [relation.schema.column(n) for n in group_by]
    for out_name, (func_name, in_col) in aggregations.items():
        if func_name not in AGGREGATES:
            raise QueryError(
                f"unknown aggregate {func_name!r} "
                f"(available: {sorted(AGGREGATES)})"
            )
        relation.schema.column(in_col)
        if func_name == "count":
            out_columns.append(Column(out_name, INT))
        elif func_name == "avg":
            out_columns.append(Column(out_name, FLOAT))
        else:
            out_columns.append(Column(out_name, relation.schema.column(in_col).domain))
    out_schema = RelationSchema(
        new_name or f"{relation.schema.name}_agg", out_columns
    )

    group_positions = relation.schema.positions_of(group_by)
    groups: dict[tuple[Any, ...], list[Row]] = {}
    order: list[tuple[Any, ...]] = []
    for row in relation:
        key = tuple(row.at(p) for p in group_positions)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    result = Relation(out_schema)
    if not group_by and not groups:
        # Global aggregate over an empty relation still yields one row.
        groups[()] = []
        order.append(())
    agg_specs = [
        (
            AGGREGATES[func_name],
            relation.schema.position(in_col),
            out_schema.column(out_name).domain,
        )
        for out_name, (func_name, in_col) in aggregations.items()
    ]
    for key in order:
        rows = groups[key]
        # Group-by values come straight from validated rows; only the
        # computed aggregates need validating against their domains.
        values = key + tuple(
            domain.validate(func([r.at(p) for r in rows]))
            for func, p, domain in agg_specs
        )
        result._insert_validated(Row._from_validated(out_schema, values))
    return result


def extend(
    relation: Relation,
    column_name: str,
    domain: Any,
    compute: Callable[[Row], Any],
    new_name: Optional[str] = None,
) -> Relation:
    """Add a derived column computed per-row (the ε operator)."""
    from repro.relational.schema import Column
    from repro.relational.types import Domain, domain_by_name

    if column_name in relation.schema:
        raise SchemaError(
            f"relation {relation.schema.name!r} already has column {column_name!r}"
        )
    dom = domain_by_name(domain) if isinstance(domain, str) else domain
    if not isinstance(dom, Domain):
        raise SchemaError(f"invalid domain {domain!r}")
    out_schema = RelationSchema(
        new_name or relation.schema.name,
        list(relation.schema.columns) + [Column(column_name, dom)],
        key=relation.schema.key,
    )
    result = Relation(out_schema)
    for row in relation:
        result._insert_validated(
            Row._from_validated(
                out_schema,
                row.values_tuple() + (dom.validate(compute(row)),),
            )
        )
    return result
