"""Naive (pre-optimization) reference operators for equivalence checks.

These functions reproduce the original execution strategy of the three
algebra layers: per-row column-name lookups (``column_names.index``-style
resolution through ``row[name]``), dict round-trips between operators,
and re-validation of every value and tag through the public ``insert``
path.  They are deliberately *slow but obviously correct*, and exist for
two purposes:

- the property tests in ``tests/*/test_fastpath.py`` assert the fast
  paths in :mod:`repro.relational.algebra`, :mod:`repro.tagging.algebra`
  and :mod:`repro.polygen.algebra` return identical results;
- the benchmark suite measures speedup of the fast path against these
  as the "naive" baseline (``BENCH_E2.json`` / ``BENCH_E3.json``).

Do not use these in application code.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.errors import QueryError
from repro.polygen.model import PolygenCell, PolygenRelation, PolygenRow
from repro.relational.relation import Relation, Row
from repro.tagging.cell import QualityCell
from repro.tagging.query import QualityFilter
from repro.tagging.relation import TaggedRelation, TaggedRow

# -- plain relations ---------------------------------------------------------


def naive_select(relation: Relation, predicate: Callable[[Row], bool]) -> Relation:
    """σ via the public validating insert (original code path)."""
    result = relation.empty_like()
    for row in relation:
        if predicate(row):
            result.insert(row)
    return result


def naive_project(
    relation: Relation,
    columns: Sequence[str],
    new_name: Optional[str] = None,
) -> Relation:
    """π via per-row name lookups and dict rebuilds."""
    if not columns:
        raise QueryError("projection requires at least one column")
    out_schema = relation.schema.project(columns, new_name)
    result = Relation(out_schema)
    for row in relation:
        result.insert({c: row[c] for c in columns})
    return result


def naive_equi_join(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    new_name: Optional[str] = None,
) -> Relation:
    """Hash join materializing every output row as a dict."""
    if not on:
        raise QueryError("equi_join requires at least one column pair")
    for lcol, rcol in on:
        left.schema.column(lcol)
        right.schema.column(rcol)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    result = Relation(out_schema)
    names = out_schema.column_names

    index: dict[tuple[Any, ...], list[Row]] = {}
    for rrow in right:
        key = tuple(rrow[rcol] for _, rcol in on)
        index.setdefault(key, []).append(rrow)
    for lrow in left:
        key = tuple(lrow[lcol] for lcol, _ in on)
        for rrow in index.get(key, ()):
            result.insert(
                dict(zip(names, lrow.values_tuple() + rrow.values_tuple()))
            )
    return result


# -- tagged relations --------------------------------------------------------


def naive_tagged_select(
    relation: TaggedRelation, predicate: Callable[[TaggedRow], bool]
) -> TaggedRelation:
    """σ re-validating every surviving row's values and tags."""
    result = relation.empty_like()
    for row in relation:
        if predicate(row):
            result.insert(row)
    return result


def naive_tagged_project(
    relation: TaggedRelation,
    columns: Sequence[str],
    new_name: Optional[str] = None,
) -> TaggedRelation:
    """π via per-row name lookups into cell dicts."""
    if not columns:
        raise QueryError("projection requires at least one column")
    out_schema = relation.schema.project(columns, new_name)
    out_tags = relation.tag_schema.project(columns)
    result = TaggedRelation(out_schema, out_tags)
    for row in relation:
        result.insert({c: row[c] for c in columns})
    return result


def naive_tagged_equi_join(
    left: TaggedRelation,
    right: TaggedRelation,
    on: Sequence[tuple[str, str]],
    new_name: Optional[str] = None,
) -> TaggedRelation:
    """Hash join building per-row cell dicts and re-validating tags."""
    if not on:
        raise QueryError("equi_join requires at least one column pair")
    for lcol, rcol in on:
        left.schema.column(lcol)
        right.schema.column(rcol)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    left_map, right_map = left.schema.concat_maps(right.schema)
    out_tags = left.tag_schema.rename_columns(left_map).merge(
        right.tag_schema.rename_columns(right_map)
    )
    result = TaggedRelation(out_schema, out_tags)

    index: dict[tuple[Any, ...], list[TaggedRow]] = {}
    for rrow in right:
        key = tuple(_freeze(rrow.value(rcol)) for _, rcol in on)
        index.setdefault(key, []).append(rrow)
    for lrow in left:
        key = tuple(_freeze(lrow.value(lcol)) for lcol, _ in on)
        for rrow in index.get(key, ()):
            cells: dict[str, QualityCell] = {}
            for c in left.schema.column_names:
                cells[left_map[c]] = lrow[c]
            for c in right.schema.column_names:
                cells[right_map[c]] = rrow[c]
            result.insert(cells)
    return result


def naive_quality_filter(
    relation: TaggedRelation, quality_filter: QualityFilter
) -> TaggedRelation:
    """Grade filtering with per-row, per-constraint name lookups."""
    for constraint in quality_filter.constraints:
        relation.schema.column(constraint.column)
    return naive_tagged_select(relation, quality_filter.test)


# -- polygen relations -------------------------------------------------------


def naive_polygen_select(
    relation: PolygenRelation,
    predicate: Callable[[PolygenRow], bool],
    using: Sequence[str] = (),
) -> PolygenRelation:
    """σ with per-row name lookups for the examined columns."""
    for name in using:
        relation.schema.column(name)
    result = relation.empty_like()
    for row in relation:
        if predicate(row):
            examined: frozenset[str] = frozenset()
            for name in using:
                examined |= row[name].originating
            result.insert(row.with_intermediate(examined) if examined else row)
    return result


def naive_polygen_project(
    relation: PolygenRelation,
    columns: Sequence[str],
    new_name: Optional[str] = None,
) -> PolygenRelation:
    """π via per-row name lookups into cell dicts."""
    if not columns:
        raise QueryError("projection requires at least one column")
    out_schema = relation.schema.project(columns, new_name)
    result = PolygenRelation(out_schema)
    for row in relation:
        result.insert({c: row[c] for c in columns})
    return result


def naive_polygen_equi_join(
    left: PolygenRelation,
    right: PolygenRelation,
    on: Sequence[tuple[str, str]],
    new_name: Optional[str] = None,
) -> PolygenRelation:
    """Hash join with dict round-trips and per-cell re-validation."""
    if not on:
        raise QueryError("equi_join requires at least one column pair")
    for lcol, rcol in on:
        left.schema.column(lcol)
        right.schema.column(rcol)
    name = new_name or f"{left.schema.name}_join_{right.schema.name}"
    out_schema = left.schema.concat(right.schema, name)
    left_map, right_map = left.schema.concat_maps(right.schema)
    result = PolygenRelation(out_schema)

    index: dict[tuple[Any, ...], list[PolygenRow]] = {}
    for rrow in right:
        key = tuple(_freeze(rrow.value(rcol)) for _, rcol in on)
        index.setdefault(key, []).append(rrow)
    for lrow in left:
        key = tuple(_freeze(lrow.value(lcol)) for lcol, _ in on)
        for rrow in index.get(key, ()):
            examined: frozenset[str] = frozenset()
            for lcol, rcol in on:
                examined |= lrow[lcol].originating | rrow[rcol].originating
            cells: dict[str, PolygenCell] = {}
            for c in left.schema.column_names:
                cells[left_map[c]] = lrow[c].with_intermediate(examined)
            for c in right.schema.column_names:
                cells[right_map[c]] = rrow[c].with_intermediate(examined)
            result.insert(cells)
    return result


def _freeze(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


# -- QSQL test oracle --------------------------------------------------------


def naive_execute(sql: str, source: Any) -> Relation | TaggedRelation:
    """AST-walking QSQL interpreter: per-row name lookups, no planning.

    The one test oracle for QSQL: the equivalence properties and the
    plan-cache state machine compare the planned engine (``execute``)
    against it, sharing only the parser and the aggregate functions.
    Every operand is resolved by column *name* on every row, every
    intermediate stage is rebuilt through the public validating
    ``insert`` path, and each clause is interpreted directly off the
    AST.  Slow but obviously correct.
    """
    from repro.relational.algebra import AGGREGATES
    from repro.relational.catalog import Database
    from repro.relational.schema import Column, RelationSchema
    from repro.relational.types import FLOAT, INT, STR
    from repro.sql import nodes
    from repro.sql.errors import SQLError
    from repro.sql.parser import parse

    statement = parse(sql)
    if statement.explain:
        raise QueryError("naive_execute does not implement EXPLAIN")

    if isinstance(source, (Relation, TaggedRelation)):
        if source.schema.name != statement.relation:
            raise SQLError(
                f"FROM {statement.relation!r} does not match the supplied "
                f"relation {source.schema.name!r}"
            )
        relation = source
    elif isinstance(source, Database):
        relation = source.relation(statement.relation)
    else:
        try:
            relation = source[statement.relation]
        except KeyError:
            raise SQLError(
                f"unknown relation {statement.relation!r} "
                f"(available: {sorted(source)})"
            ) from None
    tagged = isinstance(relation, TaggedRelation)

    # -- upfront reference checks (mirror the executor's fail-fast order) --
    refs: list[Any] = []

    def collect(node: Any) -> None:
        if node is None:
            return
        if isinstance(node, (nodes.ColumnRef, nodes.QualityRef)):
            refs.append(node)
        elif isinstance(node, nodes.Comparison):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, (nodes.InList, nodes.IsNull)):
            collect(node.operand)
        elif isinstance(node, nodes.BoolOp):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, nodes.NotOp):
            collect(node.operand)
        elif isinstance(node, nodes.AggregateCall):
            collect(node.operand)

    collect(statement.where)
    for item in statement.select_items or ():
        collect(item.expr)
    for key_ref in statement.group_by:
        collect(key_ref)
    if not statement.has_aggregates:
        # Post-aggregation ORDER BY resolves against the output schema.
        for order_item in statement.order_by:
            collect(order_item.key)
    for ref in refs:
        relation.schema.column(ref.column)
    if statement.uses_quality() and not tagged:
        raise SQLError(
            "QUALITY(...) requires a tagged relation; the source is untagged"
        )

    # -- per-row evaluation ------------------------------------------------
    def parameter_score(row: Any, parameter: str) -> Any:
        """Mean of the bound profile's scorer over the row's scorable
        tagged cells (NULL when none is scorable)."""
        from repro.quality.materialize import profile_for

        profile = profile_for(relation)
        if profile is None or not profile.defines(parameter):
            raise SQLError(
                f"QUALITY({parameter}) has no registered scoring profile "
                f"defining {parameter!r} for relation "
                f"{relation.schema.name!r}"
            )
        scorer = profile.scorer(parameter)
        scores = [
            scorer.score(row[column], profile.context)
            for column in relation.tag_schema.tagged_columns
        ]
        scores = [score for score in scores if score is not None]
        return sum(scores) / len(scores) if scores else None

    def operand_value(row: Any, operand: Any, row_tagged: bool) -> Any:
        if isinstance(operand, nodes.Literal):
            return operand.value
        if isinstance(operand, nodes.ColumnRef):
            cell = row[operand.column]
            return cell.value if row_tagged else cell
        # QUALITY(...) forms are guaranteed tagged by the upfront check.
        if isinstance(operand, nodes.QualityScoreRef):
            return parameter_score(row, operand.parameter)
        return row[operand.column].tag_value(operand.indicator)

    def holds(row: Any, expr: Any, row_tagged: bool) -> bool:
        if isinstance(expr, nodes.Comparison):
            a = operand_value(row, expr.left, row_tagged)
            b = operand_value(row, expr.right, row_tagged)
            if a is None or b is None:
                return False
            try:
                if expr.op == "=":
                    return a == b
                if expr.op in ("<>", "!="):
                    return a != b
                if expr.op == "<":
                    return a < b
                if expr.op == "<=":
                    return a <= b
                if expr.op == ">":
                    return a > b
                return a >= b
            except TypeError:
                return False
        if isinstance(expr, nodes.InList):
            value = operand_value(row, expr.operand, row_tagged)
            if value is None:
                return False
            result = value in expr.options
            return (not result) if expr.negated else result
        if isinstance(expr, nodes.IsNull):
            value = operand_value(row, expr.operand, row_tagged)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, nodes.BoolOp):
            if expr.op == "AND":
                return holds(row, expr.left, row_tagged) and holds(
                    row, expr.right, row_tagged
                )
            return holds(row, expr.left, row_tagged) or holds(
                row, expr.right, row_tagged
            )
        # NotOp
        return not holds(row, expr.operand, row_tagged)

    def output_domain(item: "nodes.SelectItem") -> Any:
        expr = item.expr
        if isinstance(expr, nodes.AggregateCall):
            if expr.func == "COUNT":
                return INT
            if expr.func in ("SUM", "AVG"):
                return FLOAT
            operand = expr.operand
        else:
            operand = expr
        if isinstance(operand, nodes.ColumnRef):
            return relation.schema.column(operand.column).domain
        if isinstance(operand, nodes.QualityScoreRef):
            return FLOAT
        if tagged:
            try:
                return relation.tag_schema.definition(operand.indicator).domain
            except Exception:
                return STR
        return STR

    if statement.limit is not None and statement.limit < 0:
        raise QueryError("limit must be non-negative")

    row_tagged = tagged
    rows = list(relation)

    if statement.where is not None:
        rows = [
            row for row in rows if holds(row, statement.where, row_tagged)
        ]

    # -- aggregation -------------------------------------------------------
    if statement.has_aggregates:
        items = statement.select_items or ()
        out_schema = RelationSchema(
            f"{statement.relation}_agg",
            [Column(item.output_name, output_domain(item)) for item in items],
        )
        groups: dict[tuple[Any, ...], list[Any]] = {}
        order: list[tuple[Any, ...]] = []
        for row in rows:
            key = tuple(
                operand_value(row, key_ref, row_tagged)
                for key_ref in statement.group_by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not statement.group_by and not groups:
            groups[()] = []
            order.append(())
        aggregated = Relation(out_schema)
        for key in order:
            group_rows = groups[key]
            values: dict[str, Any] = {}
            for item in items:
                expr = item.expr
                if isinstance(expr, nodes.AggregateCall):
                    if expr.operand is None:  # COUNT(*)
                        values[item.output_name] = len(group_rows)
                    else:
                        values[item.output_name] = AGGREGATES[
                            expr.func.lower()
                        ](
                            [
                                operand_value(row, expr.operand, row_tagged)
                                for row in group_rows
                            ]
                        )
                else:  # a grouping key
                    values[item.output_name] = key[
                        statement.group_by.index(expr)
                    ]
            aggregated.insert(values)
        for order_item in statement.order_by:
            if isinstance(
                order_item.key, (nodes.QualityRef, nodes.QualityScoreRef)
            ):
                raise SQLError(
                    "ORDER BY QUALITY(...) cannot follow aggregation"
                )
            aggregated.schema.column(order_item.key.column)
        agg_rows = list(aggregated)
        for order_item in reversed(statement.order_by):
            agg_rows.sort(
                key=lambda row, name=order_item.key.column: (
                    row[name] is not None,
                    row[name],
                ),
                reverse=order_item.descending,
            )
        if statement.limit is not None:
            agg_rows = agg_rows[: statement.limit]
        result = Relation(out_schema)
        for row in agg_rows:
            result.insert({name: row[name] for name in out_schema.column_names})
        return result

    # -- ORDER BY (before projection: keys may be dropped columns) ---------
    for order_item in reversed(statement.order_by):
        rows.sort(
            key=lambda row, node=order_item.key: (
                operand_value(row, node, row_tagged) is not None,
                operand_value(row, node, row_tagged),
            ),
            reverse=order_item.descending,
        )

    current_schema = relation.schema
    current_tags = relation.tag_schema if tagged else None

    # -- projection --------------------------------------------------------
    items = statement.select_items
    if items is not None:
        if any(
            isinstance(item.expr, (nodes.QualityRef, nodes.QualityScoreRef))
            for item in items
        ):
            # QUALITY(...) value columns materialize a plain relation.
            out_schema = RelationSchema(
                current_schema.name,
                [
                    Column(item.output_name, output_domain(item))
                    for item in items
                ],
            )
            projected = Relation(out_schema)
            for row in rows:
                projected.insert(
                    {
                        item.output_name: operand_value(
                            row, item.expr, row_tagged
                        )
                        for item in items
                    }
                )
            rows = list(projected)
            current_schema = out_schema
            current_tags = None
            row_tagged = False
        else:
            names = [item.expr.column for item in items]
            if not names:
                raise QueryError("projection requires at least one column")
            renames = {
                item.expr.column: item.alias
                for item in items
                if item.alias and item.alias != item.expr.column
            }
            out_schema = current_schema.project(names, None)
            if renames:
                out_schema = out_schema.rename_columns(renames)
            mapping = {name: renames.get(name, name) for name in names}
            if row_tagged:
                out_tags = current_tags.project(names)
                if renames:
                    out_tags = out_tags.rename_columns(renames)
                projected_tagged = TaggedRelation(out_schema, out_tags)
                for row in rows:
                    projected_tagged.insert(
                        {mapping[name]: row[name] for name in names}
                    )
                rows = list(projected_tagged)
                current_tags = out_tags
            else:
                projected = Relation(out_schema)
                for row in rows:
                    projected.insert(
                        {mapping[name]: row[name] for name in names}
                    )
                rows = list(projected)
            current_schema = out_schema

    # -- DISTINCT ----------------------------------------------------------
    if statement.distinct:
        if row_tagged:
            # Conservative tag merge: keep only tags every witness agrees
            # on (mirrors tagging.algebra.distinct_values independently).
            value_groups: dict[tuple[Any, ...], list[Any]] = {}
            group_order: list[tuple[Any, ...]] = []
            for row in rows:
                key = tuple(_freeze(v) for v in row.values_tuple())
                if key not in value_groups:
                    value_groups[key] = []
                    group_order.append(key)
                value_groups[key].append(row)
            distinct_result = TaggedRelation(current_schema, current_tags)
            for key in group_order:
                witnesses = value_groups[key]
                cells: dict[str, QualityCell] = {}
                for name in current_schema.column_names:
                    first = witnesses[0][name]
                    if len(witnesses) == 1:
                        cells[name] = first
                        continue
                    shared = [
                        tag
                        for tag in first.tags
                        if all(
                            other[name].has_tag(tag.name)
                            and other[name].tag(tag.name) == tag
                            for other in witnesses[1:]
                        )
                    ]
                    cells[name] = QualityCell(first.value, shared)
                distinct_result.insert(cells)
            rows = list(distinct_result)
        else:
            seen: set[tuple[Any, ...]] = set()
            unique_rows = []
            for row in rows:
                key = row.values_tuple()
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
            rows = unique_rows

    # -- LIMIT -------------------------------------------------------------
    if statement.limit is not None:
        rows = rows[: statement.limit]

    if row_tagged:
        final_tagged = TaggedRelation(current_schema, current_tags)
        for row in rows:
            final_tagged.insert(
                {name: row[name] for name in current_schema.column_names}
            )
        return final_tagged
    final = Relation(current_schema)
    for row in rows:
        final.insert({name: row[name] for name in current_schema.column_names})
    return final
