"""QSQL execution over relations, tagged relations, and databases.

``execute(sql, source)`` accepts:

- a :class:`~repro.tagging.relation.TaggedRelation` (full QSQL,
  including ``QUALITY(...)`` references);
- a :class:`~repro.relational.relation.Relation` (QUALITY references
  are rejected — untagged data has no tags to query);
- a :class:`~repro.relational.catalog.Database` or a mapping of
  relation name → relation/tagged relation (the FROM clause resolves
  against it).

Results preserve the input's flavor: tagged sources yield tagged
relations (tags travel through the query, per the attribute-based
model), plain sources yield plain relations.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping, Optional, Union

from repro.relational import algebra as plain_algebra
from repro.relational.catalog import Database
from repro.relational.relation import Relation, Row, RowStore
from repro.sql.errors import SQLError
from repro.sql.nodes import (
    AggregateCall,
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
    SelectItem,
    SelectStatement,
)
from repro.sql.parser import parse
from repro.tagging import algebra as tagged_algebra
from repro.tagging.relation import TaggedRelation, TaggedRow

#: QSQL comparison operator → Python comparison.  The planner, the
#: analyzer and both executors share this table (and :data:`_FLIPPED`).
_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
#: Mirror of each comparison when its operands swap sides.
_FLIPPED = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}


def _sql_compare(op: str, a: Any, b: Any) -> Any:
    """``a op b`` under QSQL semantics: NULL or incomparable types → false."""
    if a is None or b is None:
        return False
    try:
        return _COMPARATORS[op](a, b)
    except TypeError:
        return False


def _resolve_relation(
    name: str,
    source: RowStore | Database | Mapping[str, RowStore],
) -> RowStore:
    """The relation a FROM name denotes in ``source``; raises SQLError."""
    if isinstance(source, RowStore):
        if source.schema.name != name:
            raise SQLError(
                f"FROM {name!r} does not match the supplied "
                f"relation {source.schema.name!r}"
            )
        return source
    if isinstance(source, Database):
        return source.relation(name)
    if isinstance(source, Mapping):
        try:
            return source[name]
        except KeyError:
            raise SQLError(
                f"unknown relation {name!r} "
                f"(available: {sorted(source)})"
            ) from None
    raise SQLError(
        f"cannot execute against source of type {type(source).__name__}"
    )


def _compile_operand(
    operand: Any, schema: Any, tagged: bool, tag_schema: Any = None
) -> Callable[[Row | TaggedRow], Any]:
    """Compile an operand node into a per-row getter.

    Column positions resolve once at compile time, so the per-row work
    is a tuple index instead of a name lookup and isinstance dispatch.
    ``tag_schema`` is only needed for ``QUALITY(parameter)`` score
    references (it names the scorable columns).
    """
    if isinstance(operand, Literal):
        value = operand.value
        return lambda row: value
    if isinstance(operand, ColumnRef):
        position = schema.position(operand.column)
        if tagged:
            return lambda row: row.cells[position].value
        return lambda row: row.at(position)
    if isinstance(operand, QualityRef):
        if not tagged:
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is untagged"
            )
        position = schema.position(operand.column)
        indicator = operand.indicator
        return lambda row: row.cells[position].tag_value(indicator)
    if isinstance(operand, QualityScoreRef):
        if not tagged or tag_schema is None:
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is untagged"
            )
        from repro.quality.materialize import (
            profile_for,
            row_parameter_score,
        )

        parameter = operand.parameter
        name = schema.name
        positions = tuple(
            schema.position(column)
            for column in tag_schema.tagged_columns
        )

        def get(row: TaggedRow) -> Any:
            # Resolved per row (a dict lookup) so cached closures never
            # pin a superseded profile registration.
            profile = profile_for(name)
            if profile is None or not profile.defines(parameter):
                raise SQLError(
                    f"QUALITY({parameter}) has no registered scoring "
                    f"profile defining {parameter!r} for relation "
                    f"{name!r}"
                )
            return row_parameter_score(profile, parameter, row, positions)

        return get
    raise SQLError(f"unknown operand node {operand!r}")


def _check_columns(statement: SelectStatement, relation: RowStore) -> None:
    """Validate every referenced column upfront (fail fast, not per-row).

    Routed through the analyzer's reference resolver
    (:func:`repro.analysis.query.reference_diagnostics`), the single
    implementation of name resolution — an unknown column raises here
    with exactly the DQ202 message.  Unknown-column errors take
    precedence over QUALITY-on-untagged, matching the historical check
    order; unknown *indicators* (DQ203/DQ204) do not raise — at
    execution time a missing tag reads as NULL.
    """
    from repro.errors import UnknownColumnError
    from repro.analysis.query import reference_diagnostics

    diagnostics = reference_diagnostics(statement, relation)
    for diagnostic in diagnostics:
        if diagnostic.code == "DQ202":
            raise UnknownColumnError(diagnostic.message)
    for diagnostic in diagnostics:
        if diagnostic.code == "DQ205":
            raise SQLError(
                "QUALITY(...) requires a tagged relation; the source is "
                "untagged"
            )


def _compile_predicate(
    expr: Any, schema: Any, tagged: bool, tag_schema: Any = None
) -> Callable[[Row | TaggedRow], bool]:
    """Compile a WHERE tree into one per-row predicate closure.

    The AST is walked once here; the returned closures short-circuit
    AND/OR without re-dispatching on node types per row.
    """
    if isinstance(expr, Comparison):
        kernel = _column_literal_test(expr, schema, tagged)
        if kernel is not None:
            return kernel
        left = _compile_operand(expr.left, schema, tagged, tag_schema)
        right = _compile_operand(expr.right, schema, tagged, tag_schema)
        compare = _COMPARATORS[expr.op]

        def test(row: Row | TaggedRow) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False  # SQL-style: comparisons with NULL are not true
            try:
                return compare(a, b)
            except TypeError:
                return False

        return test
    if isinstance(expr, InList):
        get = _compile_operand(expr.operand, schema, tagged, tag_schema)
        options = expr.options
        negated = expr.negated

        def test(row: Row | TaggedRow) -> bool:
            value = get(row)
            if value is None:
                return False
            result = value in options
            return (not result) if negated else result

        return test
    if isinstance(expr, IsNull):
        get = _compile_operand(expr.operand, schema, tagged, tag_schema)
        if expr.negated:
            return lambda row: get(row) is not None
        return lambda row: get(row) is None
    if isinstance(expr, BoolOp):
        left_test = _compile_predicate(expr.left, schema, tagged, tag_schema)
        right_test = _compile_predicate(expr.right, schema, tagged, tag_schema)
        if expr.op == "AND":
            return lambda row: left_test(row) and right_test(row)
        return lambda row: left_test(row) or right_test(row)
    if isinstance(expr, NotOp):
        inner = _compile_predicate(expr.operand, schema, tagged, tag_schema)
        return lambda row: not inner(row)
    raise SQLError(f"unknown expression node {expr!r}")


def _column_literal_test(
    expr: Comparison, schema: Any, tagged: bool
) -> Optional[Callable[[Row | TaggedRow], bool]]:
    """``column op literal`` (either side) as one flat per-row closure.

    The general comparison closure calls a getter per operand, three
    Python frames per row; this one reads the cell value inline and
    compares it with the bound constant through the C-level
    ``operator`` function.  A literal on the left flips the operator.
    Same semantics as the general closure: NULL on either side and
    incomparable types are false.  Returns None for other shapes.
    """
    column, literal, op = expr.left, expr.right, expr.op
    if isinstance(column, Literal):
        column, literal, op = literal, column, _FLIPPED[op]
    if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)):
        return None
    position = schema.position(column.column)
    constant = literal.value
    if constant is None:
        return lambda row: False
    compare = _COMPARATORS[op]
    if tagged:

        def test_cell(row: TaggedRow) -> bool:
            value = row.cells[position].value
            if value is None:
                return False
            try:
                return compare(value, constant)
            except TypeError:
                return False

        return test_cell

    def test_value(row: Row) -> bool:
        value = row.at(position)
        if value is None:
            return False
        try:
            return compare(value, constant)
        except TypeError:
            return False

    return test_value


def _sort_key_function(items: tuple, schema: Any, tagged: bool, tag_schema: Any = None):
    getters = []
    for item in items:
        if isinstance(item.key, (QualityRef, QualityScoreRef)):
            getters.append(
                _compile_operand(item.key, schema, tagged, tag_schema)
            )
        else:
            position = schema.position(item.key.column)
            if tagged:
                getters.append(
                    lambda row, p=position: row.cells[p].value
                )
            else:
                getters.append(lambda row, p=position: row.at(p))

    def key(row: Row | TaggedRow) -> tuple:
        # None-safe ordering with per-item direction support handled
        # by sorting repeatedly (stable sort), so here single value.
        parts = []
        for get in getters:
            value = get(row)
            parts.append((value is not None, value))
        return tuple(parts)

    return key


def _operand_domain(
    operand: Union[ColumnRef, QualityRef, QualityScoreRef],
    relation: RowStore,
):
    from repro.relational.types import FLOAT, STR

    if isinstance(operand, ColumnRef):
        return relation.schema.column(operand.column).domain
    if isinstance(operand, QualityScoreRef):
        return FLOAT  # parameter scores live in [0, 1]
    if isinstance(relation, TaggedRelation):
        try:
            return relation.tag_schema.definition(operand.indicator).domain
        except Exception:
            return STR
    return STR  # pragma: no cover - QUALITY on plain rejected earlier


def _item_output_domain(item: SelectItem, relation: RowStore):
    from repro.relational.types import FLOAT, INT

    expr = item.expr
    if isinstance(expr, AggregateCall):
        if expr.func == "COUNT":
            return INT
        if expr.func in ("SUM", "AVG"):
            return FLOAT
        assert expr.operand is not None  # parser guarantees for MIN/MAX
        return _operand_domain(expr.operand, relation)
    return _operand_domain(expr, relation)


def _execute_aggregate(
    statement: SelectStatement, relation: RowStore, tagged: bool
) -> Relation:
    """GROUP BY + aggregate evaluation; always yields a plain relation."""
    from repro.relational.algebra import AGGREGATES
    from repro.relational.schema import Column, RelationSchema

    items = statement.select_items or ()
    out_columns = [
        Column(item.output_name, _item_output_domain(item, relation))
        for item in items
    ]
    out_schema = RelationSchema(f"{statement.relation}_agg", out_columns)

    tag_schema = relation.tag_schema if tagged else None
    key_getters = [
        _compile_operand(key_ref, relation.schema, tagged, tag_schema)
        for key_ref in statement.group_by
    ]
    groups: dict[tuple[Any, ...], list[Any]] = {}
    order: list[tuple[Any, ...]] = []
    for row in relation:
        key = tuple(get(row) for get in key_getters)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not statement.group_by and not groups:
        groups[()] = []
        order.append(())

    def item_evaluator(item: SelectItem) -> Callable[[list, dict], Any]:
        expr = item.expr
        if isinstance(expr, AggregateCall):
            if expr.operand is None:  # COUNT(*)
                return lambda rows, key_values: len(rows)
            get = _compile_operand(
                expr.operand, relation.schema, tagged, tag_schema
            )
            combine = AGGREGATES[expr.func.lower()]
            return lambda rows, key_values: combine([get(row) for row in rows])
        # A grouping key (validated by the parser).
        return lambda rows, key_values: key_values[expr]

    evaluators = [(item.output_name, item_evaluator(item)) for item in items]
    result = Relation(out_schema)
    for key in order:
        rows = groups[key]
        key_values = dict(zip(statement.group_by, key))
        # Aggregates compute *new* values, so they go through the
        # validating insert, unlike pass-through rows elsewhere.
        result.insert(
            {name: evaluate(rows, key_values) for name, evaluate in evaluators}
        )
    return result


def _computed_projection(
    statement: SelectStatement, relation: RowStore, tagged: bool
) -> Relation:
    """Evaluate a select list containing QUALITY(...) value columns."""
    from repro.relational.schema import Column, RelationSchema

    items = statement.select_items or ()
    out_schema = RelationSchema(
        relation.schema.name,
        [
            Column(item.output_name, _item_output_domain(item, relation))
            for item in items
        ],
    )
    tag_schema = relation.tag_schema if tagged else None
    getters = [
        (
            item.output_name,
            _compile_operand(item.expr, relation.schema, tagged, tag_schema),
        )
        for item in items
    ]
    result = Relation(out_schema)
    for row in relation:
        result.insert({name: get(row) for name, get in getters})
    return result


def _apply_order(
    statement: SelectStatement, result: RowStore, tagged: bool
) -> RowStore:
    # Stable multi-key sort honoring per-item direction: sort by the
    # least-significant key first.
    rows = list(result)
    tag_schema = getattr(result, "tag_schema", None) if tagged else None
    for item in reversed(statement.order_by):
        rows.sort(
            key=_sort_key_function((item,), result.schema, tagged, tag_schema),
            reverse=item.descending,
        )
    ordered = result.empty_like()
    for row in rows:
        ordered._insert_validated(row)
    return ordered


def execute(
    sql: str,
    source: RowStore | Database | Mapping[str, RowStore],
    *,
    strict: bool = False,
    planner: bool = True,
    stats: Any = None,
) -> RowStore:
    """Parse and execute a QSQL SELECT; returns a (tagged) relation.

    Aggregate queries (``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``, with
    optional ``GROUP BY``) always return a *plain* relation — aggregated
    values have no single manufacturing history to tag.

    With ``strict=True`` the statement first runs through the static
    analyzer (:mod:`repro.analysis`); error-severity diagnostics raise
    :class:`~repro.analysis.diagnostics.QueryAnalysisError` *before*
    any row is touched, with every problem reported at once.

    By default statements run through the query planner
    (:mod:`repro.sql.plan` / :mod:`repro.sql.optimizer` /
    :mod:`repro.sql.physical`) with plan caching
    (:mod:`repro.sql.plancache`): repeated statement texts skip
    lexing, parsing, and planning, and QUALITY predicates route through
    the relation's columnar tag store.  ``planner=False`` is the escape
    hatch onto the direct interpretation path below (one compiled
    closure per clause, no plan, no cache) — semantically equivalent,
    and kept as the reference baseline.

    Planned statements run over batches: per-column value arrays plus
    a selection vector, with rows built once, for the result (see
    :mod:`repro.sql.physical`).

    ``stats`` accepts a :class:`~repro.obs.stats.StatsCollector`: after
    the call it holds the per-operator execution tree (what
    ``EXPLAIN ANALYZE`` renders) plus total time, row count, and — on
    the planner path — whether a cached plan was reused.  Collection is
    per-call and never changes the result.
    """
    if planner:
        # Imported lazily: plancache depends on this module.
        from repro.sql.plancache import execute_planned

        return execute_planned(sql, source, strict=strict, collector=stats)
    return _execute_unplanned(sql, source, strict=strict, collector=stats)


def _explain_requires_planner(sql: str, statement: SelectStatement) -> None:
    """Raise the DQ209 diagnostic: EXPLAIN has no plan to render here.

    Historically ``execute(..., planner=False)`` silently routed EXPLAIN
    through the planner anyway — contradicting the caller's explicit
    request for the plan-free path.  Now it fails loudly instead.
    """
    from repro.analysis.diagnostics import Diagnostics, QueryAnalysisError

    keyword = "EXPLAIN ANALYZE" if statement.analyze else "EXPLAIN"
    start = sql.upper().find("EXPLAIN")
    span = (start, start + len(keyword)) if start >= 0 else None
    diagnostics = Diagnostics()
    diagnostics.add(
        "DQ209",
        f"{keyword} requires the planner: it reports the optimized plan, "
        f"which execute(..., planner=False) never builds; drop "
        f"planner=False or drop the {keyword} keyword",
        span=span,
        source=sql,
    )
    raise QueryAnalysisError(diagnostics, sql)


def _execute_unplanned(
    sql: str,
    source: RowStore | Database | Mapping[str, RowStore],
    *,
    strict: bool = False,
    collector: Any = None,
) -> RowStore:
    """The planner-free execution path (see ``execute(planner=False)``)."""
    from time import perf_counter

    statement = parse(sql)
    if strict:
        # Imported lazily: plancache depends on this module.  The memo
        # it keeps makes repeat strict runs free on this path too.
        from repro.sql.plancache import run_strict_analysis

        run_strict_analysis(statement, source, sql)
    if statement.explain:
        _explain_requires_planner(sql, statement)

    # Per-stage statistics: ``stages`` collects (label, rows out,
    # seconds) per executed clause, in pipeline order, only when a
    # collector was passed — the common path never starts a timer.
    stages: list[tuple[str, int, float]] | None = (
        [] if collector is not None else None
    )
    total_start = perf_counter() if collector is not None else 0.0

    def _finish(result: RowStore) -> RowStore:
        if collector is not None:
            from repro.obs.stats import ExecutionStats

            collector._fill(
                sql,
                ExecutionStats.from_stages(stages),
                perf_counter() - total_start,
                len(result),
                planned=False,
                cache_hit=False,
            )
        return result

    relation = _resolve_relation(statement.relation, source)
    tagged = isinstance(relation, TaggedRelation)
    _check_columns(statement, relation)
    if statement.uses_quality() and not tagged:
        raise SQLError(
            "QUALITY(...) requires a tagged relation; the source is untagged"
        )

    algebra = tagged_algebra if tagged else plain_algebra
    result: RowStore = relation
    if stages is not None:
        flavor = "tagged" if tagged else "plain"
        stages.append(
            (f"Scan [{statement.relation} ({flavor})]", len(relation), 0.0)
        )

    if statement.where is not None:
        stage_start = perf_counter() if stages is not None else 0.0
        result = algebra.select(
            result,
            _compile_predicate(
                statement.where,
                relation.schema,
                tagged,
                relation.tag_schema if tagged else None,
            ),
        )
        if stages is not None:
            stages.append(
                (
                    "Filter [WHERE]",
                    len(result),
                    perf_counter() - stage_start,
                )
            )

    if statement.has_aggregates:
        stage_start = perf_counter() if stages is not None else 0.0
        aggregated = _execute_aggregate(statement, result, tagged)
        if stages is not None:
            stages.append(
                ("Aggregate", len(aggregated), perf_counter() - stage_start)
            )
        if statement.order_by:
            for item in statement.order_by:
                if isinstance(item.key, (QualityRef, QualityScoreRef)):
                    raise SQLError(
                        "ORDER BY QUALITY(...) cannot follow aggregation"
                    )
                aggregated.schema.column(item.key.column)
            stage_start = perf_counter() if stages is not None else 0.0
            aggregated = _apply_order(statement, aggregated, tagged=False)
            if stages is not None:
                stages.append(
                    ("Sort", len(aggregated), perf_counter() - stage_start)
                )
        if statement.limit is not None:
            aggregated = plain_algebra.limit(aggregated, statement.limit)
            if stages is not None:
                stages.append(
                    (f"Limit [{statement.limit}]", len(aggregated), 0.0)
                )
        return _finish(aggregated)

    if statement.order_by:
        stage_start = perf_counter() if stages is not None else 0.0
        result = _apply_order(statement, result, tagged)
        if stages is not None:
            stages.append(("Sort", len(result), perf_counter() - stage_start))

    items = statement.select_items
    if items is not None:
        stage_start = perf_counter() if stages is not None else 0.0
        needs_materialization = any(
            isinstance(item.expr, (QualityRef, QualityScoreRef))
            for item in items
        )
        if needs_materialization:
            result = _computed_projection(statement, result, tagged)
            tagged = False
            algebra = plain_algebra
        else:
            names = [item.expr.column for item in items]  # type: ignore[union-attr]
            result = algebra.project(result, names)
            renames = {
                item.expr.column: item.alias  # type: ignore[union-attr]
                for item in items
                if item.alias and item.alias != item.expr.column  # type: ignore[union-attr]
            }
            if renames:
                result = algebra.rename(result, renames)
        if stages is not None:
            stages.append(
                ("Project", len(result), perf_counter() - stage_start)
            )

    if statement.distinct:
        stage_start = perf_counter() if stages is not None else 0.0
        if tagged:
            result = tagged_algebra.distinct_values(result)
        else:
            result = plain_algebra.distinct(result)
        if stages is not None:
            stages.append(
                ("Distinct", len(result), perf_counter() - stage_start)
            )

    if statement.limit is not None:
        result = algebra.limit(result, statement.limit)
        if stages is not None:
            stages.append((f"Limit [{statement.limit}]", len(result), 0.0))

    return _finish(result)
