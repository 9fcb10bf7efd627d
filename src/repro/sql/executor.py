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
from typing import Any, Callable, Mapping

from repro.relational.catalog import Database
from repro.relational.relation import RowStore
from repro.sql.errors import SQLError
from repro.sql.nodes import SelectStatement
from repro.sql.parser import parse

#: QSQL comparison operator → Python comparison.  The optimizer, the
#: analyzer and the physical executor share this table (and
#: :data:`_FLIPPED`).
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

    Statements run through the query planner (:mod:`repro.sql.plan` /
    :mod:`repro.sql.optimizer` / :mod:`repro.sql.physical`) with plan
    caching (:mod:`repro.sql.plancache`): repeated statement texts skip
    lexing, parsing, and planning.  Plans run over batches: per-column
    value arrays (and, for ``QUALITY(...)`` operands, tag and score
    arrays) plus a selection vector, with rows built once, for the
    result.

    ``stats`` accepts a :class:`~repro.obs.stats.StatsCollector`: after
    the call it holds the per-operator execution tree (what
    ``EXPLAIN ANALYZE`` renders) plus total time, row count, and
    whether a cached plan was reused.  Collection is per-call and never
    changes the result.

    ``planner=False`` answers through the test oracle instead,
    :func:`repro.experiments.naive.naive_execute`, after strict analysis
    when ``strict=True``; it fills no ``stats`` and, like the oracle,
    rejects ``EXPLAIN`` with a :class:`~repro.errors.QueryError`.  The
    keyword remains only because the request-path benchmark's output
    check (``perfbench``) passes it; it goes once that check calls
    ``naive_execute`` directly.
    """
    if not planner:
        from repro.experiments.naive import naive_execute

        if strict:
            from repro.sql.plancache import run_strict_analysis

            run_strict_analysis(parse(sql), source, sql)
        return naive_execute(sql, source)
    # Imported lazily: plancache depends on this module.
    from repro.sql.plancache import execute_planned

    return execute_planned(sql, source, strict=strict, collector=stats)
