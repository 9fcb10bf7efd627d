"""QSQL plan cache: skip lexing/parsing/planning on repeated statements.

A :class:`PlanCache` maps a statement and the caller's options to
:class:`PreparedStatement` entries — the parsed AST, the optimized
plan, and the compiled physical plan.  The lookup key is
``(statement text, REPRO_VERIFY_PLANS)``: the flag selects whether the
compiled plan carries the batch sanitizer, it is not state.

Validity has one rule.  Planning reads the source's mutable state only
through a :class:`~repro.sql.context.PlanContext`, which records every
fact it read — relation kind, schema and tag-schema identity, catalog
version, partition layout, a hash-join build side's row count — and
the entry keeps that record.  A lookup re-reads exactly those facts
against the live source; the entry is served iff all are unchanged.
Nothing else invalidates a plan: compiled plans bind relations at
*execution* time, so row mutations matter only to join plans whose
build-side choice read a row count, and no plan reads the scoring
registry — a ``QUALITY(parameter)`` operand looks up the bound profile
on each execution — so profile churn leaves every plan cached.

One statement key keeps a few entries, most recently used first, one
per distinct source state it was answered for (a flat and a partitioned
relation of the same name alternate without replanning); older ones —
dropped schemas, superseded layouts — age out past
:data:`ENTRIES_PER_KEY`, so a hit never walks a long tail of dead
entries.

With ``REPRO_VERIFY_PLANS=1`` every entry is audited on install and on
each hit by :func:`~repro.analysis.verifier.verify_cache_entry`
(DQ409): a fresh re-plan must read nothing the entry did not record
and produce the cached plan.

Strict-mode analysis is memoized in an :class:`AnalysisMemo` under the
same rule — the analyzer reads through a recorder too, so a verdict is
replayed only while the schemas, catalog and scoring profile it read
are unchanged, so ``execute(..., strict=True)`` pays the analysis pass
once per (statement, source state) — including for statements that
*fail* analysis, which never reach the plan cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Hashable, Mapping, Optional, Union

from repro.obs import metrics as _obs_metrics
from repro.obs.stats import ExecutionStats, StatsCollector
from repro.obs.trace import global_tracer
from repro.relational.catalog import Database
from repro.relational.relation import Relation, RowStore
from repro.relational.schema import Column, RelationSchema
from repro.sql.context import PlanContext, Reads
from repro.sql.errors import SQLError
from repro.sql.executor import _check_columns
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.physical import CompiledPlan, compile_plan, sanitize_enabled
from repro.sql.plan import PlanNode, logical_plan, render_plan

Source = Union[RowStore, Database, Mapping[str, RowStore]]

#: Entries kept per statement key, most recently used first.
ENTRIES_PER_KEY = 4


class PreparedStatement:
    """One cached statement: AST + optimized plan + compiled plan, and
    the reads planning made (its whole validity condition)."""

    __slots__ = ("key", "statement", "plan", "compiled", "reads")

    def __init__(
        self,
        sql: str,
        statement: Any,
        plan: PlanNode,
        compiled: CompiledPlan,
        reads: Reads,
        sanitize: Optional[bool] = None,
    ) -> None:
        #: The lookup key: statement text plus whether it was compiled
        #: with the sanitizer (``sanitize`` defaults to the current
        #: REPRO_VERIFY_PLANS flag, like compile_plan's own).
        self.key = _plan_key(sql, sanitize)
        self.statement = statement
        self.plan = plan
        self.compiled = compiled
        self.reads = reads

    @property
    def sql(self) -> str:
        return self.key[0]


def _plan_key(sql: str, sanitize: Optional[bool]) -> tuple[str, bool]:
    if sanitize is None:
        sanitize = sanitize_enabled()
    return sql, sanitize


class _ValidatedLRU:
    """A bounded LRU of cached values, each valid while its reads hold.

    Keys map to at most :data:`ENTRIES_PER_KEY` ``(reads, value)``
    pairs, most recently used first; at most ``max_statements`` keys
    are kept.  Thread-safe: lookup/store/clear/stats hold an internal
    lock, so concurrent sessions sharing a cache never corrupt the LRU
    order or lose hit/miss counts.
    """

    def __init__(self, max_statements: int = 256) -> None:
        self.max_statements = max_statements
        self._entries: OrderedDict[Hashable, list[tuple[Reads, Any]]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    def _find(
        self, key: Hashable, source: Any
    ) -> Optional[tuple[Any, PlanContext]]:
        """The value whose reads still hold in ``source`` (and the
        context that re-read them), or None."""
        with self._lock:
            entries = self._entries.get(key)
            if entries is not None:
                live = PlanContext(source)
                for index, (reads, value) in enumerate(entries):
                    if live.unchanged(reads):
                        if index:
                            entries.insert(0, entries.pop(index))
                        self._entries.move_to_end(key)
                        self.hits += 1
                        return value, live
            self.misses += 1
            return None

    def _put(self, key: Hashable, reads: Reads, value: Any) -> None:
        with self._lock:
            entries = self._entries.get(key)
            if entries is None:
                entries = self._entries[key] = []
            entries.insert(0, (reads, value))
            del entries[ENTRIES_PER_KEY:]
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_statements:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "statements": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class PlanCache(_ValidatedLRU):
    """Statement → prepared-statement cache (see the module doc)."""

    def lookup(
        self,
        sql: str,
        source: Source,
        sanitize: Optional[bool] = None,
    ) -> Optional[tuple[PreparedStatement, RowStore]]:
        """A (prepared, bound relation) pair, or None on miss."""
        found = self._find(_plan_key(sql, sanitize), source)
        if found is None:
            return None
        entry, live = found
        return entry, live.bind(entry.statement.relation)

    def store(self, entry: PreparedStatement) -> None:
        self._put(entry.key, entry.reads, entry)


class AnalysisMemo(_ValidatedLRU):
    """Memoized ``strict=True`` analysis verdicts, keyed by statement
    text and validated by the reads the analyzer made.  Stores failing
    verdicts too — rejected statements never reach the plan cache, so
    without the memo every retry would re-run the full analysis pass."""

    def lookup(self, sql: str, source: Source) -> Optional[Any]:
        """The memoized Diagnostics, or None when analysis must run."""
        found = self._find(sql, source)
        return None if found is None else found[0]

    def store(self, sql: str, reads: Reads, diagnostics: Any) -> None:
        self._put(sql, reads, diagnostics)


#: The process-wide default cache used by ``execute``.
_DEFAULT_CACHE = PlanCache()

#: The process-wide strict-analysis memo (both execute paths).
_DEFAULT_ANALYSIS_MEMO = AnalysisMemo()


def default_plan_cache() -> PlanCache:
    return _DEFAULT_CACHE


def default_analysis_memo() -> AnalysisMemo:
    return _DEFAULT_ANALYSIS_MEMO


def clear_plan_cache() -> None:
    """Empty the default cache and the strict-analysis memo."""
    _DEFAULT_CACHE.clear()
    _DEFAULT_ANALYSIS_MEMO.clear()


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the default cache."""
    return _DEFAULT_CACHE.stats()


# -- planning + execution ----------------------------------------------------


def plan_statement(
    statement: Any, source: Source
) -> tuple[PlanNode, RowStore, PlanContext]:
    """Resolve, pre-check, lower, and optimize one parsed statement.

    Returns the plan, the relation it binds, and the
    :class:`~repro.sql.context.PlanContext` whose recorded reads are
    the plan's validity condition.
    """
    context = PlanContext(source)
    relation = context.bind(statement.relation)
    tagged = context.kind(statement.relation) == "tagged"
    _check_columns(statement, relation)
    if statement.uses_quality() and not tagged:
        raise SQLError(
            "QUALITY(...) requires a tagged relation; the source is untagged"
        )
    plan = logical_plan(statement, tagged)
    return optimize(plan, context), relation, context


_EXPLAIN_SCHEMA = RelationSchema("explain", [Column("plan", "STR")])


def explain_relation(plan: PlanNode) -> Relation:
    """Render a plan tree as the single-column relation EXPLAIN returns."""
    result = Relation(_EXPLAIN_SCHEMA)
    for line in render_plan(plan):
        result.insert({"plan": line})
    return result


def explain_analyze_relation(stats: ExecutionStats) -> Relation:
    """Render an executed stats tree as EXPLAIN ANALYZE's relation."""
    result = Relation(_EXPLAIN_SCHEMA)
    for line in stats.render_lines():
        result.insert({"plan": line})
    return result


def _span(name: str, **attributes: Any):
    """A tracer span when ambient instrumentation is on, else a no-op."""
    if _obs_metrics.enabled():
        return global_tracer().span(name, **attributes)
    return nullcontext()


def run_strict_analysis(
    statement: Any,
    source: Source,
    sql: str,
    memo: Optional[AnalysisMemo] = None,
) -> None:
    """Strict-mode gate: analyze (or recall) and raise on errors.

    Consults the :class:`AnalysisMemo` first: a verdict is replayed
    while every catalog fact the analyzer read for it is unchanged.
    Statements whose relation cannot be resolved are analyzed uncached
    (the diagnostics list the source's relations, which are not a
    recorded read).
    """
    if memo is None:
        memo = _DEFAULT_ANALYSIS_MEMO
    diagnostics = memo.lookup(sql, source)
    if diagnostics is None:
        from repro.analysis.query import analyze_statement

        context = PlanContext(source)
        diagnostics = analyze_statement(statement, context, sql=sql)
        if context.kind(statement.relation) is not None:
            memo.store(sql, context.reads, diagnostics)
    if diagnostics.has_errors:
        from repro.analysis.diagnostics import QueryAnalysisError

        raise QueryAnalysisError(diagnostics, sql)


def _verify_entry(entry: PreparedStatement, source: Source) -> None:
    """REPRO_VERIFY_PLANS hook: audit one cache entry, raise on DQ409."""
    from repro.analysis.verifier import (
        PlanVerificationError,
        verify_cache_entry,
    )

    diagnostics = verify_cache_entry(entry, source)
    if diagnostics.has_errors:
        raise PlanVerificationError(diagnostics, entry.sql)


def _record_execution(
    sql: str,
    compiled: CompiledPlan,
    binding: Mapping[str, Any],
    collector: Optional[StatsCollector],
    cache_hit: bool,
) -> tuple[RowStore, Optional[ExecutionStats]]:
    """Execute a compiled plan, feeding the ambient and per-call sinks.

    The fast path — no collector, instrumentation off — falls through
    to a bare ``compiled.execute`` with no timers and no stats tree.
    """
    obs_on = _obs_metrics.enabled()
    if collector is None and not obs_on:
        return compiled.execute(binding), None
    stats = compiled.new_stats() if collector is not None else None
    start = perf_counter()
    result = compiled.execute(binding, stats)
    elapsed = perf_counter() - start
    if obs_on:
        registry = _obs_metrics.global_registry()
        registry.counter(
            "qsql.executions", "QSQL statements executed (planner path)"
        ).inc()
        registry.histogram(
            "qsql.statement_seconds",
            description="wall time per planner-path statement execution",
        ).observe(elapsed)
    if collector is not None:
        collector._fill(sql, stats, elapsed, len(result), cache_hit=cache_hit)
    return result, stats


def execute_planned(
    sql: str,
    source: Source,
    *,
    strict: bool = False,
    cache: Optional[PlanCache] = None,
    collector: Optional[StatsCollector] = None,
) -> RowStore:
    """The planner-backed execute path (see ``executor.execute``).

    ``collector`` is the per-call statistics hook: when given, the
    compiled plan executes against a fresh
    :class:`~repro.obs.stats.ExecutionStats` tree and the collector is
    filled with it (plus total time, row count, and cache-hit status).
    Ambient metrics — cache hits/misses, executions, statement-latency
    histogram — flow into the global registry whenever
    :func:`repro.obs.enabled` is on.
    """
    if cache is None:
        cache = _DEFAULT_CACHE
    obs_on = _obs_metrics.enabled()
    verify = sanitize_enabled()
    found = cache.lookup(sql, source, sanitize=verify)
    if found is not None:
        if obs_on:
            _obs_metrics.global_registry().counter(
                "qsql.plancache.hits", "plan-cache lookups reusing an entry"
            ).inc()
        prepared, relation = found
        if verify:
            _verify_entry(prepared, source)
        if strict:
            run_strict_analysis(prepared.statement, source, sql)
        binding = {prepared.statement.relation: relation}
        result, _ = _record_execution(
            sql, prepared.compiled, binding, collector, cache_hit=True
        )
        return result

    if obs_on:
        _obs_metrics.global_registry().counter(
            "qsql.plancache.misses", "plan-cache lookups requiring planning"
        ).inc()
    with _span("qsql.parse"):
        statement = parse(sql)
    if strict:
        run_strict_analysis(statement, source, sql)
    with _span("qsql.plan", relation=statement.relation):
        plan, relation, context = plan_statement(statement, source)
    if statement.explain and not statement.analyze:
        return explain_relation(plan)
    binding = {statement.relation: relation}
    with _span("qsql.compile"):
        compiled = compile_plan(plan, binding, sanitize=verify)
    if statement.explain:
        # EXPLAIN ANALYZE: run the statement against a fresh stats tree
        # and return the annotated plan instead of the result.  Like
        # EXPLAIN, the entry is not cached (its output depends on the
        # data, not just the statement text).
        stats = compiled.new_stats()
        start = perf_counter()
        result = compiled.execute(binding, stats)
        elapsed = perf_counter() - start
        if collector is not None:
            collector._fill(sql, stats, elapsed, len(result), cache_hit=False)
        return explain_analyze_relation(stats)
    entry = PreparedStatement(
        sql, statement, plan, compiled, context.reads, verify
    )
    if verify:
        _verify_entry(entry, source)
    cache.store(entry)
    result, _ = _record_execution(
        sql, compiled, binding, collector, cache_hit=False
    )
    return result
