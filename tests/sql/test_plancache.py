"""Plan-cache behavior: hits, invalidation, and mutation safety."""

from __future__ import annotations

import pytest

from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql.plancache import PlanCache, execute_planned
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation


def make_relation(name="t", rows=((1, "x"), (2, "y"), (3, "x"))):
    schema = RelationSchema(name, [Column("a", "INT"), Column("b", "STR")])
    return Relation.from_tuples(schema, rows)


def values(result):
    return [row.values_tuple() for row in result]


class TestHitsAndMisses:
    def test_repeat_statement_hits(self):
        cache = PlanCache()
        relation = make_relation()
        sql = "SELECT a FROM t WHERE b = 'x'"
        first = execute_planned(sql, relation, cache=cache)
        second = execute_planned(sql, relation, cache=cache)
        assert values(first) == values(second) == [(1,), (3,)]
        stats = cache.stats()
        assert stats == {"statements": 1, "hits": 1, "misses": 1}

    def test_different_statements_cached_separately(self):
        cache = PlanCache()
        relation = make_relation()
        execute_planned("SELECT a FROM t", relation, cache=cache)
        execute_planned("SELECT b FROM t", relation, cache=cache)
        assert cache.stats()["statements"] == 2

    def test_explain_is_not_cached(self):
        cache = PlanCache()
        relation = make_relation()
        execute_planned("EXPLAIN SELECT a FROM t", relation, cache=cache)
        assert cache.stats()["statements"] == 0

    def test_lru_eviction_bounds_size(self):
        cache = PlanCache(max_statements=3)
        relation = make_relation()
        for limit in range(5):
            execute_planned(
                f"SELECT a FROM t LIMIT {limit}", relation, cache=cache
            )
        assert cache.stats()["statements"] == 3


class TestInvalidation:
    def test_schema_identity_mismatch_misses(self):
        cache = PlanCache()
        sql = "SELECT a FROM t"
        execute_planned(sql, make_relation(), cache=cache)
        # A structurally identical but *recreated* relation must miss:
        # the cached plan was compiled against different schema objects.
        other = make_relation(rows=((9, "z"),))
        result = execute_planned(sql, other, cache=cache)
        assert values(result) == [(9,)]
        assert cache.hits == 0 and cache.misses == 2

    def test_same_schema_different_rows_hits(self):
        cache = PlanCache()
        schema = RelationSchema(
            "t", [Column("a", "INT"), Column("b", "STR")]
        )
        relation = Relation.from_tuples(schema, [(1, "x")])
        sql = "SELECT a FROM t"
        execute_planned(sql, relation, cache=cache)
        # Same schema object, new data: the cached plan binds the
        # relation at execution time, so the hit sees the new rows.
        relation.insert({"a": 2, "b": "y"})
        result = execute_planned(sql, relation, cache=cache)
        assert values(result) == [(1,), (2,)]
        assert cache.hits == 1

    def test_catalog_version_invalidates_database_plans(self):
        database = Database("db")
        schema = RelationSchema(
            "t", [Column("a", "INT"), Column("b", "STR")]
        )
        relation = database.create_relation(schema)
        relation.insert({"a": 1, "b": "x"})
        cache = PlanCache()
        sql = "SELECT a FROM t"
        execute_planned(sql, database, cache=cache)
        execute_planned(sql, database, cache=cache)
        assert cache.hits == 1
        # create/drop bumps catalog_version: the cached entry goes stale.
        database.create_relation(
            RelationSchema("u", [Column("x", "INT")])
        )
        result = execute_planned(sql, database, cache=cache)
        assert values(result) == [(1,)]
        assert cache.hits == 1 and cache.misses == 2

    def test_repartition_invalidates_pruned_plan(self):
        from repro.relational import hash_partitions
        from repro.sql.plan import Scan

        cache = PlanCache()
        relation = make_relation()
        relation.repartition(hash_partitions("b", 8))
        sql = "SELECT a FROM t WHERE b = 'x'"
        first = execute_planned(sql, relation, cache=cache)
        entry = cache.lookup(sql, relation)[0]

        def scan_of(plan):
            node = plan
            while not isinstance(node, Scan):
                node = node.child
            return node

        pruned = scan_of(entry.plan)
        assert pruned.partitions is not None
        assert pruned.partition_total == 8
        # Relayout: the entry pins the old partition layout version, so
        # the lookup misses and the replan targets the new bucket count.
        relation.repartition(hash_partitions("b", 2))
        assert cache.lookup(sql, relation) is None
        second = execute_planned(sql, relation, cache=cache)
        assert values(second) == values(first) == [(1,), (3,)]
        fresh = scan_of(cache.lookup(sql, relation)[0].plan)
        assert fresh.partition_total == 2
        assert cache.stats()["misses"] == 3  # cold, stale lookup, replan

    def test_drop_and_recreate_recompiles(self):
        database = Database("db")
        schema = RelationSchema(
            "t", [Column("a", "INT"), Column("b", "STR")]
        )
        database.create_relation(schema).insert({"a": 1, "b": "x"})
        cache = PlanCache()
        sql = "SELECT * FROM t"
        execute_planned(sql, database, cache=cache)
        database.drop_relation("t")
        replacement = RelationSchema(
            "t", [Column("a", "INT"), Column("c", "INT")]
        )
        database.create_relation(replacement).insert({"a": 5, "c": 7})
        result = execute_planned(sql, database, cache=cache)
        assert result.schema.column_names == ("a", "c")
        assert values(result) == [(5, 7)]


class TestTaggedPlans:
    def test_columnar_store_rebuilds_after_mutation(self):
        schema = RelationSchema("t", [Column("a", "INT")])
        tags = TagSchema(
            [IndicatorDefinition("source", "STR")],
            allowed={"a": ["source"]},
        )
        relation = TaggedRelation(schema, tags)
        for index in range(4):
            relation.insert(
                {
                    "a": QualityCell(
                        index,
                        [IndicatorValue("source", "s1" if index < 2 else "s2")],
                    )
                }
            )
        cache = PlanCache()
        sql = "SELECT a FROM t WHERE QUALITY(a.source) = 's1'"
        first = execute_planned(sql, relation, cache=cache)
        assert values(first) == [(0,), (1,)]
        read = relation.tag_array("a", "source")
        # Mutate the relation: the cached plan must not serve the stale
        # tag array (the epoch and row count gate the array cache).
        relation.insert(
            {"a": QualityCell(9, [IndicatorValue("source", "s1")])}
        )
        second = execute_planned(sql, relation, cache=cache)
        assert values(second) == [(0,), (1,), (9,)]
        assert cache.hits == 1
        assert read == ["s1", "s1", "s2", "s2"]
        assert relation.tag_array("a", "source") == read + ["s1"]

    def test_strict_mode_checked_once_then_cached(self):
        from repro.sql.plancache import AnalysisMemo, run_strict_analysis

        relation = make_relation()
        cache = PlanCache()
        sql = "SELECT a FROM t"
        execute_planned(sql, relation, cache=cache, strict=True)
        execute_planned(sql, relation, cache=cache, strict=True)
        assert cache.hits == 1
        # The hit replays the memoized verdict instead of re-analyzing.
        memo = AnalysisMemo()
        for _ in range(2):
            run_strict_analysis(cache.lookup(sql, relation)[0].statement,
                                relation, sql, memo)
        assert memo.stats()["misses"] == 1 and memo.stats()["hits"] == 1

    def test_strict_errors_still_raise_on_cached_plan(self):
        from repro.analysis.diagnostics import QueryAnalysisError

        relation = make_relation()
        cache = PlanCache()
        sql = "SELECT a FROM t WHERE b = 'x' AND b <> 'x'"
        # Plan compiles and caches fine without strict...
        execute_planned(sql, relation, cache=cache)
        # ...but strict mode on the *cached* entry still analyzes.
        with pytest.raises(QueryAnalysisError):
            execute_planned(sql, relation, cache=cache, strict=True)


class TestColumnarKeying:
    """The lookup key is the statement text (plus the sanitizer flag):
    there is no execution mode to key on, and plans read no relation
    size, so growth and shrinkage never invalidate an entry."""

    SQL = "SELECT a FROM t WHERE a >= 0"

    def test_row_count_changes_keep_plain_entries(self):
        cache = PlanCache()
        relation = make_relation(rows=[(i, "x") for i in range(4)])
        execute_planned(self.SQL, relation, cache=cache)
        for i in range(100):
            relation.insert({"a": 100 + i, "b": "y"})
        assert len(execute_planned(self.SQL, relation, cache=cache)) == 104
        relation.delete(lambda row: row["a"] >= 4)
        assert len(execute_planned(self.SQL, relation, cache=cache)) == 4
        assert cache.misses == 1 and cache.hits == 2

    def test_tagged_entries_carry_no_band(self):
        schema = RelationSchema("t", [Column("a", "INT")])
        tags = TagSchema(
            [IndicatorDefinition("source", "STR")], allowed={"a": ["source"]}
        )
        relation = TaggedRelation(schema, tags)
        for index in range(80):
            relation.insert({"a": QualityCell(index)})
        cache = PlanCache()
        execute_planned(self.SQL, relation, cache=cache)
        entry = cache.lookup(self.SQL, relation)[0]
        # No plan reads a relation's size (only hash-join build sides
        # do), so size changes must not invalidate it.
        assert "cardinality" not in {fact for fact, _, _ in entry.reads}
        relation.insert({"a": QualityCell(999)})
        assert cache.lookup(self.SQL, relation) is not None


class TestAnalysisMemo:
    """Strict-mode analysis is memoized beside the plan cache."""

    def _count_analyzer_calls(self, monkeypatch):
        import repro.analysis.query as query_mod

        calls = []
        real = query_mod.analyze_statement

        def counting(statement, source, sql=None, context=""):
            calls.append(sql)
            return real(statement, source, sql=sql, context=context)

        monkeypatch.setattr(query_mod, "analyze_statement", counting)
        return calls

    def test_repeat_strict_analysis_hits_memo(self, monkeypatch):
        from repro.sql.parser import parse
        from repro.sql.plancache import AnalysisMemo, run_strict_analysis

        calls = self._count_analyzer_calls(monkeypatch)
        relation = make_relation()
        memo = AnalysisMemo()
        sql = "SELECT a FROM t"
        statement = parse(sql)
        for _ in range(3):
            run_strict_analysis(statement, relation, sql, memo)
        assert len(calls) == 1
        assert memo.stats() == {"statements": 1, "hits": 2, "misses": 1}

    def test_memoized_rejection_replays_diagnostics(self, monkeypatch):
        from repro.analysis import QueryAnalysisError
        from repro.sql.parser import parse
        from repro.sql.plancache import AnalysisMemo, run_strict_analysis

        calls = self._count_analyzer_calls(monkeypatch)
        relation = make_relation()
        memo = AnalysisMemo()
        sql = "SELECT nosuch FROM t"
        statement = parse(sql)
        for _ in range(2):
            with pytest.raises(QueryAnalysisError) as excinfo:
                run_strict_analysis(statement, relation, sql, memo)
            assert "DQ202" in str(excinfo.value)
        assert len(calls) == 1

    def test_schema_swap_invalidates_memo(self, monkeypatch):
        from repro.sql.parser import parse
        from repro.sql.plancache import AnalysisMemo, run_strict_analysis

        calls = self._count_analyzer_calls(monkeypatch)
        memo = AnalysisMemo()
        sql = "SELECT a FROM t"
        statement = parse(sql)
        run_strict_analysis(statement, make_relation(), sql, memo)
        run_strict_analysis(statement, make_relation(), sql, memo)
        # Each make_relation() builds a fresh schema object; identity
        # validation must re-analyze rather than reuse the verdict.
        assert len(calls) == 2

    def test_execute_planned_strict_uses_default_memo(self, monkeypatch):
        from repro.sql.plancache import clear_plan_cache

        calls = self._count_analyzer_calls(monkeypatch)
        clear_plan_cache()
        try:
            relation = make_relation()
            for _ in range(3):
                execute_planned("SELECT a FROM t", relation, strict=True)
            assert len(calls) == 1
        finally:
            clear_plan_cache()

    def test_unplanned_strict_shares_the_memo(self, monkeypatch):
        from repro.sql.executor import execute
        from repro.sql.plancache import clear_plan_cache

        calls = self._count_analyzer_calls(monkeypatch)
        clear_plan_cache()
        try:
            relation = make_relation()
            execute("SELECT a FROM t", relation, strict=True, planner=False)
            execute("SELECT a FROM t", relation, strict=True, planner=True)
            assert len(calls) == 1
        finally:
            clear_plan_cache()


class TestEntryBound:
    """Entries for dropped schemas age out: one statement keeps a
    bounded number of entries, and a hit checks only the live one."""

    CYCLES = 300

    def test_drop_recreate_cycles_stay_bounded(self, monkeypatch):
        from repro.sql.context import PlanContext
        from repro.sql.plancache import AnalysisMemo, run_strict_analysis
        from repro.sql.parser import parse

        database = Database("db")
        cache = PlanCache()
        memo = AnalysisMemo()
        sql = "SELECT a FROM t WHERE b = 'x'"
        statement = parse(sql)
        for cycle in range(self.CYCLES):
            if "t" in database:
                database.drop_relation("t")
            database.create_relation(
                RelationSchema("t", [Column("a", "INT"), Column("b", "STR")])
            ).insert({"a": cycle, "b": "x"})
            execute_planned(sql, database, cache=cache)
            run_strict_analysis(statement, database, sql, memo)

        def entries(lru):
            return sum(len(kept) for kept in lru._entries.values())

        assert entries(cache) <= 4
        assert entries(memo) <= 4
        checked = []
        real = PlanContext.unchanged

        def counting(context, reads):
            checked.append(reads)
            return real(context, reads)

        monkeypatch.setattr(PlanContext, "unchanged", counting)
        result = execute_planned(sql, database, cache=cache)
        assert values(result) == [(self.CYCLES - 1,)]
        assert cache.hits == 1 and len(checked) == 1
