"""Batch execution over column arrays: plan shapes, annotations, and
selection-vector edge cases, each checked against the naive oracle."""

import pytest

from repro.experiments.naive import naive_execute
from repro.obs.stats import StatsCollector
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute

SCHEMA = RelationSchema(
    "t", [Column("a", "INT"), Column("b", "INT"), Column("c", "STR")]
)


def make_relation(n):
    return Relation.from_tuples(
        SCHEMA,
        [
            (i, None if i % 5 == 0 else i % 7, ["x", "y", "z"][i % 3])
            for i in range(n)
        ],
    )


def explain(sql, source):
    return "\n".join(row["plan"] for row in execute(f"EXPLAIN {sql}", source))


def assert_same(result, expected):
    assert [r.values_tuple() for r in result] == [
        r.values_tuple() for r in expected
    ]


def arrays_built(relation):
    """Whether any of the relation's value arrays exists for its
    current rows (value arrays are keyed by column position)."""
    current = ((relation._epoch, None), len(relation))
    return any(
        isinstance(key, int) and entry[:2] == current
        for key, entry in relation._derived._own.items()
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestAccessPathChoice:
    """Every plan shape runs on the one batch engine and matches the
    naive oracle; plain passthroughs never transpose the rows."""

    def test_bare_scan_stays_on_row_path(self):
        # SELECT * hands the segment's row list straight through: no
        # value arrays are built.
        relation = make_relation(200)
        result = execute("SELECT * FROM t", relation)
        assert_same(result, naive_execute("SELECT * FROM t", relation))
        assert not arrays_built(relation)

    def test_limit_only_stays_on_row_path(self):
        relation = make_relation(200)
        result = execute("SELECT * FROM t LIMIT 5", relation)
        assert [row["a"] for row in result] == [0, 1, 2, 3, 4]
        assert not arrays_built(relation)

    def test_filter_then_topk_goes_columnar(self):
        sql = "SELECT a, c FROM t WHERE b >= 2 ORDER BY a DESC LIMIT 5"
        relation = make_relation(200)
        plan = explain(sql, relation)
        assert "Materialize" not in plan
        assert plan.index("Project") < plan.index("TopK")
        assert plan.index("TopK") < plan.index("Filter")
        assert_same(execute(sql, relation), naive_execute(sql, relation))
        assert arrays_built(relation)

    def test_aggregate_above_columnar_filter(self):
        sql = "SELECT COUNT(*) AS n FROM t WHERE a > 10"
        relation = make_relation(200)
        plan = explain(sql, relation)
        # The aggregate builds rows; the filter below it runs over arrays.
        assert plan.index("Aggregate") < plan.index("Filter")
        assert execute(sql, relation).rows[0]["n"] == 189

    def test_distinct_above_columnar_fragment(self):
        sql = "SELECT DISTINCT c FROM t WHERE a > 10"
        relation = make_relation(200)
        assert "Distinct" in explain(sql, relation)
        assert_same(execute(sql, relation), naive_execute(sql, relation))

    def test_escape_hatch_same_result(self):
        # A two-key ORDER BY with LIMIT, mixed directions, vs the oracle.
        relation = make_relation(200)
        sql = "SELECT a, c FROM t WHERE b >= 2 ORDER BY a DESC, c LIMIT 9"
        assert_same(execute(sql, relation), naive_execute(sql, relation))


class TestRemappedColumns:
    def test_filter_and_topk_above_a_renaming_project(self):
        # Hand-built plans may put per-row operators above a Project
        # that reorders and renames columns.
        from repro.sql import execute_plan
        from repro.sql.nodes import (
            ColumnRef, Comparison, Literal, OrderItem, SelectItem,
        )
        from repro.sql.plan import Filter, Project, Scan, TopK

        project = Project(
            Scan("t"),
            (SelectItem(ColumnRef("c")), SelectItem(ColumnRef("a"), "x")),
        )
        plan = TopK(
            Filter(project, Comparison(">=", ColumnRef("x"), Literal(40))),
            (OrderItem(ColumnRef("x"), descending=True),),
            3,
        )
        result = execute_plan(plan, {"t": make_relation(50)})
        assert result.schema.column_names == ("c", "x")
        assert [row.values_tuple() for row in result] == [
            ("y", 49), ("x", 48), ("z", 47),
        ]


class TestExplainAnalyze:
    def test_columnar_operators_annotated(self):
        relation = make_relation(200)
        lines = [
            row["plan"]
            for row in execute(
                "EXPLAIN ANALYZE SELECT a FROM t WHERE a > 10", relation
            )
        ]
        text = "\n".join(lines)
        assert "batch=" not in text and "Materialize" not in text
        scan_line = next(l for l in lines if "Scan [t (plain)]" in l)
        assert "rows=200" in scan_line  # rows fed from storage
        filter_line = next(l for l in lines if l.lstrip("│├└─ ").startswith("Filter"))
        assert "rows=189" in filter_line
        project_line = next(l for l in lines if "Project" in l)
        assert "rows=189" in project_line

    def test_stats_collector_sees_columnar_tree(self):
        relation = make_relation(200)
        collector = StatsCollector()
        execute("SELECT a FROM t WHERE a > 10", relation, stats=collector)
        assert collector.execution.operator("Scan").rows_out == 200
        assert collector.execution.operator("Filter").rows_out == 189


class TestSelectionVectorEdgeCases:
    SQL = "SELECT a FROM t WHERE {where}"

    def run_both(self, sql, relation):
        clear_plan_cache()
        fast = execute(sql, relation)
        assert_same(fast, naive_execute(sql, relation))
        return fast

    def test_empty_result(self):
        result = self.run_both(
            "SELECT a FROM t WHERE a > 100000", make_relation(100)
        )
        assert len(result) == 0

    def test_all_pass(self):
        result = self.run_both(
            "SELECT a FROM t WHERE a >= 0", make_relation(100)
        )
        assert len(result) == 100

    def test_null_heavy_column(self):
        relation = Relation.from_tuples(
            SCHEMA,
            [(i, None, None if i % 2 else "x") for i in range(100)],
        )
        result = self.run_both("SELECT a FROM t WHERE b >= 0", relation)
        assert len(result) == 0  # NULL never compares true
        kept = self.run_both("SELECT a FROM t WHERE b IS NULL", relation)
        assert len(kept) == 100

    def test_not_over_nulls_passes_them(self):
        relation = Relation.from_tuples(
            SCHEMA, [(i, None if i % 2 else 1, "x") for i in range(100)]
        )
        # NOT(b = 1): rows with NULL b fail the inner test, so NOT keeps
        # them — the columnar complement must match.
        result = self.run_both("SELECT a FROM t WHERE NOT (b = 1)", relation)
        assert len(result) == 50

    def test_or_preserves_row_order(self):
        relation = make_relation(150)
        result = self.run_both(
            "SELECT a FROM t WHERE c = 'z' OR a < 20", relation
        )
        values = [row["a"] for row in result]
        assert values == sorted(values)  # ascending row order == a order

    def test_in_and_not_in(self):
        relation = make_relation(150)
        self.run_both("SELECT a FROM t WHERE c IN ('x', 'q')", relation)
        self.run_both("SELECT a FROM t WHERE b NOT IN (1, 2)", relation)

    def test_column_vs_column(self):
        relation = make_relation(150)
        self.run_both("SELECT a FROM t WHERE b < a", relation)

    def test_delete_then_scan_alignment(self):
        # A cached columnar plan re-executed after deletes must rebuild
        # the value store (version-gated) and return the live rows.
        relation = make_relation(200)
        sql = "SELECT a FROM t WHERE a >= 0"
        clear_plan_cache()
        first = execute(sql, relation)
        assert len(first) == 200
        relation.delete(lambda row: row["a"] < 100)
        second = execute(sql, relation)  # cache hit, fresh arrays
        assert len(second) == 100
        assert [row["a"] for row in second] == list(range(100, 200))

    def test_insert_then_scan_sees_new_rows(self):
        relation = make_relation(100)
        sql = "SELECT a FROM t WHERE a >= 0"
        clear_plan_cache()
        assert len(execute(sql, relation)) == 100
        relation.insert({"a": 500, "b": 1, "c": "x"})
        assert len(execute(sql, relation)) == 101

    def test_incomparable_literal_reads_false(self):
        # 'x' < 3 raises TypeError in Python; QSQL reads it as false, and
        # NOT over it as true.
        relation = make_relation(30)
        assert len(self.run_both("SELECT a FROM t WHERE c < 3", relation)) == 0
        kept = self.run_both("SELECT a FROM t WHERE NOT (c < 3)", relation)
        assert len(kept) == 30

    def test_null_literal_never_matches(self):
        relation = make_relation(30)
        assert len(self.run_both("SELECT a FROM t WHERE b = NULL", relation)) == 0
        assert len(self.run_both("SELECT a FROM t WHERE NULL <> b", relation)) == 0

    def test_topk_ties_keep_row_order(self):
        relation = make_relation(60)
        # b repeats every 7 rows: ties resolve in row order, both ways.
        for direction in ("ASC", "DESC"):
            result = self.run_both(
                f"SELECT a FROM t WHERE a >= 0 ORDER BY b {direction} LIMIT 12",
                relation,
            )
            assert len(result) == 12
        self.run_both(
            "SELECT a, c FROM t WHERE b >= 2 ORDER BY c DESC, b LIMIT 9",
            relation,
        )

    def test_limit_over_filter_and_scan(self):
        relation = make_relation(60)
        result = self.run_both("SELECT a FROM t WHERE c = 'y' LIMIT 4", relation)
        assert [row["a"] for row in result] == [1, 4, 7, 10]
        assert len(self.run_both("SELECT a FROM t WHERE c = 'q' LIMIT 4", relation)) == 0
        self.run_both("SELECT a FROM t LIMIT 0", relation)


class TestComputedValuesOverPrunedShards:
    """Aggregate, QUALITY-valued Project, Sort/TopK keys and Filter leaves
    read their operands off the batch: tag and score arrays as well as
    value arrays.  Over a multi-shard pruned scan of a partitioned
    tagged relation, under a WHERE selection, they equal the oracle in
    order: groups come out in first-seen order, so they follow the flat
    row order the shards merge back into.  The flat relation and read
    snapshots of both answer the same, on cold and cached plans."""

    WHERE = "k IN (1, 2, 5, 9, 14, 20, 27, 33) AND b >= 2"
    STATEMENTS = [
        "SELECT QUALITY(a.source) AS src, COUNT(*) AS n, "
        "AVG(QUALITY(a.age)) AS age, MIN(b) AS lo FROM t WHERE {where} "
        "GROUP BY QUALITY(a.source)",
        "SELECT c, QUALITY(a.source) AS src, SUM(b) AS total FROM t "
        "WHERE {where} GROUP BY c, QUALITY(a.source) "
        "ORDER BY total DESC, c LIMIT 4",
        "SELECT k, QUALITY(a.source) AS src, QUALITY(a.age) AS age FROM t "
        "WHERE {where}",
        "SELECT k, QUALITY(a.age) AS age FROM t WHERE {where} "
        "ORDER BY QUALITY(a.age) DESC, k LIMIT 5",
        "SELECT COUNT(*) AS n, MAX(QUALITY(a.age)) AS oldest FROM t "
        "WHERE {where} AND b > 1000",
        "SELECT c, COUNT(*) AS n, AVG(QUALITY(credibility)) AS cred, "
        "MAX(QUALITY(credibility)) AS best FROM t WHERE {where} GROUP BY c",
        "SELECT k, QUALITY(credibility) AS cred FROM t "
        "WHERE {where} AND QUALITY(credibility) >= 0.5 "
        "ORDER BY QUALITY(credibility) DESC, k LIMIT 4",
        "SELECT k, QUALITY(a.source) AS src FROM t WHERE {where} "
        "AND (QUALITY(a.source) = 'fax' OR NOT QUALITY(credibility) < 0.8) "
        "ORDER BY QUALITY(credibility), k",
        "SELECT k FROM t WHERE {where} AND QUALITY(a.source) <> 'mail' "
        "AND QUALITY(credibility) IN (0.2, 0.7)",
    ]

    @pytest.fixture(autouse=True)
    def credibility(self):
        from repro.quality.materialize import (
            ScoringProfile,
            clear_profiles,
            register_profile,
        )
        from repro.quality.scoring import credibility_scorer

        register_profile(
            ScoringProfile(
                "p",
                [credibility_scorer({"fax": 0.2, "phone": 0.7, "mail": 0.9})],
            ),
            relations=["t"],
        )
        yield
        clear_profiles()

    @staticmethod
    def relation():
        from repro.relational import hash_partitions
        from repro.relational.schema import schema
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import (
            IndicatorDefinition,
            IndicatorValue,
            TagSchema,
        )
        from repro.tagging.relation import TaggedRelation

        tags = TagSchema(
            [IndicatorDefinition("source"), IndicatorDefinition("age", "INT")],
            allowed={"a": ["source", "age"]},
        )
        relation = TaggedRelation(
            schema("t", [("k", "INT"), ("a", "INT"), ("b", "INT"), ("c", "STR")]),
            tags,
        )
        for k in range(40):
            cell_tags = []
            if k % 4:
                cell_tags.append(
                    IndicatorValue("source", ["fax", "phone", "mail"][k % 3])
                )
            if k % 6:
                cell_tags.append(IndicatorValue("age", k % 11))
            relation.insert(
                {
                    "k": k,
                    "a": QualityCell(k % 9, cell_tags),
                    "b": k % 7,
                    "c": "xyz"[k % 3],
                }
            )
        partitioned = relation.copy()
        partitioned.repartition(hash_partitions("k", 8))
        return relation, partitioned

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_matches_naive_in_order(self, sql):
        flat, partitioned = self.relation()
        sql = sql.format(where=self.WHERE)
        survivors = explain(sql, partitioned).split("partitions=")[1].split("/")[0]
        assert int(survivors) > 1
        for source in (
            flat,
            partitioned,
            flat.read_snapshot(),
            partitioned.read_snapshot(),
        ):
            expected = naive_execute(sql, source)
            assert len(expected) > 0
            clear_plan_cache()
            for _ in ("cold", "cached"):
                result = execute(sql, source)
                assert [(c.name, c.domain) for c in result.schema.columns] == [
                    (c.name, c.domain) for c in expected.schema.columns
                ]
                assert_same(result, expected)


def tagged_relation(n):
    """``make_relation``'s rows, tagged: ``a`` carries a ``source`` tag
    on three rows in four."""
    from repro.tagging.cell import QualityCell
    from repro.tagging.indicators import (
        IndicatorDefinition,
        IndicatorValue,
        TagSchema,
    )
    from repro.tagging.relation import TaggedRelation

    relation = TaggedRelation(
        SCHEMA,
        TagSchema([IndicatorDefinition("source")], allowed={"a": ["source"]}),
    )
    for row in make_relation(n):
        a, b, c = row.values_tuple()
        tags = [IndicatorValue("source", "s1" if a % 3 else "s2")] if a % 4 else []
        relation.insert(
            {"a": QualityCell(a, tags), "b": QualityCell(b), "c": QualityCell(c)}
        )
    return relation


def walked(sql, source, expect_rows=None):
    """Run ``sql`` twice against ``source``, checking both against the
    oracle in order, and return the second run's ExecutionStats.

    A rewrite epoch's first TopK read answers on the heap path, so the
    second run is the one that must walk the order index: TopK notes
    ``walk=<walked>/<segment rows>`` and the Scan's ``rows=`` is the
    positions walked.
    """
    expected = [r.values_tuple() for r in naive_execute(sql, source)]
    assert [r.values_tuple() for r in execute(sql, source)] == expected
    collector = StatsCollector()
    result = execute(sql, source, stats=collector)
    assert [r.values_tuple() for r in result] == expected
    if expect_rows is not None:
        assert len(expected) == expect_rows
    stats = collector.execution
    note = stats.operator("TopK").extras.get("walk", "")
    assert note.split("/")[0] == str(stats.operator("Scan").rows_out), (
        f"the heap path answered, not the walk ({note!r})"
    )
    return stats


class TestOrderIndexWalk:
    """TopK over a Filter (or a bare Scan) reads a carried order index
    and stops at k rows; every answer equals the oracle's, in order."""

    N = 2000

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_null_keys_and_ties(self, direction):
        relation = make_relation(self.N)
        # b is NULL on every fifth row and repeats every 7 rows: ties
        # resolve in row order, NULLs sort first ascending, last
        # descending.
        stats = walked(
            f"SELECT a, b FROM t WHERE a >= 0 ORDER BY b {direction} LIMIT 30",
            relation,
            expect_rows=30,
        )
        assert stats.operator("Scan").rows_out == 64  # one chunk
        # NULL keys and ties both in the answer (a segment of one chunk
        # is walked whole).
        walked(
            f"SELECT a, b FROM t WHERE b IS NULL OR b = 6 "
            f"ORDER BY b {direction} LIMIT 14",
            make_relation(60),
            expect_rows=14,
        )

    def test_stops_at_k_and_counts_the_walk(self):
        relation = make_relation(self.N)
        sql = "SELECT a, c FROM t WHERE c = 'y' AND b >= 3 ORDER BY a DESC LIMIT 20"
        stats = walked(sql, relation, expect_rows=20)
        scan, where = stats.operator("Scan"), stats.operator("Filter")
        # The first chunk of 64 positions holds 12 hits, so a second of
        # 128 follows; the 192 positions walked hold 30.
        assert scan.rows_out == 192
        assert where.rows_out == 30
        assert stats.selectivity(where) == 30 / 192

    def test_limit_zero_walks_nothing(self):
        relation = make_relation(self.N)
        stats = walked(
            "SELECT a FROM t WHERE b > 1 ORDER BY b LIMIT 0", relation, expect_rows=0
        )
        assert stats.operator("Scan").rows_out == 0

    def test_limit_above_row_count(self):
        relation = make_relation(self.N)
        stats = walked(
            "SELECT a, b FROM t ORDER BY b DESC LIMIT 5000", relation,
            expect_rows=self.N,
        )
        assert stats.operator("Scan").rows_out == self.N
        small = make_relation(40)
        walked(
            "SELECT a FROM t WHERE c = 'x' ORDER BY b LIMIT 100", small,
            expect_rows=14,
        )

    def test_zero_hits_and_all_hits(self):
        # A segment of at most one chunk is walked whole.
        walked(
            "SELECT a FROM t WHERE a > 1000 ORDER BY b LIMIT 5",
            make_relation(40),
            expect_rows=0,
        )
        stats = walked(
            "SELECT a FROM t WHERE a >= 0 ORDER BY a DESC LIMIT 10",
            make_relation(self.N),
            expect_rows=10,
        )
        assert stats.operator("Filter").rows_out == 64

    @pytest.mark.parametrize(
        "where",
        [
            "QUALITY(a.source) = 's1' AND b > 2",
            "QUALITY(a.source) = 's2' OR c = 'z'",
            "NOT (QUALITY(a.source) = 's1') AND NOT b IS NULL",
            "(QUALITY(a.source) <> 's1' OR b = 6) AND NOT (c = 'x')",
        ],
    )
    def test_boolean_trees_with_tag_leaves(self, where):
        relation = tagged_relation(self.N)
        for direction in ("ASC", "DESC"):
            stats = walked(
                f"SELECT a, b FROM t WHERE {where} ORDER BY a {direction} LIMIT 15",
                relation,
                expect_rows=15,
            )
            assert stats.operator("Scan").rows_out < self.N

    def test_undefined_parameter_raises_like_the_oracle(self):
        from repro.quality.materialize import (
            ScoringProfile,
            clear_profiles,
            register_profile,
        )
        from repro.quality.scoring import credibility_scorer, timeliness_scorer
        from repro.sql.errors import SQLError

        relation = tagged_relation(self.N)
        sql = (
            "SELECT a FROM t WHERE b > 2 AND QUALITY(credibility) > 0.5 "
            "ORDER BY a DESC LIMIT 5"
        )
        try:
            for profile in (None, ScoringProfile("p", [timeliness_scorer(30.0)])):
                clear_profiles()
                if profile is not None:
                    register_profile(profile, relations=["t"])
                # LIMIT 0 too: a walk would read no row, the oracle all.
                for statement in (sql, sql.replace("LIMIT 5", "LIMIT 0")):
                    for _ in range(3):
                        with pytest.raises(SQLError, match="credibility"):
                            naive_execute(statement, relation)
                        with pytest.raises(SQLError, match="credibility"):
                            execute(statement, relation)
            register_profile(
                ScoringProfile("q", [credibility_scorer({"s1": 0.9})]),
                relations=["t"],
            )
            walked(sql, relation, expect_rows=5)
        finally:
            clear_profiles()

    def test_flat_unpruned_and_single_shard_sources(self):
        from repro.relational import hash_partitions

        flat = make_relation(self.N)
        partitioned = flat.copy()
        partitioned.repartition(hash_partitions("c", 8))
        unpruned = "SELECT a, c FROM t WHERE b >= 4 ORDER BY a DESC LIMIT 8"
        pruned = "SELECT a, b FROM t WHERE c = 'y' AND b < 3 ORDER BY a DESC LIMIT 8"
        assert "partitions=1/8" in explain(pruned, partitioned)
        for source in (flat, partitioned, flat.read_snapshot(),
                       partitioned.read_snapshot()):
            walked(unpruned, source, expect_rows=8)
        for source in (flat, partitioned, partitioned.read_snapshot()):
            stats = walked(pruned, source, expect_rows=8)
            assert stats.operator("Scan").rows_out < self.N
        # A walked pruned scan counts the positions it walked as the
        # rows its shard fed, as the Scan's rows= does.
        from repro.obs import metrics

        with metrics.instrumented() as registry:
            counter = registry.counter("partition.scanned")
            before = counter.value
            collector = StatsCollector()
            execute(pruned, partitioned, stats=collector)
            fed = counter.value - before
        scan = collector.execution.operator("Scan")
        assert scan.extras["partitions"] == "1/8"
        assert fed == scan.rows_out < len(partitioned) // 8

    def test_append_extends_the_index(self, monkeypatch):
        from repro.relational import relation as relation_module

        relation = make_relation(self.N)
        sql = "SELECT a, b FROM t WHERE c <> 'x' ORDER BY b DESC LIMIT 6"
        walked(sql, relation.read_snapshot())
        sorts = []
        sort = relation_module._sorted_positions
        monkeypatch.setattr(
            relation_module,
            "_sorted_positions",
            lambda *args: sorts.append(args) or sort(*args),
        )
        for step in range(3):
            for i in range(10):
                relation.insert({"a": 10_000 + 10 * step + i, "b": i % 8, "c": "y"})
            for source in (relation.read_snapshot(), relation):
                walked(sql, source, expect_rows=6)
        assert sorts == []  # every read after an append extended the index
        # Past 1/16 of the rows appended, one sort beats that many bisects.
        for i in range(200):
            relation.insert({"a": 20_000 + i, "b": i % 9, "c": "z"})
        walked(sql, relation, expect_rows=6)
        assert len(sorts) == 1

    def test_delete_and_update(self):
        relation = make_relation(self.N)
        sql = "SELECT a, b FROM t WHERE c = 'z' ORDER BY b LIMIT 7"
        walked(sql, relation)
        relation.delete(lambda row: row["b"] is None)
        # A rewrite drops the index, and the epoch's first TopK read
        # answers on the heap path rather than sorting a new one.
        collector = StatsCollector()
        execute(sql, relation, stats=collector)
        assert "walk" not in collector.execution.operator("TopK").extras
        assert collector.execution.operator("Scan").rows_out == len(relation)
        walked(sql, relation.read_snapshot())
        relation.update(lambda row: row["a"] % 6 == 5, lambda row: {"b": -row["a"]})
        stats = walked(sql, relation, expect_rows=7)
        assert stats.operator("Scan").rows_out == 64

    def test_older_snapshot_keeps_its_own_positions(self):
        relation = make_relation(self.N)
        sql = "SELECT a, b FROM t WHERE c = 'x' ORDER BY b DESC LIMIT 9"
        older = relation.read_snapshot()
        for i in range(40):
            relation.insert({"a": 5000 + i, "b": 100 + i, "c": "x"})
        newer = relation.read_snapshot()
        walked(sql, newer)  # sorts the family's index at the newer length
        stats = walked(sql, older)  # keeps the positions below its length
        assert stats.operator("Scan").rows_out < self.N

    def test_far_hits_fall_back_to_the_heap(self):
        relation = make_relation(self.N)
        sql = "SELECT a FROM t WHERE a < 5 ORDER BY a DESC LIMIT 3"
        expected = [r.values_tuple() for r in naive_execute(sql, relation)]
        for _ in range(3):
            collector = StatsCollector()
            result = execute(sql, relation, stats=collector)
            assert [r.values_tuple() for r in result] == expected
        stats = collector.execution
        assert stats.operator("Scan").rows_out == self.N
        assert stats.operator("TopK").extras["walk"] == f"abandoned at 64/{self.N}"


class TestNaN:
    """FLOAT holds no NaN, so ORDER BY ... LIMIT agrees with the oracle
    over every FLOAT column: NaN compares false both ways and breaks the
    total order a heap and an order index rely on."""

    FLOATS = RelationSchema("f", [Column("i", "INT"), Column("x", "FLOAT")])

    def test_insert_rejects_nan(self):
        from repro.errors import DomainError

        relation = Relation(self.FLOATS)
        for value in (float("nan"), "nan", float("-nan")):
            with pytest.raises(DomainError, match="FLOAT"):
                relation.insert({"i": 0, "x": value})
        assert len(relation) == 0

    def test_tags_and_aggregate_outputs_reject_nan(self):
        from repro.errors import DomainError
        from repro.tagging.indicators import IndicatorDefinition

        with pytest.raises(DomainError, match="FLOAT"):
            IndicatorDefinition("age", "FLOAT").value(float("nan"))
        relation = Relation.from_tuples(
            self.FLOATS, [(0, float("inf")), (1, float("-inf"))]
        )
        sql = "SELECT SUM(x) AS s FROM f"  # inf + -inf is NaN
        for run in (execute, naive_execute):
            with pytest.raises(DomainError, match="FLOAT"):
                run(sql, relation)

    @pytest.mark.parametrize("direction", ["DESC", "ASC"])
    def test_topk_matches_oracle(self, direction):
        import random

        rng = random.Random(5)
        sql = f"SELECT i, x FROM f ORDER BY x {direction} LIMIT 3"
        for _ in range(200):
            relation = Relation.from_tuples(
                self.FLOATS,
                [
                    (i, rng.choice([None, 0.0, 1.5, 2.0, 3.0, 5.0]))
                    for i in range(rng.randint(5, 30))
                ],
            )
            expected = [r.values_tuple() for r in naive_execute(sql, relation)]
            for _ in range(2):  # the heap path, then the walk
                assert [r.values_tuple() for r in execute(sql, relation)] == expected
