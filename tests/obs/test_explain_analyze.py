"""EXPLAIN ANALYZE, the stats hook, ambient metrics, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.errors import QueryError
from repro.obs import metrics as obs_metrics
from repro.obs.cli import main as cli_main
from repro.obs.stats import StatsCollector
from repro.relational.catalog import Database
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation


@pytest.fixture
def tagged():
    schema = RelationSchema(
        "t", [Column("a", "INT"), Column("b", "INT"), Column("c", "STR")]
    )
    tags = TagSchema(
        [IndicatorDefinition("source", "STR")],
        allowed={"a": ["source"]},
    )
    relation = TaggedRelation(schema, tags)
    for index in range(20):
        relation.insert(
            {
                "a": QualityCell(
                    index,
                    [IndicatorValue("source", "s1" if index % 2 else "s2")],
                ),
                "b": QualityCell(index * 3),
                "c": QualityCell("xyz"[index % 3]),
            }
        )
    return relation


SQL = (
    "SELECT a, b FROM t "
    "WHERE QUALITY(a.source) = 's1' AND b > 6 "
    "ORDER BY b DESC LIMIT 4"
)


class TestExplainAnalyze:
    def test_annotates_rows_time_selectivity(self, tagged):
        clear_plan_cache()
        # The first TopK read of the relation answers on the heap path;
        # from the second on, TopK walks the order index of b.
        execute(SQL, tagged)
        result = execute(f"EXPLAIN ANALYZE {SQL}", tagged)
        assert result.schema.column_names == ("plan",)
        lines = [row["plan"] for row in result]
        text = "\n".join(lines)
        # Same operators as plain EXPLAIN...
        assert "Project" in text and "TopK" in text
        assert "Filter [(QUALITY(a.source) = 's1' AND b > 6)]" in text
        assert "Scan [t (tagged)]" in text
        # ...but annotated with measured facts from a real execution.
        assert "rows=4" in text  # the TopK/Project output
        assert " ms" in text and "time=" in text
        # The 20 rows fit the walk's first chunk, so it reads them all:
        # 10 of 20 rows carry source=s1, 9 of them with b > 6.
        topk, where, scan = lines[1], lines[2], lines[3]
        assert "rows=4," in topk and "walk=20/20" in topk
        assert "rows=9," in where and "selectivity=45.0%" in where
        assert "rows=20," in scan

    def test_sort_without_limit_filters_every_row(self, tagged):
        sql = SQL.replace(" LIMIT 4", "")
        clear_plan_cache()
        for _ in range(2):
            result = execute(f"EXPLAIN ANALYZE {sql}", tagged)
        text = "\n".join(row["plan"] for row in result)
        assert "Sort [b DESC]" in text and "walk=" not in text
        assert "rows=9," in text and "rows=20," in text
        assert "selectivity=45.0%" in text

    def test_matches_plain_explain_shape(self, tagged):
        plain = execute(f"EXPLAIN {SQL}", tagged)
        analyzed = execute(f"EXPLAIN ANALYZE {SQL}", tagged)
        def strip(row):
            return row["plan"].split("  (")[0]

        assert [strip(r) for r in analyzed] == [r["plan"] for r in plain]

    def test_not_cached(self, tagged):
        clear_plan_cache()
        with obs_metrics.instrumented() as registry:
            execute(f"EXPLAIN ANALYZE {SQL}", tagged)
            execute(f"EXPLAIN ANALYZE {SQL}", tagged)
            hits = registry.get("qsql.plancache.hits")
        assert hits is None or hits.value == 0

    def test_rejected_without_planner(self, tagged):
        # planner=False answers through the test oracle, which has no
        # plan to render: both keywords fail loudly.
        for sql in (f"EXPLAIN {SQL}", f"EXPLAIN ANALYZE {SQL}"):
            with pytest.raises(QueryError, match="does not implement EXPLAIN"):
                execute(sql, tagged, planner=False)


class TestStatsCollector:
    def test_planner_cold_then_cached(self, tagged):
        clear_plan_cache()
        collector = StatsCollector()
        cold = execute(SQL, tagged, stats=collector)
        assert collector.filled
        assert not collector.cache_hit
        assert collector.rows == len(cold) == 4
        assert collector.seconds > 0
        assert collector.sql == SQL
        root = collector.execution.root
        assert root.executed and root.rows_out == 4
        report = collector.render()
        assert SQL in report and "cold plan; rows: 4" in report

        warm = execute(SQL, tagged, stats=collector)
        assert collector.cache_hit
        assert "plan-cache hit; rows: 4" in collector.render()
        assert collector.rows == len(warm) == 4
        # The warm read walks the order index of b: all 20 rows fit its
        # first chunk, and 9 pass the filter.
        execution = collector.execution
        assert execution.operator("TopK").extras == {"walk": "20/20"}
        assert execution.operator("Scan").rows_out == 20
        quality = execution.operator("Filter")
        assert quality is not None and quality.executed
        assert quality.rows_out == 9
        assert execution.selectivity(quality) == pytest.approx(0.45)

    def test_collection_does_not_change_results(self, tagged):
        clear_plan_cache()
        plain = [row.values_tuple() for row in execute(SQL, tagged)]
        collected = [
            row.values_tuple()
            for row in execute(SQL, tagged, stats=StatsCollector())
        ]
        assert plain == collected


class TestAmbientMetrics:
    def test_engine_counters_flow_when_enabled(self, tagged):
        from repro.tagging.query import IndicatorConstraint, QualityFilter

        clear_plan_cache()
        # QSQL reads the tag arrays without a store scan; the §4 filter's
        # columnar path is what scans the store.
        mailing = QualityFilter(
            [IndicatorConstraint("a", "source", "==", "s1")]
        )
        with obs_metrics.instrumented() as registry:
            registry.reset()
            execute(SQL, tagged)  # cold: miss
            execute(SQL, tagged)  # warm: hit
            assert registry.get("qsql.plancache.misses").value == 1
            assert registry.get("qsql.plancache.hits").value == 1
            assert registry.get("qsql.executions").value == 2
            assert registry.get("qsql.statement_seconds").count == 2
            assert registry.get("columnar.scans") is None
            mailing.apply_columnar(tagged)
            mailing.apply_columnar(tagged)
            assert registry.get("columnar.scans").value == 2
            assert registry.get("columnar.rows_scanned").value == 2 * len(
                tagged
            )
            assert registry.get("columnar.scan_selectivity").count == 2

    def test_disabled_by_default_records_nothing(self, tagged):
        clear_plan_cache()
        registry = obs_metrics.global_registry()
        registry.clear()
        execute(SQL, tagged)
        assert len(registry) == 0

    def test_database_metrics_property(self):
        assert Database("corp").metrics is obs_metrics.global_registry()


class TestCli:
    def test_scenario_smoke(self, capsys):
        assert cli_main(["--scenario", "e2", "--scale", "20"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE:" in out
        assert "rows=" in out
        assert "qsql.plancache.hits (counter): 1" in out
        assert "trace (cold statement):" in out

    def test_scenario_columnar(self, capsys):
        assert cli_main(["--scenario", "columnar", "--scale", "200"]) == 0
        out = capsys.readouterr().out
        assert "Scan [readings (plain)]" in out
        assert "batch=" not in out and "Materialize" not in out
        # The filter reads two columns: one value-array build each.
        assert "relation.value_array_builds (counter): 2" in out

    def test_scenario_json_format(self, capsys):
        assert (
            cli_main(
                ["--scenario", "e3", "--scale", "16", "--format", "json"]
            )
            == 0
        )
        out = capsys.readouterr().out
        start = out.index("{")
        snapshot = json.loads(out[start : out.rindex("}") + 1])
        assert snapshot["polygen.joins"]["value"] == 1

    def test_trend_pass_and_fail(self, tmp_path, capsys):
        healthy = tmp_path / "BENCH_OK.json"
        healthy.write_text(
            json.dumps(
                [
                    {
                        "bench": "e2_tagged_scan_fast",
                        "n": 10,
                        "seconds": 0.01,
                        "ops_per_sec": 100.0,
                        "speedup": 4.2,
                    },
                    {
                        "bench": "obs_disabled_execute",
                        "n": 10,
                        "seconds": 0.01,
                        "ops_per_sec": 100.0,
                        "overhead": 1.01,
                    },
                ]
            )
        )
        assert cli_main(["--trend", str(healthy)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

        broken = tmp_path / "BENCH_BAD.json"
        broken.write_text(
            json.dumps(
                [
                    {
                        "bench": "qsql_cached_statement",
                        "n": 10,
                        "seconds": 0.01,
                        "ops_per_sec": 100.0,
                        "speedup": 1.1,
                    }
                ]
            )
        )
        assert cli_main(["--trend", str(broken)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "below floor" in captured.err
