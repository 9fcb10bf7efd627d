"""QSQL — parse/execute cost and equivalence with the fluent API.

Not a paper artifact: an ablation of the *interface* to quality
filtering.  The paper requires "the ability to query over [tags]"; QSQL
provides it to strings.  We verify the string path answers exactly like
the programmatic path and measure its overhead.
"""

from conftest import emit

from repro.experiments.scenarios import customer_database
from repro.sql import execute, parse
from repro.tagging.query import QualityQuery

_CACHE = {}


def _relation():
    if "rel" not in _CACHE:
        _, _, relation = customer_database(
            n_companies=300, seed=9, simulated_days=90
        )
        _CACHE["rel"] = relation
    return _CACHE["rel"]


QUERY = (
    "SELECT co_name, employees FROM customer "
    "WHERE employees > 1000 AND QUALITY(employees.source) = 'estimate' "
    "ORDER BY employees DESC LIMIT 20"
)


def test_qsql_parse(benchmark):
    statement = benchmark(parse, QUERY)
    assert statement.relation == "customer"
    assert statement.uses_quality()
    assert statement.limit == 20


def test_qsql_execute_equivalence(benchmark):
    relation = _relation()

    sql_result = benchmark(execute, QUERY, relation)

    fluent_result = (
        QualityQuery(relation)
        .where_value("employees", ">", 1000)
        .require("employees", "source", "==", "estimate")
        .order_by("employees", descending=True)
        .select("co_name", "employees")
        .limit(20)
        .run()
    )
    sql_values = [row.values_dict() for row in sql_result]
    # Column order of projection differs from pipeline order; compare as
    # value dicts after aligning row order by the sort key.
    fluent_values = [row.values_dict() for row in fluent_result]
    assert [v["co_name"] for v in sql_values] == [
        v["co_name"] for v in fluent_values
    ]
    assert len(sql_values) == 20
    emit(
        "QSQL equivalence",
        f"string path rows == fluent path rows == {len(sql_values)}",
    )


def test_qsql_overhead_vs_fluent(benchmark):
    """String interface overhead: parse once per call, filter 300 rows."""
    import time

    relation = _relation()

    def fluent():
        return (
            QualityQuery(relation)
            .require("employees", "source", "==", "estimate")
            .count()
        )

    def sql():
        return len(
            execute(
                "SELECT * FROM customer "
                "WHERE QUALITY(employees.source) = 'estimate'",
                relation,
            )
        )

    assert fluent() == sql()

    def measure():
        best_fluent = min(_timed(fluent) for _ in range(3))
        best_sql = min(_timed(sql) for _ in range(3))
        return best_fluent, best_sql

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    fluent_s, sql_s = benchmark.pedantic(measure, rounds=3, iterations=1)
    emit(
        "QSQL overhead",
        f"fluent API: {fluent_s * 1e3:.3f} ms\n"
        f"QSQL:       {sql_s * 1e3:.3f} ms\n"
        f"ratio:      {sql_s / fluent_s:.2f}x",
    )
    # The string path should stay within a small constant factor.
    assert sql_s < fluent_s * 10


def _ticks_relation(n=30000):
    """A wide tagged relation for planner scan benchmarks."""
    from repro.relational.schema import Column, RelationSchema
    from repro.tagging.cell import QualityCell
    from repro.tagging.indicators import (
        IndicatorDefinition,
        IndicatorValue,
        TagSchema,
    )
    from repro.tagging.relation import TaggedRelation

    schema = RelationSchema(
        "ticks", [Column("ticker", "STR"), Column("price", "FLOAT")]
    )
    tags = TagSchema(
        [IndicatorDefinition("source", "STR"), IndicatorDefinition("age", "INT")],
        allowed={"price": ["source", "age"]},
    )
    relation = TaggedRelation(schema, tags)
    for i in range(n):
        relation.insert(
            {
                "ticker": f"T{i % 500}",
                "price": QualityCell(
                    float(i % 997),
                    [
                        IndicatorValue(
                            "source", "reuters" if i % 50 else "manual"
                        ),
                        IndicatorValue("age", i % 30),
                    ],
                ),
            }
        )
    return relation


def test_qsql_planner_json():
    """Emit BENCH_QSQL.json: the planner's two speedup claims.

    Floors come from ``SPEEDUP_FLOORS``, which the bench-trend CI gate
    reads too.

    - *tag-array vs per-cell scan*: a cached plan's Filter leaf reads
      the ``QUALITY(...)`` equality off the relation's tag array, hopping
      hit to hit with C-level ``list.index``; the naive oracle
      (``naive_execute``) tests the cell's tag on every row.  Floor: 23.5x — the earlier 10x
      over the planner-free interpreter (deleted since) times the
      oracle's 2.35x slowdown against that interpreter on this
      statement (median of five interleaved trials).
    - *cached vs cold statement*: a repeated statement text skips
      lexing/parsing/analysis/planning/compilation entirely; cold runs
      pay all of it per call.  Floor: 5x.
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_execute
    from repro.obs.export import SPEEDUP_FLOORS
    from repro.sql import clear_plan_cache

    # -- tag-array scan: large relation, selective tag predicate -------
    n = 30000
    ticks = _ticks_relation(n)
    scan_sql = "SELECT * FROM ticks WHERE QUALITY(price.source) = 'manual'"
    clear_plan_cache()
    planned = execute(scan_sql, ticks)
    per_cell = naive_execute(scan_sql, ticks)
    assert len(planned) == len(per_cell) == n // 50
    columnar_s, per_cell_s = best_seconds_interleaved(
        [
            lambda: execute(scan_sql, ticks),
            lambda: naive_execute(scan_sql, ticks),
        ]
    )
    scan_speedup = per_cell_s / columnar_s

    # -- plan cache: small relation, heavyweight statement --------------
    _, _, customers = customer_database(
        n_companies=12, seed=9, simulated_days=30
    )
    cached_sql = (
        "SELECT co_name AS company, address AS addr, employees AS headcount "
        "FROM customer "
        "WHERE employees > 10 AND employees < 900000 "
        "AND co_name IS NOT NULL AND address IS NOT NULL "
        "AND QUALITY(employees.source) IN ('estimate', 'Nexis', 'sales') "
        "AND (QUALITY(address.source) <> 'fax' "
        "     OR QUALITY(address.creation_time) IS NOT NULL) "
        "AND NOT (employees IN (1, 2, 3) AND co_name = 'Nobody Inc') "
        "ORDER BY employees DESC, co_name ASC LIMIT 10"
    )
    clear_plan_cache()
    execute(cached_sql, customers)  # populate the cache

    def cold():
        clear_plan_cache()
        return execute(cached_sql, customers)  # and leave it populated

    warm_s, cold_s = best_seconds_interleaved(
        [lambda: execute(cached_sql, customers), cold]
    )
    cache_speedup = cold_s / warm_s

    write_bench_json(
        "BENCH_QSQL.json",
        [
            bench_record(
                "qsql_columnar_scan", n, columnar_s, speedup=scan_speedup
            ),
            bench_record("qsql_percell_scan", n, per_cell_s, speedup=1.0),
            bench_record(
                "qsql_cached_statement",
                len(customers),
                warm_s,
                speedup=cache_speedup,
            ),
            bench_record(
                "qsql_cold_statement", len(customers), cold_s, speedup=1.0
            ),
        ],
        REPO_ROOT,
    )
    emit(
        "QSQL planner speedups",
        f"columnar scan {columnar_s * 1e3:.3f} ms vs per-cell "
        f"{per_cell_s * 1e3:.3f} ms: {scan_speedup:.1f}x "
        f"({n} rows)\n"
        f"cached stmt   {warm_s * 1e3:.3f} ms vs cold "
        f"{cold_s * 1e3:.3f} ms: {cache_speedup:.1f}x",
    )
    assert scan_speedup >= SPEEDUP_FLOORS["qsql_columnar_scan"]
    assert cache_speedup >= SPEEDUP_FLOORS["qsql_cached_statement"]
