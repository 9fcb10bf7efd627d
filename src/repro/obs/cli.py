"""``repro-stats``: run a scenario and print its runtime observability.

Usage::

    repro-stats [--scenario {e1,e2,e3}] [--scale N]
                [--format {text,json,prometheus}]
    repro-stats --trend BENCH_E1.json BENCH_QSQL.json ...

Scenario mode enables instrumentation, builds one of the paper's
experiment settings, runs its quality-constrained statement under
``EXPLAIN ANALYZE``, and prints the annotated operator tree followed by
the ambient metric registry (text, JSON, or Prometheus exposition
format) and the cold-statement trace spans.

Trend mode loads ``BENCH_*.json`` artifacts, prints the cross-artifact
trend table, and exits non-zero if any recorded speedup falls below its
CI floor (or the instrumentation-overhead record exceeds its ceiling)
— this is what the ``bench-trend`` CI job runs.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
from typing import Any, Optional, Sequence

from repro.obs import metrics as _metrics
from repro.obs.export import to_json, to_prometheus, trend_table
from repro.obs.stats import StatsCollector
from repro.obs.trace import global_tracer

#: Default relation sizes per scenario (kept small: the CLI is a viewer,
#: not a benchmark).
_DEFAULT_SCALES = {
    "e1": 300,
    "e2": 200,
    "e3": 200,
    "columnar": 2000,
    "partitions": 4096,
    "service": 4096,
    "scoring": 2000,
}


def _build_e1(scale: int) -> tuple[Any, str, str]:
    """E1: the §4 clearinghouse's fund-raising grade as QSQL."""
    from repro.experiments.scenarios import clearinghouse

    world, _, merged, _ = clearinghouse(n_people=scale, seed=23)
    cutoff = (world.today - _dt.timedelta(days=60)).isoformat()
    sql = (
        "SELECT person_id, name, address FROM address_book "
        "WHERE QUALITY(address.source) = 'postal_feed' "
        f"AND QUALITY(address.creation_time) >= DATE '{cutoff}' "
        "ORDER BY person_id LIMIT 25"
    )
    return merged, sql, "E1 clearinghouse: fund-raising quality grade"


def _build_e2(scale: int) -> tuple[Any, str, str]:
    """E2: the scaled customer database's tagged scan."""
    from repro.experiments.scenarios import customer_database

    _, _, relation = customer_database(n_companies=scale, seed=9)
    sql = (
        "SELECT co_name, employees FROM customer "
        "WHERE employees > 1000 AND QUALITY(employees.source) = 'estimate' "
        "ORDER BY employees DESC LIMIT 20"
    )
    return relation, sql, "E2 customer database: tagged scan + top-k"


def _build_e3(scale: int) -> tuple[Any, str, str]:
    """E3: a two-database federation join bridged into tags."""
    from repro.polygen import algebra as polygen_algebra
    from repro.polygen.bridge import polygen_to_tagged
    from repro.polygen.model import PolygenRelation
    from repro.relational.relation import Relation
    from repro.relational.schema import Column, RelationSchema

    people_schema = RelationSchema(
        "people", [Column("k", "INT"), Column("name", "STR")]
    )
    cities_schema = RelationSchema(
        "cities", [Column("rk", "INT"), Column("city", "STR")]
    )
    people = PolygenRelation.from_relation(
        Relation.from_tuples(
            people_schema,
            [(i, f"person_{i}") for i in range(scale)],
        ),
        "db1",
    )
    cities = PolygenRelation.from_relation(
        Relation.from_tuples(
            cities_schema,
            [(i, f"city_{i % 7}") for i in range(0, scale, 2)],
        ),
        "db2",
    )
    joined = polygen_algebra.equi_join(people, cities, [("k", "rk")], "fed")
    fed = polygen_to_tagged(joined)
    sql = (
        "SELECT k, name, city FROM fed "
        "WHERE QUALITY(k.source) = 'db1' "
        "AND QUALITY(k.intermediate_sources) IS NOT NULL "
        "ORDER BY k LIMIT 25"
    )
    return fed, sql, "E3 federation: polygen join provenance as tags"


def _build_columnar(scale: int) -> tuple[Any, str, str]:
    """Batch execution: a scan-heavy plan over a plain relation's arrays."""
    from repro.relational.relation import Relation
    from repro.relational.schema import Column, RelationSchema

    schema = RelationSchema(
        "readings",
        [
            Column("sensor_id", "INT"),
            Column("reading", "FLOAT"),
            Column("station", "STR"),
        ],
    )
    relation = Relation.from_tuples(
        schema,
        [
            (
                i,
                None if i % 13 == 0 else (i * 7919 % 1000) / 10.0,
                f"st_{i % 11}",
            )
            for i in range(scale)
        ],
    )
    sql = (
        "SELECT sensor_id, reading FROM readings "
        "WHERE reading >= 25.0 AND station <> 'st_3' "
        "ORDER BY reading DESC LIMIT 20"
    )
    return relation, sql, "Columnar: vectorized filter + top-k over arrays"


def _build_partitions(scale: int) -> tuple[Any, str, str]:
    """Partition pruning: a selective equality scan over hash buckets."""
    from repro.relational import hash_partitions
    from repro.relational.catalog import Database
    from repro.relational.schema import Column, RelationSchema

    schema = RelationSchema(
        "events",
        [
            Column("event_id", "INT"),
            Column("region", "STR"),
            Column("amount", "FLOAT"),
        ],
    )
    database = Database("partition_demo")
    relation = database.create_relation(
        schema,
        enforce_key=False,
        partition_by=hash_partitions("region", 64),
    )
    for i in range(scale):
        relation.insert(
            {
                "event_id": i,
                "region": f"region_{i % 97}",
                "amount": (i * 7919 % 1000) / 10.0,
            }
        )
    sql = (
        "SELECT event_id, amount FROM events "
        "WHERE region = 'region_7' AND amount >= 25.0 "
        "ORDER BY amount DESC LIMIT 20"
    )
    return (
        database,
        sql,
        "Partitions: statically pruned scan over 64 hash buckets",
    )


def _build_service(scale: int) -> tuple[Any, str, str]:
    """Service: the partitions database read through a pinned snapshot.

    Runs the statement once through an actual
    :class:`~repro.service.core.QueryService` session (so the
    ``service.*`` counters and latency histogram show up in the metric
    report), then returns the pinned :class:`DatabaseSnapshot
    <repro.relational.snapshot.DatabaseSnapshot>` as the scenario
    source — the same frozen view every service query executes against.
    """
    from repro.service.core import QueryService

    database, sql, _ = _build_partitions(scale)
    with QueryService(database, workers=2, name="repro-stats") as service:
        with service.session() as session:
            session.execute(sql)
    return (
        database.snapshot(),
        sql,
        "Service: QSQL through the query service, pinned snapshot reads",
    )


def _build_scoring(scale: int) -> tuple[Any, str, str]:
    """Scoring: a pushed-down QUALITY(parameter) filter over materialized
    score arrays (the §4 credibility grade as one number per row)."""
    from repro.experiments.scenarios import customer_database
    from repro.quality.materialize import (
        ScoringProfile,
        materializer_for,
        register_profile,
    )
    from repro.quality.scoring import credibility_scorer

    _, _, relation = customer_database(n_companies=scale, seed=9)
    profile = ScoringProfile(
        "repro-stats-scoring",
        [credibility_scorer({"acct'g": 0.9, "estimate": 0.3})],
        thresholds={"credibility": 0.5},
        doc="repro-stats demo: credibility from the recording source",
    )
    register_profile(profile, relations=[relation.schema.name])
    materializer_for(relation).refresh()
    sql = (
        "SELECT co_name, employees FROM customer "
        "WHERE QUALITY(credibility) > 0.5 "
        "ORDER BY employees DESC LIMIT 20"
    )
    return (
        relation,
        sql,
        "Scoring: pushed-down parameter-score filter (materialized)",
    )


_SCENARIOS = {
    "e1": _build_e1,
    "e2": _build_e2,
    "e3": _build_e3,
    "columnar": _build_columnar,
    "partitions": _build_partitions,
    "service": _build_service,
    "scoring": _build_scoring,
}


def _render_registry(fmt: str) -> str:
    registry = _metrics.global_registry()
    if fmt == "json":
        return to_json(registry)
    if fmt == "prometheus":
        return to_prometheus(registry)
    lines = ["metrics:"]
    for name, snap in registry.snapshot().items():
        if snap["kind"] == "histogram":
            count = snap["count"]
            mean = (snap["sum"] / count) if count else 0.0
            lines.append(
                f"  {name} (histogram): n={count}, mean={mean:.6f}"
            )
        else:
            lines.append(f"  {name} ({snap['kind']}): {snap['value']}")
    return "\n".join(lines)


def run_scenario(scenario: str, scale: Optional[int], fmt: str) -> str:
    """Build + execute one scenario; returns the printed report."""
    from repro.sql import clear_plan_cache, execute

    build = _SCENARIOS[scenario]
    registry = _metrics.global_registry()
    registry.reset()
    tracer = global_tracer()
    tracer.clear()
    clear_plan_cache()
    with _metrics.instrumented():
        # Built inside the instrumented block so construction-time
        # engine work (e.g. E3's polygen federation join) is counted.
        source, sql, title = build(scale or _DEFAULT_SCALES[scenario])
        sections = [f"== {title} ==", "", sql, ""]
        annotated = execute(f"EXPLAIN ANALYZE {sql}", source)
        sections.append("EXPLAIN ANALYZE:")
        sections.extend(f"  {row['plan']}" for row in annotated)
        # A cold + warm pair, so the cache counters show both outcomes
        # and the collector reports the cached fast path.
        collector = StatsCollector()
        execute(sql, source, stats=collector)
        execute(sql, source, stats=collector)
        sections.append("")
        sections.append(
            f"warm execution: rows={collector.rows}, "
            f"time={collector.seconds * 1e3:.3f} ms, "
            f"cache_hit={collector.cache_hit}"
        )
    sections.append("")
    sections.append(_render_registry(fmt))
    span_lines = tracer.render_lines()
    if span_lines:
        sections.append("")
        sections.append("trace (cold statement):")
        sections.extend(f"  {line}" for line in span_lines)
    return "\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description=(
            "Run a scenario with instrumentation enabled and print the "
            "annotated plan + metrics, or check BENCH_*.json trends."
        ),
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(_SCENARIOS),
        default="e2",
        help="which experiment setting to run (default: e2)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="relation size override (rows/entities in the scenario)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "prometheus"),
        default="text",
        help="metric registry output format (default: text)",
    )
    parser.add_argument(
        "--trend",
        nargs="+",
        metavar="BENCH_JSON",
        help=(
            "print the trend table for these BENCH_*.json artifacts and "
            "exit 1 if any speedup floor / overhead ceiling is violated"
        ),
    )
    args = parser.parse_args(argv)

    if args.trend:
        table, violations = trend_table(args.trend)
        print(table)
        if violations:
            print()
            for violation in violations:
                print(f"FAIL: {violation}", file=sys.stderr)
            return 1
        return 0

    report = run_scenario(args.scenario, args.scale, args.format)
    try:
        print(report)
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
