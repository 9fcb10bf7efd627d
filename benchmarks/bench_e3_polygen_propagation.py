"""E3 — polygen source propagation through federation queries.

The polygen model's value proposition: after select/project/join over a
multi-database federation, every cell can answer "which local databases
produced or influenced this value?".  This experiment measures the cost
and verifies the propagation shapes:

- union across k databases: corroborated facts carry k originating
  sources;
- join: join-key sources appear as intermediate sources of every output
  cell;
- cost grows with the number of federated databases.
"""

import time

from conftest import emit

from repro.experiments.reporting import TextTable, render_series
from repro.polygen import algebra
from repro.polygen.federation import Federation
from repro.relational.catalog import Database
from repro.relational.schema import schema

N_TICKERS = 120


def _make_federation(n_databases: int) -> Federation:
    federation = Federation("markets")
    for db_index in range(n_databases):
        db = Database(f"feed_{db_index}")
        db.create_relation(
            schema("quotes", [("ticker", "STR"), ("price", "FLOAT")])
        )
        for t in range(N_TICKERS):
            # Every feed quotes every ticker; prices agree so union
            # merges them into corroborated rows.
            db.insert(
                "quotes", {"ticker": f"T{t:03d}", "price": float(100 + t)}
            )
        federation.register(db, credibility=1.0 - 0.1 * db_index)
    return federation


def test_e3_union_corroboration(benchmark):
    federation = _make_federation(4)
    merged = benchmark(federation.union_all, "quotes")
    # Agreement across feeds: one row per ticker, 4 originating sources.
    assert len(merged) == N_TICKERS
    sample = merged.rows[0]["price"]
    assert len(sample.originating) == 4
    emit(
        "E3: corroborated union (first rows)",
        merged.render(max_rows=3, title="union of 4 feeds"),
    )


def test_e3_join_intermediate_sources(benchmark):
    federation = _make_federation(2)
    quotes = federation.export("feed_0", "quotes")
    reports_db = Database("research")
    reports_db.create_relation(
        schema("reports", [("symbol", "STR"), ("analyst", "STR")])
    )
    for t in range(N_TICKERS):
        reports_db.insert(
            "reports", {"symbol": f"T{t:03d}", "analyst": f"an{t % 7}"}
        )
    federation.register(reports_db)
    reports = federation.export("research", "reports")

    joined = benchmark(
        algebra.equi_join, quotes, reports, [("ticker", "symbol")]
    )
    assert len(joined) == N_TICKERS
    row = joined.rows[0]
    # Join-key sources flow into every output cell's intermediate set.
    for cell in row.cells:
        assert {"feed_0", "research"} <= cell.intermediate
    report = federation.provenance_report(joined)
    table = TextTable(
        ["source", "originating cells", "intermediate cells"],
        title="E3: provenance report after join",
    )
    for source in sorted(report):
        table.add_row(
            [
                source,
                report[source]["originating"],
                report[source]["intermediate"],
            ]
        )
    emit("E3: join provenance", table.render())


def test_e3_bridge_to_quality_layer(benchmark):
    """The two formal models compose: federation union → source-tagged
    relation → indicator-constrained retrieval (the full tag-and-query
    loop across [24][25] and [28])."""
    from repro.polygen.bridge import polygen_to_tagged
    from repro.tagging.query import QualityQuery

    federation = _make_federation(3)
    merged = federation.union_all("quotes")

    def bridge_and_filter():
        tagged = polygen_to_tagged(merged)
        return (
            QualityQuery(tagged)
            .require("price", "source", "==", "feed_0+feed_1+feed_2")
            .count()
        )

    corroborated = benchmark(bridge_and_filter)
    emit(
        "E3: bridge to quality layer",
        f"fully corroborated quotes retrievable by source tag: "
        f"{corroborated}/{N_TICKERS}",
    )
    # All feeds agree on every ticker: everything is fully corroborated.
    assert corroborated == N_TICKERS


def test_e3_cost_vs_federation_size(benchmark):
    """Union cost grows with the number of federated databases."""

    def sweep():
        results = []
        for k in (1, 2, 4, 8):
            federation = _make_federation(k)
            seconds = float("inf")
            for _ in range(3):  # noise-robust: best of three
                start = time.perf_counter()
                merged = federation.union_all("quotes")
                seconds = min(seconds, time.perf_counter() - start)
            results.append(
                {
                    "databases": k,
                    "seconds": seconds,
                    "rows": len(merged),
                    "sources_per_cell": len(
                        merged.rows[0]["price"].originating
                    ),
                }
            )
        return results

    results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    emit(
        "E3: union cost vs federation size",
        render_series(
            "databases",
            "seconds",
            [(entry["databases"], entry["seconds"]) for entry in results],
        ),
    )
    # Shapes: row count constant (full corroboration), source sets grow
    # linearly, cost grows with k.
    assert all(entry["rows"] == N_TICKERS for entry in results)
    assert [entry["sources_per_cell"] for entry in results] == [1, 2, 4, 8]
    assert results[-1]["seconds"] > results[0]["seconds"]


def test_e3_json_fast_vs_naive_join():
    """Emit BENCH_E3.json: fast federation join vs the naive (seed) join.

    Corroborated quotes from two feeds joined with research reports.
    The fast path reuses the build side's cached hash-join index, moves
    trusted rows end-to-end (bulk ``from_rows``, no per-row inserts) and
    memoizes examined-source unions; the naive path rebuilds per-row
    cell dicts and re-validates each output row.
    Acceptance floor for this PR: 3x ops/sec.
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_polygen_equi_join
    from repro.obs.export import SPEEDUP_FLOORS

    n_tickers = 2000
    federation = Federation("markets")
    for db_index in range(2):
        db = Database(f"feed_{db_index}")
        db.create_relation(
            schema("quotes", [("ticker", "STR"), ("price", "FLOAT")])
        )
        for t in range(n_tickers):
            db.insert(
                "quotes", {"ticker": f"T{t:04d}", "price": float(100 + t)}
            )
        federation.register(db, credibility=1.0 - 0.1 * db_index)
    reports_db = Database("research")
    reports_db.create_relation(
        schema("reports", [("symbol", "STR"), ("analyst", "STR")])
    )
    for t in range(n_tickers):
        reports_db.insert(
            "reports", {"symbol": f"T{t:04d}", "analyst": f"an{t % 7}"}
        )
    federation.register(reports_db)

    quotes = federation.union_all("quotes", ["feed_0", "feed_1"])
    reports = federation.export("research", "reports")
    on = [("ticker", "symbol")]

    fast_result = algebra.equi_join(quotes, reports, on)
    naive_result = naive_polygen_equi_join(quotes, reports, on)
    assert len(fast_result) == len(naive_result) == n_tickers
    for fast_row, naive_row in zip(fast_result.rows[:5], naive_result.rows[:5]):
        for fast_cell, naive_cell in zip(fast_row.cells, naive_row.cells):
            assert fast_cell.value == naive_cell.value
            assert fast_cell.originating == naive_cell.originating
            assert fast_cell.intermediate == naive_cell.intermediate

    fast_s, naive_s = best_seconds_interleaved(
        [
            lambda: algebra.equi_join(quotes, reports, on),
            lambda: naive_polygen_equi_join(quotes, reports, on),
        ]
    )
    speedup = naive_s / fast_s
    write_bench_json(
        "BENCH_E3.json",
        [
            bench_record(
                "e3_federation_join_fast", n_tickers, fast_s, speedup=speedup
            ),
            bench_record(
                "e3_federation_join_naive", n_tickers, naive_s, speedup=1.0
            ),
        ],
        REPO_ROOT,
    )
    emit(
        "E3: fast vs naive federation join",
        f"fast {fast_s * 1e3:.1f} ms, naive {naive_s * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x over {n_tickers} joined rows",
    )
    assert speedup >= SPEEDUP_FLOORS["e3_federation_join_fast"]
