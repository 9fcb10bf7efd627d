"""E2 — the cost of tags: storage and query overhead vs. untagged data.

The paper acknowledges "cost-benefit tradeoffs in tagging and tracking
data quality must be considered" (§4) but never quantifies them.  This
experiment does: the same customer data is stored untagged
(:class:`Relation`) and tagged (:class:`TaggedRelation`) across tag
densities, and we measure build time, scan time, and stored-object
counts.

Expected shape: overhead grows with tag density (0 → 3 tags/cell);
tagged scans are a constant factor slower than untagged scans; tagging
never changes query *answers* (values are identical).
"""

import datetime as dt

from conftest import emit

from repro.experiments.reporting import TextTable, render_series
from repro.experiments.scenarios import CUSTOMER_SCHEMA
from repro.manufacturing.generator import make_companies
from repro.relational.relation import Relation
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation

N_ROWS = 800

_ALL_INDICATORS = [
    IndicatorDefinition("source", "STR"),
    IndicatorDefinition("creation_time", "DATE"),
    IndicatorDefinition("collection_method", "STR"),
]


def _rows():
    companies = make_companies(N_ROWS, seed=6)
    return [
        {"co_name": name, **values} for name, values in companies.items()
    ]


def _tags_for(density: int, row_index: int) -> list[IndicatorValue]:
    tags = [
        IndicatorValue("source", "acct'g"),
        IndicatorValue(
            "creation_time", dt.date(1991, 1, 1) + dt.timedelta(days=row_index % 300)
        ),
        IndicatorValue("collection_method", "manual_entry"),
    ]
    return tags[:density]


def _build_tagged(rows, density: int) -> TaggedRelation:
    names = [d.name for d in _ALL_INDICATORS[:density]]
    tag_schema = TagSchema(
        indicators=_ALL_INDICATORS[:density],
        allowed={
            "address": names,
            "employees": names,
        }
        if density
        else None,
    )
    relation = TaggedRelation(CUSTOMER_SCHEMA, tag_schema)
    for i, row in enumerate(rows):
        relation.insert(
            {
                "co_name": row["co_name"],
                "address": QualityCell(row["address"], _tags_for(density, i)),
                "employees": QualityCell(row["employees"], _tags_for(density, i)),
            }
        )
    return relation


def test_e2_build_untagged_baseline(benchmark):
    rows = _rows()
    relation = benchmark(Relation.from_dicts, CUSTOMER_SCHEMA, rows)
    assert len(relation) == N_ROWS


def test_e2_build_tagged_density3(benchmark):
    rows = _rows()
    relation = benchmark(_build_tagged, rows, 3)
    assert relation.tag_count() == N_ROWS * 2 * 3


def test_e2_overhead_curve(benchmark):
    """One benchmark run sweeps densities and reports the curve."""
    rows = _rows()

    def sweep():
        import time

        results = []
        for density in (0, 1, 2, 3):
            # Noise-robust: best of three measurements.
            build_seconds = float("inf")
            scan_seconds = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                relation = _build_tagged(rows, density)
                build_seconds = min(
                    build_seconds, time.perf_counter() - start
                )
                start = time.perf_counter()
                count = sum(
                    1 for r in relation if r.value("employees") > 1000
                )
                scan_seconds = min(scan_seconds, time.perf_counter() - start)
            results.append(
                {
                    "density": density,
                    "build_s": build_seconds,
                    "scan_s": scan_seconds,
                    "tags": relation.tag_count(),
                    "answer": count,
                }
            )
        return results

    results = benchmark.pedantic(sweep, rounds=3, iterations=1)
    table = TextTable(
        ["tags/cell", "build_s", "scan_s", "stored_tags", "rows_matching"],
        title=f"E2: tagging overhead over {N_ROWS} rows",
    )
    for entry in results:
        table.add_row(
            [
                entry["density"],
                entry["build_s"],
                entry["scan_s"],
                entry["tags"],
                entry["answer"],
            ]
        )
    emit("E2: tagging overhead", table.render())
    emit(
        "E2: build-time curve",
        render_series(
            "tags/cell",
            "build seconds",
            [(e["density"], e["build_s"]) for e in results],
        ),
    )
    # Shape: answers identical regardless of tags; storage grows
    # linearly in density; build cost grows monotonically (weakly).
    answers = {entry["answer"] for entry in results}
    assert len(answers) == 1
    tag_counts = [entry["tags"] for entry in results]
    assert tag_counts == [0, N_ROWS * 2, N_ROWS * 4, N_ROWS * 6]
    assert results[-1]["build_s"] > results[0]["build_s"]


def test_e2_ablation_per_cell_vs_columnar(benchmark):
    """DESIGN.md §7 ablation: per-cell tag objects vs a columnar side
    table.  Both must answer identically; the columnar scan touches one
    array and is expected to win on filter latency."""
    import time

    from repro.tagging.columnar import ColumnarTagStore
    from repro.tagging.query import QualityQuery

    rows = _rows()
    tagged = _build_tagged(rows, 3)
    store = ColumnarTagStore.from_tagged_relation(tagged)

    def per_cell_filter():
        return (
            QualityQuery(tagged)
            .require("address", "source", "==", "acct'g")
            .count()
        )

    def columnar_filter():
        return len(
            store.filter_indices("address", "source", "==", "acct'g")
        )

    # Equivalence first.
    assert per_cell_filter() == columnar_filter() == N_ROWS

    def measure():
        best_cell = min(
            _timed(per_cell_filter) for _ in range(3)
        )
        best_columnar = min(
            _timed(columnar_filter) for _ in range(3)
        )
        return best_cell, best_columnar

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    per_cell_s, columnar_s = benchmark.pedantic(measure, rounds=3, iterations=1)
    emit(
        "E2 ablation: tag representation",
        f"per-cell filter:  {per_cell_s * 1e3:.3f} ms\n"
        f"columnar filter:  {columnar_s * 1e3:.3f} ms\n"
        f"columnar speedup: {per_cell_s / columnar_s:.1f}x",
    )
    # The columnar layout's one-array scan should not lose.
    assert columnar_s <= per_cell_s


def test_e2_json_fast_vs_naive_scan():
    """Emit BENCH_E2.json: compiled and columnar tagged scans vs naive.

    10 000 density-3 tagged rows filtered on one indicator constraint.
    The fast path resolves column positions once and moves surviving
    rows through the trusted insert; the columnar path scans one
    contiguous tag array and gathers survivors late; the naive path
    re-resolves names per row and re-validates every value and tag.
    All three legs are timed interleaved so each speedup is a ratio of
    same-round measurements (the naive baseline is never reused from a
    different run).  Floors: 2x (fast), 10x (columnar).
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_quality_filter
    from repro.obs.export import SPEEDUP_FLOORS
    from repro.tagging.query import IndicatorConstraint, QualityFilter

    n = 10_000
    names = [d.name for d in _ALL_INDICATORS]
    tag_schema = TagSchema(
        indicators=_ALL_INDICATORS,
        allowed={"address": names, "employees": names},
    )
    relation = TaggedRelation(CUSTOMER_SCHEMA, tag_schema)
    for i in range(n):
        relation.insert(
            {
                "co_name": f"co_{i}",
                "address": QualityCell(f"{i} Main St", _tags_for(3, i)),
                "employees": QualityCell(i % 5000, _tags_for(3, i)),
            }
        )
    grade = QualityFilter(
        [IndicatorConstraint("address", "source", "==", "acct'g")],
        name="bench_scan",
    )

    fast_result = grade.apply(relation)
    columnar_result = grade.apply_columnar(relation)
    naive_result = naive_quality_filter(relation, grade)
    assert len(fast_result) == len(naive_result) == n
    assert [r.cells for r in columnar_result] == [
        r.cells for r in naive_result
    ]

    relation.columnar_store()  # build outside the timed region
    fast_s, columnar_s, naive_s = best_seconds_interleaved(
        [
            lambda: grade.apply(relation),
            lambda: grade.apply_columnar(relation),
            lambda: naive_quality_filter(relation, grade),
        ]
    )
    speedup = naive_s / fast_s
    columnar_speedup = naive_s / columnar_s
    write_bench_json(
        "BENCH_E2.json",
        [
            bench_record("e2_tagged_scan_fast", n, fast_s, speedup=speedup),
            bench_record(
                "e2_tagged_scan_columnar",
                n,
                columnar_s,
                speedup=columnar_speedup,
            ),
            bench_record("e2_tagged_scan_naive", n, naive_s, speedup=1.0),
        ],
        REPO_ROOT,
    )
    emit(
        "E2: fast vs naive tagged scan",
        f"fast {fast_s * 1e3:.1f} ms, columnar {columnar_s * 1e3:.1f} ms, "
        f"naive {naive_s * 1e3:.1f} ms; speedups {speedup:.1f}x / "
        f"{columnar_speedup:.1f}x over {n} rows",
    )
    assert speedup >= SPEEDUP_FLOORS["e2_tagged_scan_fast"]
    assert columnar_speedup >= SPEEDUP_FLOORS["e2_tagged_scan_columnar"]
