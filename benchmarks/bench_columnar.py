"""Batch execution over column arrays — a scan-heavy statement.

Not a paper artifact: a performance ablation of the QSQL engine.
Planned statements run over array-per-column batches with selection
vectors (DESIGN.md §12); this benchmark quantifies that against the
naive AST-walking oracle (``naive_execute``) on the same statement.

Both legs are measured *interleaved* (the baseline is re-timed in the
same rounds as the planned path), and every speedup recorded in
BENCH_COLUMNAR.json is a ratio of same-round numbers.
"""

from conftest import emit

from repro.obs.export import SPEEDUP_FLOORS
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute

N_ROWS = 20_000

READINGS_SCHEMA = RelationSchema(
    "readings",
    [
        Column("sensor_id", "INT"),
        Column("reading", "FLOAT"),
        Column("station", "STR"),
        Column("grade", "INT"),
    ],
)

#: Equality-led conjunction: the leading ``station =`` runs as a
#: C-level ``list.index`` hop over the whole array, and the remaining
#: predicates only probe its survivors — the access pattern batch
#: execution is designed around (DESIGN.md §12).
QUERY = (
    "SELECT sensor_id, reading FROM readings "
    "WHERE station = 'st_7' AND reading >= 1000.0 AND grade IN (1, 2) "
    "ORDER BY reading DESC LIMIT 50"
)


_CACHE = {}


def _relation():
    if "rel" not in _CACHE:
        _CACHE["rel"] = Relation.from_tuples(
            READINGS_SCHEMA,
            [
                (
                    i,
                    None if i % 17 == 0 else float(i * 7919 % 10_000),
                    f"st_{i % 11}",
                    i % 5,
                )
                for i in range(N_ROWS)
            ],
        )
    return _CACHE["rel"]


def test_batch_plan_shape():
    """The statement plans to one batch pipeline: filter, top-k, project."""
    clear_plan_cache()
    plan = [
        row["plan"].lstrip("│├└─ ")
        for row in execute(f"EXPLAIN {QUERY}", _relation())
    ]
    assert [line.split(" [")[0] for line in plan] == [
        "Project", "TopK", "Filter", "Scan",
    ]
    assert plan[-1] == "Scan [readings (plain)]"


def test_columnar_json_vs_naive():
    """Emit BENCH_COLUMNAR.json: planned batches vs the naive oracle.

    Floors enforced here and by the bench-trend CI gate
    (``SPEEDUP_FLOORS``): ``columnar_scan_filter_topk`` is 16x over
    ``naive_execute``.  It was 4.5x over the planner-free interpreter
    (deleted since); the naive oracle ran this statement 3.55x slower
    than that interpreter (median of five interleaved trials), and
    4.5 x 3.55 rounds up to 16.  ``columnar_vs_naive`` keeps its older
    8x floor on the same ratio.
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_execute

    relation = _relation()

    clear_plan_cache()
    # Warms the plan cache and builds the value arrays outside the
    # timed region.
    planned_result = execute(QUERY, relation)
    naive_result = naive_execute(QUERY, relation)
    canonical = lambda rel: [r.values_tuple() for r in rel]  # noqa: E731
    assert canonical(planned_result) == canonical(naive_result)
    assert 0 < len(planned_result) <= 50

    planned_s, naive_s = best_seconds_interleaved(
        [
            lambda: execute(QUERY, relation),
            lambda: naive_execute(QUERY, relation),
        ]
    )
    vs_naive = naive_s / planned_s
    write_bench_json(
        "BENCH_COLUMNAR.json",
        [
            bench_record(
                "columnar_scan_filter_topk",
                N_ROWS,
                planned_s,
                speedup=vs_naive,
            ),
            bench_record(
                "columnar_vs_naive",
                N_ROWS,
                planned_s,
                speedup=vs_naive,
            ),
            bench_record("naive_scan_filter_topk", N_ROWS, naive_s, speedup=1.0),
        ],
        REPO_ROOT,
    )
    emit(
        "Batches: planned vs naive",
        f"planned {planned_s * 1e3:.2f} ms, naive {naive_s * 1e3:.2f} ms "
        f"over {N_ROWS} rows\n"
        f"planned vs naive: {vs_naive:.1f}x",
    )
    assert vs_naive >= SPEEDUP_FLOORS["columnar_scan_filter_topk"]
