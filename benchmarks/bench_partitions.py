"""Partitioned relations — static pruning and incremental snapshots.

Not a paper artifact: a performance ablation of the QSQL engine.  A
hash-partitioned relation lets the planner's ``prune_partitions``
rewrite turn a selective equality predicate into a static bucket
restriction (the scan touches ~1/64 of the rows), and lets the storage
layer rewrite only the mutated partition directories on save.  This
benchmark quantifies both against their unpartitioned counterparts.

All legs are measured *interleaved* and every speedup recorded in
BENCH_PART.json is a ratio of same-round numbers.
"""

import shutil

from conftest import emit

from repro.obs import metrics
from repro.relational import hash_partitions
from repro.relational.catalog import Database
from repro.relational.schema import Column, RelationSchema
from repro.relational.storage import save
from repro.sql import clear_plan_cache, execute

N_ROWS = 100_000
N_BUCKETS = 64

EVENTS_COLUMNS = [
    Column("event_id", "INT"),
    Column("region", "STR"),
    Column("amount", "FLOAT"),
]

#: A selective equality on the partition key: the optimizer prunes the
#: scan to the single bucket the literal hashes into, so the planned
#: scan reads ~1/64 of the relation instead of all of it.
QUERY = (
    "SELECT event_id, amount FROM events WHERE region = 'region_7'"
)

_CACHE = {}


def _rows():
    return [
        {
            "event_id": i,
            "region": f"region_{i % 997}",
            "amount": float(i * 7919 % 10_000),
        }
        for i in range(N_ROWS)
    ]


def _partitioned():
    if "part" not in _CACHE:
        database = Database("bench_part")
        relation = database.create_relation(
            RelationSchema("events", list(EVENTS_COLUMNS)),
            enforce_key=False,
            partition_by=hash_partitions("region", N_BUCKETS),
        )
        for row in _rows():
            relation.insert(row)
        _CACHE["part"] = database
    return _CACHE["part"]


def _flat():
    if "flat" not in _CACHE:
        database = Database("bench_flat")
        relation = database.create_relation(
            RelationSchema("events", list(EVENTS_COLUMNS)),
            enforce_key=False,
        )
        for row in _rows():
            relation.insert(row)
        _CACHE["flat"] = database
    return _CACHE["flat"]


def test_partition_pruned_plan_shape():
    """The optimizer must bake the static bucket restriction in."""
    clear_plan_cache()
    plan = "\n".join(
        row["plan"] for row in execute(f"EXPLAIN {QUERY}", _partitioned())
    )
    assert f"partitions=1/{N_BUCKETS}" in plan
    flat_plan = "\n".join(
        row["plan"] for row in execute(f"EXPLAIN {QUERY}", _flat())
    )
    assert "partitions=" not in flat_plan


def test_partition_scan_reads_one_bucket():
    """partition.scanned shows the pruned scan fed ~1/64 of the rows."""
    database = _partitioned()
    relation = database.relation("events")
    spec = relation.partition_spec
    bucket = spec.bucket_of("region_7")
    with metrics.instrumented() as registry:
        clear_plan_cache()
        result = execute(QUERY, database)
        snapshot = registry.snapshot()
    assert 0 < len(result) < N_ROWS / N_BUCKETS
    scanned = snapshot["partition.scanned"]["value"]
    pruned = snapshot["partition.pruned"]["value"]
    assert scanned == len(relation.partition(bucket))
    # ~uniform hash layout: one bucket is a small fraction of the rows.
    assert scanned <= 3 * N_ROWS / N_BUCKETS
    assert pruned == N_BUCKETS - 1


def test_partition_json_pruned_vs_flat_and_incremental_save(tmp_path):
    """Emit BENCH_PART.json: pruned scan + incremental save speedups.

    Floors come from ``SPEEDUP_FLOORS``, which the bench-trend CI gate
    reads too.  The pruned planned scan must hold 30.1x over the naive
    oracle's (``naive_execute``) full scan of the unpartitioned
    relation, and the one-dirty-partition save 4x over a full snapshot
    rewrite.  30.1x is the earlier 8.3x over the planner-free
    interpreter's full scan (deleted since) times the oracle's 3.62x
    slowdown against that interpreter on this statement (median of
    five interleaved trials), rounded up.
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_execute
    from repro.obs.export import SPEEDUP_FLOORS

    partitioned = _partitioned()
    flat = _flat()
    canonical = lambda rel: sorted(r.values_tuple() for r in rel)  # noqa: E731

    clear_plan_cache()
    pruned_result = execute(QUERY, partitioned)
    flat_result = naive_execute(QUERY, flat)
    assert canonical(pruned_result) == canonical(flat_result)

    pruned_s, flat_s = best_seconds_interleaved(
        [
            lambda: execute(QUERY, partitioned),
            lambda: naive_execute(QUERY, flat),
        ]
    )
    scan_speedup = flat_s / pruned_s

    relation = partitioned.relation("events")
    standing = tmp_path / "standing"
    save(relation, standing)  # all partitions now clean
    fresh_root = tmp_path / "fresh"
    fresh_root.mkdir()
    counter = {"n": 0}

    def incremental_save():
        # One insert dirties exactly one bucket; save rewrites only it.
        relation.insert(
            {
                "event_id": N_ROWS + counter["n"],
                "region": "region_7",
                "amount": 1.0,
            }
        )
        counter["n"] += 1
        save(relation, standing)

    def full_save():
        # A fresh target has no clean partitions: every bucket rewrites.
        target = fresh_root / f"run_{counter['n']}"
        counter["n"] += 1
        save(relation, target)
        shutil.rmtree(target)

    incremental_s, full_s = best_seconds_interleaved(
        [incremental_save, full_save], repeats=3
    )
    save_speedup = full_s / incremental_s

    write_bench_json(
        "BENCH_PART.json",
        [
            bench_record(
                "partition_pruned_scan",
                N_ROWS,
                pruned_s,
                speedup=scan_speedup,
            ),
            bench_record(
                "partition_incremental_save",
                N_ROWS,
                incremental_s,
                speedup=save_speedup,
            ),
            bench_record("flat_naive_scan", N_ROWS, flat_s, speedup=1.0),
            bench_record("partition_full_save", N_ROWS, full_s, speedup=1.0),
        ],
        REPO_ROOT,
    )
    emit(
        "Partitions: pruned scan + incremental save",
        f"pruned scan {pruned_s * 1e3:.2f} ms, flat naive scan "
        f"{flat_s * 1e3:.2f} ms over {N_ROWS} rows "
        f"({N_BUCKETS} hash buckets)\n"
        f"incremental save {incremental_s * 1e3:.2f} ms, full save "
        f"{full_s * 1e3:.2f} ms\n"
        f"pruned vs flat scan:     {scan_speedup:.1f}x\n"
        f"incremental vs full save: {save_speedup:.1f}x",
    )
    assert scan_speedup >= SPEEDUP_FLOORS["partition_pruned_scan"]
    assert save_speedup >= SPEEDUP_FLOORS["partition_incremental_save"]
