"""Query service under concurrency — latency, throughput, isolation.

Not a paper artifact: a performance characterization of the
:mod:`repro.service` layer.  N concurrent clients drive QSQL through
:class:`QueryService` sessions and we record p50/p99 latency and
aggregate throughput, then repeat the same read load while one writer
continuously lands ``insert_many`` batches.  Because reads run against
pinned copy-on-write snapshots, readers should keep most of their
solo throughput under write pressure — BENCH_SERVICE.json records the
ratio and the bench-trend gate enforces its floor (0.5x).

The snapshot-isolation assertion is deterministic, not statistical: a
query whose execution is held at a gate pins its snapshot at *submit*
time, sentinel rows are inserted while it is parked, and the released
result must not contain them.
"""

import statistics
import threading
import time

from conftest import REPO_ROOT, emit

from repro.obs.export import SPEEDUP_FLOORS
from repro.relational import hash_partitions
from repro.relational.catalog import Database
from repro.relational.schema import Column, RelationSchema
from repro.service import QueryService
from repro.sql import clear_plan_cache

N_ROWS = 20_000
N_BUCKETS = 64
N_CLIENTS = 4
QUERIES_PER_CLIENT = 60

#: Selective pruned lookup: the planner restricts the scan to one of
#: the 64 hash buckets, so per-query work is dominated by the service
#: path (snapshot pin, queue, dispatch) rather than the scan itself.
QUERY = (
    "SELECT event_id, amount FROM events "
    "WHERE region = 'region_7' AND amount >= 100.0 "
    "ORDER BY amount DESC LIMIT 20"
)

_CACHE = {}


def _database():
    if "db" not in _CACHE:
        database = Database("bench_service")
        relation = database.create_relation(
            RelationSchema(
                "events",
                [
                    Column("event_id", "INT"),
                    Column("region", "STR"),
                    Column("amount", "FLOAT"),
                ],
            ),
            enforce_key=False,
            partition_by=hash_partitions("region", N_BUCKETS),
        )
        relation.insert_many(
            {
                "event_id": i,
                "region": f"region_{i % 97}",
                "amount": float(i * 7919 % 10_000),
            }
            for i in range(N_ROWS)
        )
        _CACHE["db"] = database
    return _CACHE["db"]


def _run_clients(service):
    """Drive the read load from N_CLIENTS threads.

    Returns (per-query latencies flattened across clients, wall time
    for the whole load).
    """

    latencies: list[list[float]] = [[] for _ in range(N_CLIENTS)]

    def client(index: int):
        with service.session() as session:
            for _ in range(QUERIES_PER_CLIENT):
                start = time.perf_counter()
                session.execute(QUERY)
                latencies[index].append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(N_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    flat = [latency for per_client in latencies for latency in per_client]
    return flat, wall


def test_service_snapshot_isolation_is_exact():
    """A parked query must answer from its submit-time snapshot."""
    database = _database()
    base_count = len(database.relation("events"))
    gate = threading.Event()
    with QueryService(
        database, workers=1, runner=lambda fn: (gate.wait(10), fn())[1]
    ) as service:
        ticket = service.submit("SELECT event_id FROM events")
        database.insert_many(
            "events",
            [
                {"event_id": -1 - i, "region": "region_7", "amount": 0.0}
                for i in range(50)
            ],
        )
        gate.set()
        parked = ticket.result(timeout=30)
    assert len(parked) == base_count  # sentinels invisible to the snapshot
    with QueryService(database, workers=1) as service:
        with service.session() as session:
            fresh = session.execute("SELECT event_id FROM events")
    assert len(fresh) == base_count + 50  # ...but a fresh pin sees them
    database.delete("events", lambda row: row["event_id"] < 0)


def test_service_json_concurrent_latency_and_throughput():
    """Emit BENCH_SERVICE.json: client latency + throughput under writes.

    Floor enforced by the bench-trend CI gate: aggregate reader
    throughput with a concurrent writer landing batches must hold at
    least 0.5x of the readers-alone throughput — snapshot reads never
    wait on row locks, so write pressure costs coordination, not
    blocking.
    """
    from repro.experiments.harness import bench_record, write_bench_json

    database = _database()
    clear_plan_cache()
    total = N_CLIENTS * QUERIES_PER_CLIENT

    with QueryService(database, workers=N_CLIENTS) as service:
        # Warm the plan cache and snapshot cache outside the timed region.
        with service.session() as session:
            session.execute(QUERY)
        alone_latencies, alone_wall = _run_clients(service)

    writer_stop = threading.Event()
    batches = {"count": 0}

    def writer():
        batch_index = 0
        while not writer_stop.is_set():
            database.insert_many(
                "events",
                [
                    {
                        "event_id": N_ROWS + batch_index * 50 + i,
                        "region": f"region_{i % 97}",
                        "amount": float(i),
                    }
                    for i in range(50)
                ],
            )
            batch_index += 1
            batches["count"] = batch_index
            # Paced writer: a short gap between batches keeps this a
            # sustained-write workload rather than a tight loop that
            # starves snapshot acquisition of the transaction gate.
            time.sleep(0.005)

    with QueryService(database, workers=N_CLIENTS) as service:
        with service.session() as session:
            session.execute(QUERY)
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            contended_latencies, contended_wall = _run_clients(service)
        finally:
            writer_stop.set()
            writer_thread.join()

    assert batches["count"] > 0  # the writer really ran alongside
    alone_tput = total / alone_wall
    contended_tput = total / contended_wall
    ratio = contended_tput / alone_tput
    p50 = statistics.median(alone_latencies)
    p99 = statistics.quantiles(alone_latencies, n=100)[98]

    write_bench_json(
        "BENCH_SERVICE.json",
        [
            bench_record(
                "service_reader_throughput_under_writer",
                total,
                contended_wall,
                speedup=ratio,
            ),
            bench_record("service_readers_alone", total, alone_wall),
            bench_record("service_latency_p50", 1, p50),
            bench_record("service_latency_p99", 1, p99),
        ],
        REPO_ROOT,
    )
    emit(
        "Service: concurrent clients, snapshot reads under write load",
        f"{N_CLIENTS} clients x {QUERIES_PER_CLIENT} queries: "
        f"alone {alone_tput:.0f} q/s, under writer {contended_tput:.0f} q/s "
        f"(ratio {ratio:.2f}x, {batches['count']} write batches landed)\n"
        f"latency p50 {p50 * 1e3:.2f} ms, p99 "
        f"{statistics.quantiles(contended_latencies, n=100)[98] * 1e3:.2f}"
        f" ms under writer / {p99 * 1e3:.2f} ms alone",
    )
    # Same floor the bench-trend job enforces, asserted here too so a
    # local run fails loudly.
    floor = SPEEDUP_FLOORS["service_reader_throughput_under_writer"]
    assert ratio >= floor, f"reader throughput collapsed under writer: {ratio:.2f}x"
