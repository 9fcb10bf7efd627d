"""Thread-safety stress tests: readers racing writers and repartitions.

These are the service-level counterparts to the targeted races in
``test_atomicity.py``: many reader threads take snapshots (directly or
through a :class:`QueryService`) while one writer mutates the database,
and every observation must be consistent — no torn ``insert_many``
batches, no rows lost across a concurrent ``repartition()``, and no
stale plan-cache pruning after the partition layout changes.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    register_profile,
)
from repro.quality.scoring import credibility_scorer
from repro.relational import hash_partitions
from repro.relational.catalog import Database
from repro.relational.schema import schema
from repro.service import QueryService
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

READERS = 4
BATCH = 10
BATCHES = 30


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@contextmanager
def aggressive_preemption():
    """Force thread switches every ~10µs so races actually interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _events_database(prepopulate: int = 0) -> Database:
    database = Database("stress")
    database.create_relation(
        schema("events", [("event_id", "INT"), ("region", "STR")]),
        enforce_key=False,
        partition_by=hash_partitions("region", 8),
    )
    if prepopulate:
        database.insert_many(
            "events",
            [
                {"event_id": i, "region": f"r{i % 5}"}
                for i in range(prepopulate)
            ],
        )
    return database


def test_snapshots_never_observe_torn_batches():
    """Readers snapshotting a partitioned relation mid-``insert_many``
    must only ever see whole batches.

    ``Database.snapshot()`` holds the transaction manager's exclusive
    gate, so a batch that inserts atomically is also *observed*
    atomically: every snapshot row count is a multiple of the batch
    size.
    """
    database = _events_database()
    writers_done = threading.Event()
    start = threading.Barrier(READERS + 1)
    torn: list[int] = []

    def writer():
        start.wait()
        try:
            for batch_index in range(BATCHES):
                database.insert_many(
                    "events",
                    [
                        {
                            "event_id": batch_index * BATCH + i,
                            "region": f"r{i % 5}",
                        }
                        for i in range(BATCH)
                    ],
                )
        finally:
            writers_done.set()

    def reader(counts: list[int]):
        start.wait()
        while not writers_done.is_set():
            count = len(database.snapshot()["events"])
            counts.append(count)
            if count % BATCH:
                torn.append(count)

    observed: list[list[int]] = [[] for _ in range(READERS)]
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(observed[i],))
        for i in range(READERS)
    ]
    with aggressive_preemption():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert torn == [], f"torn batch counts observed: {torn[:5]}"
    assert len(database.relation("events")) == BATCH * BATCHES
    # the readers genuinely raced the writer (took snapshots mid-run)
    assert any(observed)


def test_service_readers_race_writer_over_columnar_scans():
    """Service readers (batch plans over pinned snapshots) racing a
    live writer: every result is a whole-batch view, and concurrent
    value-array builds on the shared frozen snapshot are safe.
    """
    database = _events_database(prepopulate=BATCH)
    writers_done = threading.Event()
    bad: list[int] = []

    def writer():
        try:
            for batch_index in range(1, BATCHES):
                database.insert_many(
                    "events",
                    [
                        {
                            "event_id": batch_index * BATCH + i,
                            "region": f"r{i % 5}",
                        }
                        for i in range(BATCH)
                    ],
                )
        finally:
            writers_done.set()

    with QueryService(database, workers=READERS) as service:

        def reader():
            with service.session() as session:
                while not writers_done.is_set():
                    result = session.execute(
                        "SELECT event_id, region FROM events"
                    )
                    if len(result) % BATCH:
                        bad.append(len(result))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(READERS)
        ]
        with aggressive_preemption():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    assert bad == [], f"torn result sizes: {bad[:5]}"
    assert len(database.relation("events")) == BATCH * BATCHES


def test_snapshot_readers_extend_carried_state_while_a_writer_appends():
    """Readers pin successive snapshots of a tagged relation while a
    writer appends.  Each snapshot extends the tag store, value arrays
    and score blocks that another thread's snapshot published, and
    every result must match the rows its own snapshot holds.
    """
    relation = TaggedRelation(
        schema("scored", [("a", "INT"), ("b", "STR")]),
        TagSchema([IndicatorDefinition("source")], allowed={"b": ["source"]}),
    )
    relation.repartition(hash_partitions("a", 8))
    register_profile(
        ScoringProfile("scored", [credibility_scorer({"acct'g": 0.9})]),
        relations=["scored"],
    )

    def row(a):
        source = IndicatorValue("source", ["acct'g", "estimate"][a % 2])
        return {"a": a, "b": QualityCell(f"x{a}", [source])}

    def top_credible(n):  # the even rows are the credible ones
        return [a for a in range(n - 1, -1, -1) if a % 2 == 0][:3]

    def low_credible(n):
        return [a for a in range(min(n, 8)) if a % 2 == 0]

    reads = [
        (
            "SELECT a FROM scored WHERE QUALITY(b.source) <> 'rumor' "
            "AND QUALITY(credibility) > 0.5 ORDER BY a DESC LIMIT 3",
            top_credible,
        ),
        (
            "SELECT a FROM scored WHERE a IN (0, 1, 2, 3, 4, 5, 6, 7) "
            "AND QUALITY(credibility) > 0.5",
            low_credible,
        ),
    ]
    relation.insert_many(row(a) for a in range(BATCH))
    writers_done = threading.Event()
    bad: list[tuple[int, list]] = []

    def writer():
        try:
            for batch_index in range(1, BATCHES):
                start = batch_index * BATCH
                relation.insert_many(row(a) for a in range(start, start + BATCH))
        finally:
            writers_done.set()

    def reader():
        try:
            while True:
                done = writers_done.is_set()  # one last read after it
                snapshot = relation.read_snapshot()
                for sql, expected in reads:
                    got = [r.value("a") for r in execute(sql, snapshot)]
                    if got != expected(len(snapshot)):
                        bad.append((len(snapshot), got))
                if done:
                    return
        except Exception as exc:  # a reader error fails the test below
            bad.append((-1, [repr(exc)]))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(READERS)
    ]
    try:
        with aggressive_preemption():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        clear_profiles()
    assert bad == [], f"wrong results: {bad[:5]}"
    assert len(relation) == BATCH * BATCHES


def test_repartition_under_query_never_serves_stale_plans():
    """Queries racing ``repartition()`` must stay correct.

    A compiled plan caches the pruned shard list for the layout it was
    planned against; reusing it after the layout changed would scan the
    wrong buckets.  The plan cache pins ``partition_layout_version``,
    so every reader result must equal the static answer no matter how
    often the layout flips underneath.
    """
    database = _events_database(prepopulate=500)
    sql = (
        "SELECT event_id FROM events WHERE region = 'r3' "
        "ORDER BY event_id"
    )
    expected = [row["event_id"] for row in execute(sql, database)]
    assert expected  # the probe query is not vacuous

    readers_done = threading.Event()
    wrong: list[list[int]] = []
    layouts = [
        hash_partitions("region", 2),
        hash_partitions("region", 16),
        None,  # drop partitioning entirely
        hash_partitions("region", 8),
    ]

    def mutator():
        index = 0
        while not readers_done.is_set():
            database.repartition("events", layouts[index % len(layouts)])
            index += 1

    def reader():
        with QueryService(database, workers=1) as service:
            with service.session() as session:
                for _ in range(40):
                    result = session.execute(sql)
                    rows = [row["event_id"] for row in result]
                    if rows != expected:
                        wrong.append(rows)

    reader_threads = [threading.Thread(target=reader) for _ in range(2)]
    mutator_thread = threading.Thread(target=mutator)
    with aggressive_preemption():
        mutator_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        readers_done.set()
        mutator_thread.join()

    assert wrong == [], f"stale-plan result: {wrong[:1]}"


def test_repartition_racing_inserts_conserves_rows():
    """Repartitioning while inserts land must lose no row: the
    redistribution and the insert routing serialize on the relation
    lock instead of racing over the shard lists."""
    database = Database("stress")
    relation = database.create_relation(
        schema("t", [("a", "INT"), ("w", "INT")]),
        enforce_key=False,
        partition_by=hash_partitions("a", 4),
    )
    per_writer = 300
    writers = 4
    writers_done = threading.Event()

    def writer(worker_index: int):
        try:
            for i in range(per_writer):
                relation.insert({"a": i, "w": worker_index})
        finally:
            if worker_index == writers - 1:
                writers_done.set()

    def mutator():
        buckets = [2, 8, 3, 16]
        index = 0
        while not writers_done.is_set():
            relation.repartition(hash_partitions("a", buckets[index % 4]))
            index += 1

    threads = [threading.Thread(target=mutator)] + [
        threading.Thread(target=writer, args=(w,)) for w in range(writers)
    ]
    with aggressive_preemption():
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join()
        writers_done.set()
        threads[0].join()

    assert len(relation) == writers * per_writer
    seen = {(row["a"], row["w"]) for row in relation}
    assert len(seen) == writers * per_writer
