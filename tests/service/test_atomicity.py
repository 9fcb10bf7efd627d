"""Regression tests for the concurrency bugfixes.

Each test here fails on the pre-service code (plain ``+= 1`` version
bumps, unlocked ``OrderedDict`` plan-cache mutation, raise-on-busy
transaction manager) when run under threads.  ``sys.setswitchinterval``
is dropped to force frequent preemption so the lost-update windows are
actually hit within a few thousand iterations.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.errors import SchemaError, TransactionError
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema, schema
from repro.sql.plancache import PlanCache
from repro.tagging.indicators import IndicatorDefinition, TagSchema
from repro.tagging.relation import TaggedRelation

THREADS = 8
PER_THREAD = 400


@contextmanager
def aggressive_preemption():
    """Force thread switches every ~10µs so races actually interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def run_threads(target, count=THREADS):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_relation_version_and_rows_update_atomically():
    """Concurrent inserts and deletes must lose no row and no version bump.

    ``delete`` is a read-rebuild-assign over ``(_rows, _version)``: it
    filters the row list, assigns the rebuilt list, and bumps the
    version.  Unlocked, an insert landing *during* the rebuild appends
    to the list the delete is about to throw away — the inserted row
    silently vanishes, and the version/row bookkeeping diverges from
    the mutations actually applied.
    """
    for trial in range(4):
        relation = Relation(
            RelationSchema("r", [Column("a", "INT"), Column("keep", "INT")])
        )
        base = relation.version
        writers_done = threading.Event()
        delete_calls = [0]

        def worker(thread_index):
            if thread_index == 0:
                # deleter runs for the writers' whole lifetime, so every
                # rebuild overlaps in-flight inserts
                while not writers_done.is_set():
                    relation.delete(lambda r: r["keep"] == 0)
                    delete_calls[0] += 1
            else:
                for i in range(PER_THREAD):
                    relation.insert({"a": i, "keep": 1})
                    relation.insert({"a": i, "keep": 0})

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(THREADS)
        ]
        with aggressive_preemption():
            for thread in threads:
                thread.start()
            for thread in threads[1:]:
                thread.join()
            writers_done.set()
            threads[0].join()

        relation.delete(lambda r: r["keep"] == 0)
        delete_calls[0] += 1
        payload = (THREADS - 1) * PER_THREAD
        # no insert was lost to a delete's rebuild
        assert len(relation) == payload, f"trial {trial} lost rows"
        # every mutation bumped the version exactly once: one bump per
        # insert, one per delete call (delete routes the rebuild through
        # _replace_rows)
        inserts = 2 * payload
        assert relation.version == base + inserts + delete_calls[0]


def test_tagged_relation_version_and_rows_update_atomically():
    tag_schema = TagSchema([IndicatorDefinition("source")], allowed={})
    relation = TaggedRelation(
        RelationSchema("r", [Column("a", "INT"), Column("keep", "INT")]),
        tag_schema,
    )

    def worker(thread_index):
        if thread_index == 0:
            for _ in range(PER_THREAD // 4):
                relation.delete(lambda r: r.value("keep") == 0)
        else:
            for i in range(PER_THREAD):
                relation.insert({"a": i, "keep": 1})
                relation.insert({"a": i, "keep": 0})

    with aggressive_preemption():
        run_threads(worker)

    relation.delete(lambda r: r.value("keep") == 0)
    assert len(relation) == (THREADS - 1) * PER_THREAD


def test_concurrent_create_of_same_name_exactly_one_wins():
    """The create-relation check-then-act must be atomic.

    Unlocked, two sessions racing to create the same name both pass the
    membership check (constructing and partitioning the relation
    between check and assignment is a wide preemption window), both
    "succeed", one silently overwrites the other, and the catalog
    version double-bumps for a single surviving relation.
    """
    from repro.relational import hash_partitions

    for round_index in range(300):
        database = Database("races")
        barrier = threading.Barrier(2)
        outcomes: list[str] = []

        def creator(thread_index):
            barrier.wait()
            try:
                database.create_relation(
                    schema("dup", [("a", "INT")]),
                    enforce_key=False,
                    partition_by=hash_partitions("a", 16),
                )
                outcomes.append("created")
            except SchemaError:
                outcomes.append("duplicate")

        with aggressive_preemption():
            run_threads(creator, count=2)

        assert sorted(outcomes) == ["created", "duplicate"], (
            f"round {round_index}: both creators succeeded"
        )
        assert database.catalog_version == 1
        assert database.relation_names == ("dup",)


def test_catalog_version_tracks_concurrent_create_drop_exactly():
    """T threads creating + dropping distinct relations must land on
    exactly one catalog-version bump per schema change."""
    database = Database("races")
    creates_per_thread = 40

    def creator(thread_index):
        for i in range(creates_per_thread):
            name = f"rel_{thread_index}_{i}"
            database.create_relation(
                schema(name, [("a", "INT")]), enforce_key=False
            )
            if i % 2:
                database.drop_relation(name)

    with aggressive_preemption():
        run_threads(creator)

    total = THREADS * creates_per_thread
    dropped = THREADS * (creates_per_thread // 2)
    assert len(database.relation_names) == total - dropped
    assert database.catalog_version == total + dropped


def test_plan_cache_concurrent_lookup_store_is_safe():
    """Hammer one small PlanCache from many threads: no exceptions, and
    the hit/miss counters add up to exactly the lookups performed.

    On the unlocked cache, concurrent ``move_to_end``/``popitem`` and
    ``setdefault`` corrupt the OrderedDict (KeyError/RuntimeError) and
    the ``+= 1`` counters under-count.
    """
    relation = Relation(
        RelationSchema("t", [Column("a", "INT"), Column("b", "STR")])
    )
    for i in range(10):
        relation.insert({"a": i, "b": f"x{i}"})
    cache = PlanCache(max_statements=4)  # small: eviction is exercised
    statements = [
        f"SELECT a FROM t WHERE a = {i} ORDER BY a" for i in range(12)
    ]
    # Enough churn that an unlocked cache's move_to_end/eviction window
    # is hit: a concurrent eviction between .get(sql) and
    # .move_to_end(sql) raises KeyError on the pre-lock code.
    lookups_per_thread = 400
    errors: list[BaseException] = []

    def worker(thread_index):
        try:
            for i in range(lookups_per_thread):
                sql = statements[(thread_index + i) % len(statements)]
                found = cache.lookup(sql, relation)
                if found is None:
                    from repro.sql.parser import parse
                    from repro.sql.physical import compile_plan
                    from repro.sql.plancache import (
                        PreparedStatement,
                        plan_statement,
                    )

                    statement = parse(sql)
                    plan, resolved, context = plan_statement(
                        statement, relation
                    )
                    compiled = compile_plan(plan, {statement.relation: resolved})
                    cache.store(
                        PreparedStatement(
                            sql, statement, plan, compiled, context.reads
                        )
                    )
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    with aggressive_preemption():
        run_threads(worker)

    assert errors == []
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == THREADS * lookups_per_thread
    assert stats["statements"] <= 4


def test_cross_thread_transactions_serialize_instead_of_raising():
    """insert_many from many threads must serialize, not raise.

    The old manager raised ``TransactionError: transaction N is still
    active`` whenever a second thread began while any transaction was
    open — a concurrent writer could not exist at all.
    """
    database = Database("corp")
    database.create_relation(
        schema("t", [("a", "INT"), ("w", "INT")]), enforce_key=False
    )
    batch = 25
    failures: list[BaseException] = []

    def writer(thread_index):
        try:
            for round_index in range(8):
                database.insert_many(
                    "t",
                    [
                        {"a": round_index * batch + i, "w": thread_index}
                        for i in range(batch)
                    ],
                )
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)

    with aggressive_preemption():
        run_threads(writer)

    assert failures == []
    assert len(database.relation("t")) == THREADS * 8 * batch


def test_same_thread_nested_begin_still_raises():
    """The same-thread double-begin contract is unchanged."""
    database = Database("corp")
    txn = database.transactions.begin()
    with pytest.raises(TransactionError):
        database.transactions.begin()
    txn.commit()
    # and after finishing, begin works again
    database.transactions.begin().commit()
