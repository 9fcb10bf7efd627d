"""QueryService API: sessions, options, snapshots, admission, lifecycle."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    SnapshotWriteError,
)
from repro.obs import metrics
from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    register_profile,
)
from repro.quality.scoring import credibility_scorer
from repro.relational.catalog import Database
from repro.relational.schema import schema
from repro.relational.snapshot import DatabaseSnapshot
from repro.service import QueryService, pin_snapshot
from repro.sql import clear_plan_cache
from repro.sql.errors import SQLError
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation


def make_database(n=20):
    db = Database("corp")
    db.create_relation(
        schema("t", [("a", "INT"), ("b", "STR")], key=["a"])
    )
    db.insert_many("t", [{"a": i, "b": f"x{i % 3}"} for i in range(n)])
    return db


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


# -- basic execution -----------------------------------------------------------


def test_session_execute_returns_query_result():
    with QueryService(make_database(), workers=2) as service:
        with service.session() as session:
            result = session.execute(
                "SELECT a, b FROM t WHERE a < 5 ORDER BY a"
            )
            assert [row["a"] for row in result] == [0, 1, 2, 3, 4]


def test_execution_options_flow_through():
    with QueryService(make_database(), workers=2) as service:
        with service.session(strict=True) as session:
            # strict=True rejects analysis errors before execution
            from repro.analysis.diagnostics import QueryAnalysisError

            with pytest.raises(QueryAnalysisError):
                session.execute("SELECT a FROM t WHERE a = 'zzz'")
            # per-call override wins over the session default
            result = session.execute(
                "SELECT a FROM t WHERE a = 'zzz'", strict=False
            )
            assert len(result) == 0
        # planner=False means "run the test oracle": not a service option
        with pytest.raises(TypeError):
            service.session(planner=False)
        with pytest.raises(TypeError):
            service.execute("SELECT a FROM t", planner=False)


def test_explain_and_explain_analyze():
    with QueryService(make_database(), workers=1) as service:
        with service.session() as session:
            plan = session.explain("SELECT a FROM t WHERE a = 3")
            assert any("Scan" in row["plan"] for row in plan)
            analyzed = session.explain(
                "SELECT a FROM t WHERE a = 3", analyze=True
            )
            assert any("time=" in row["plan"] for row in analyzed)


def test_query_errors_propagate_to_the_caller():
    with QueryService(make_database(), workers=1) as service:
        with service.session() as session:
            from repro.errors import UnknownColumnError

            with pytest.raises(UnknownColumnError):
                session.execute("SELECT nope FROM t")
            ticket = session.submit("SELEC broken")
            assert isinstance(ticket.exception(timeout=5), SQLError)
            stats = session.stats.snapshot()
            assert stats["failed"] == 2 and stats["executed"] == 0


# -- snapshot pinning ----------------------------------------------------------


def test_submit_time_pin_never_observes_later_writes():
    db = make_database(n=50)
    gate = threading.Event()
    service = QueryService(
        db, workers=1, runner=lambda fn: (gate.wait(5), fn())[1]
    )
    try:
        ticket = service.submit("SELECT a FROM t")
        # the write lands after submit but before the worker runs
        db.insert("t", {"a": 999, "b": "late"})
        gate.set()
        assert len(ticket.result(timeout=10)) == 50
        # a fresh query sees the write
        assert len(service.execute("SELECT a FROM t")) == 51
    finally:
        gate.set()
        service.close()


def test_explicit_session_pin_holds_one_version():
    db = make_database(n=10)
    with QueryService(db, workers=2) as service:
        with service.session() as session:
            pinned = session.pin()
            assert isinstance(pinned, DatabaseSnapshot)
            db.insert("t", {"a": 100, "b": "new"})
            assert len(session.execute("SELECT a FROM t")) == 10
            session.refresh()
            assert len(session.execute("SELECT a FROM t")) == 11


def test_snapshot_relations_reject_writes():
    db = make_database(n=5)
    snap = db.snapshot()
    frozen = snap["t"]
    assert frozen.frozen
    with pytest.raises(SnapshotWriteError):
        frozen.insert({"a": 77, "b": "w"})
    with pytest.raises(SnapshotWriteError):
        frozen.delete(lambda r: True)
    # the live relation is untouched and still writable
    db.insert("t", {"a": 77, "b": "w"})
    assert len(db.relation("t")) == 6 and len(frozen) == 5


def test_snapshot_reads_off_runs_against_live_source():
    db = make_database(n=5)
    gate = threading.Event()
    service = QueryService(
        db,
        workers=1,
        snapshot_reads=False,
        runner=lambda fn: (gate.wait(5), fn())[1],
    )
    try:
        ticket = service.submit("SELECT a FROM t")
        db.insert("t", {"a": 99, "b": "live"})
        gate.set()
        assert len(ticket.result(timeout=10)) == 6
    finally:
        gate.set()
        service.close()


def test_pin_snapshot_source_shapes():
    db = make_database(n=4)
    relation = db.relation("t")
    assert pin_snapshot(relation).frozen
    snap = db.snapshot()
    assert pin_snapshot(snap) is snap
    mapping_pin = pin_snapshot({"t": relation})
    assert mapping_pin["t"].frozen
    with pytest.raises(TypeError):
        pin_snapshot(42)


def test_snapshot_is_cached_until_mutation():
    db = make_database(n=4)
    first = db.snapshot()
    assert db.snapshot()["t"] is first["t"]  # version unchanged: reused
    db.insert("t", {"a": 50, "b": "w"})
    assert db.snapshot()["t"] is not first["t"]


def test_snapshot_generations_stay_bounded_across_write_read_cycles():
    # Each write makes the next read pin a new snapshot generation.  It
    # extends the last generation's derived state (scoring only the new
    # row) and keeps no link to it, so after 200 write-and-read cycles
    # at most two generations are still reachable.
    tag_schema = TagSchema(
        [IndicatorDefinition("source")], allowed={"b": ["source"]}
    )
    relation = TaggedRelation(
        schema("t", [("a", "INT"), ("b", "STR")]), tag_schema
    )

    def row(a):
        source = IndicatorValue("source", ["acct'g", "estimate"][a % 2])
        return {"a": a, "b": QualityCell(f"x{a}", [source])}

    relation.insert_many(row(a) for a in range(20))
    register_profile(
        ScoringProfile("t", [credibility_scorer({"acct'g": 0.9})]),
        relations=["t"],
    )
    sql = (
        "SELECT a FROM t WHERE QUALITY(b.source) <> 'rumor' "
        "AND QUALITY(credibility) > 0.5 ORDER BY a DESC LIMIT 3"
    )
    service = QueryService(relation, workers=2)
    generations = []
    try:
        service.execute(sql)
        with metrics.instrumented() as registry:
            registry.reset()
            for a in range(20, 220):
                relation.insert(row(a))
                result = service.execute(sql)
                top = a - a % 2  # the even rows are the credible ones
                assert [r.value("a") for r in result] == [top, top - 2, top - 4]
                generations.append(weakref.ref(relation.read_snapshot()))
            rescored = registry.snapshot()["scores.recomputed"]["value"]
            registry.reset()
        assert rescored == 200
    finally:
        service.close()
        clear_profiles()
    gc.collect()
    assert sum(ref() is not None for ref in generations) <= 2


def test_database_snapshot_mapping_protocol():
    db = make_database(n=3)
    snap = db.snapshot()
    assert set(snap) == {"t"}
    assert len(snap) == 1
    assert snap.catalog_version == db.catalog_version
    assert snap.relation_names == ("t",)
    assert "DatabaseSnapshot" in repr(snap)
    from repro.errors import UnknownRelationError

    with pytest.raises(UnknownRelationError):
        snap.relation("missing")


def test_snapshot_round_trips_through_storage(tmp_path):
    from repro.relational.storage import load, save

    db = make_database(n=6)
    frozen = db.snapshot()["t"]
    save(frozen, tmp_path / "t")
    loaded = load(tmp_path / "t")
    assert sorted(r.values_tuple() for r in loaded) == sorted(
        r.values_tuple() for r in frozen
    )


# -- admission control ---------------------------------------------------------


def test_full_queue_rejects_with_overloaded():
    db = make_database(n=3)
    gate = threading.Event()
    service = QueryService(
        db,
        workers=1,
        max_pending=2,
        runner=lambda fn: (gate.wait(5), fn())[1],
    )
    try:
        tickets = []
        with pytest.raises(ServiceOverloadedError):
            for _ in range(10):
                tickets.append(service.submit("SELECT a FROM t"))
        assert len(tickets) <= 3  # 1 in flight + 2 queued at most
        gate.set()
        for ticket in tickets:
            assert len(ticket.result(timeout=10)) == 3
        assert service.stats()["rejected"] >= 1
    finally:
        gate.set()
        service.close()


def test_stats_counters_track_lifecycle():
    with QueryService(make_database(n=3), workers=2, name="svc") as service:
        service.execute("SELECT a FROM t")
        stats = service.stats()
        assert stats["name"] == "svc"
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert not stats["closed"]


def test_obs_metrics_report_when_enabled():
    from repro.obs import metrics

    with metrics.instrumented() as registry:
        before = registry.snapshot()
        with QueryService(make_database(n=3), workers=1) as service:
            service.execute("SELECT a FROM t")
            with pytest.raises(SQLError):
                service.execute("SELEC broken")
        after = registry.snapshot()

    # The registry is process-wide and earlier tests may have counted
    # into it, so the test reads what the block above added.
    def added(name, field):
        return after.get(name, {}).get(field, 0) - before.get(name, {}).get(
            field, 0
        )

    assert added("service.queries", "value") == 1
    assert added("service.errors", "value") == 1
    assert added("service.latency_seconds", "count") == 2


# -- lifecycle -----------------------------------------------------------------


def test_closed_service_rejects_everything():
    service = QueryService(make_database(n=2), workers=1)
    service.close()
    assert service.closed
    with pytest.raises(ServiceClosedError):
        service.submit("SELECT a FROM t")
    with pytest.raises(ServiceClosedError):
        service.session()
    service.close()  # idempotent


def test_queued_queries_finish_before_close_returns():
    db = make_database(n=3)
    service = QueryService(db, workers=2)
    tickets = [service.submit("SELECT a FROM t") for _ in range(8)]
    service.close(wait=True)
    assert all(len(t.result(timeout=0)) == 3 for t in tickets)


def test_closed_session_rejects_but_keeps_stats():
    with QueryService(make_database(n=2), workers=1) as service:
        session = service.session()
        session.execute("SELECT a FROM t")
        session.close()
        assert session.closed
        with pytest.raises(ServiceClosedError):
            session.execute("SELECT a FROM t")
        with pytest.raises(ServiceClosedError):
            session.pin()
        assert session.stats.snapshot()["executed"] == 1


def test_constructor_validation():
    db = make_database(n=1)
    with pytest.raises(ValueError):
        QueryService(db, workers=0)
    with pytest.raises(ValueError):
        QueryService(db, max_pending=0)
