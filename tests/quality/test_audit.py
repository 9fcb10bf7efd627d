"""Unit tests for the electronic trail."""

import pytest

from repro.errors import AuditError
from repro.quality.audit import ElectronicTrail


@pytest.fixture
def trail():
    t = ElectronicTrail()
    t.record("collected", "customer", ("Nut Co",), actor="acct'g", value="62 Lois Av")
    t.record("captured", "customer", ("Nut Co",), actor="manual_entry")
    t.record("inserted", "customer", ("Nut Co",), actor="pipeline")
    t.record("collected", "customer", ("Fruit Co",), actor="sales")
    return t


class TestRecording:
    def test_sequence_numbers(self, trail):
        assert [e.sequence for e in trail.events] == [1, 2, 3, 4]

    def test_requires_step(self, trail):
        with pytest.raises(AuditError):
            trail.record("", "customer", ("X",))

    def test_detail_payload(self, trail):
        assert trail.events[0].detail["value"] == "62 Lois Av"


class TestQueries:
    def test_history_of(self, trail):
        history = trail.history_of("customer", ("Nut Co",))
        assert [e.step for e in history] == ["collected", "captured", "inserted"]

    def test_by_step_and_actor(self, trail):
        assert len(trail.by_step("collected")) == 2
        assert len(trail.by_actor("sales")) == 1

    def test_find(self, trail):
        hits = trail.find(lambda e: e.actor == "pipeline")
        assert len(hits) == 1

    def test_trace_erred_transaction(self, trail):
        trace = trail.trace_erred_transaction("customer", ("Nut Co",))
        assert trace["steps"] == ["collected", "captured", "inserted"]
        assert trace["actors"] == ["acct'g", "manual_entry", "pipeline"]
        assert trace["first"].step == "collected"
        assert trace["last"].step == "inserted"

    def test_trace_missing_is_finding(self, trail):
        with pytest.raises(AuditError):
            trail.trace_erred_transaction("customer", ("Ghost Co",))

    def test_render(self, trail):
        text = trail.render(max_events=2)
        assert "Electronic trail (4 events)" in text
        assert "[inserted]" in text


class TestJournalIngestion:
    def test_ingest_database_journal(self, customer_database):
        trail = ElectronicTrail()
        count = trail.ingest_journal(
            customer_database, {"customer": ["co_name"]}
        )
        assert count == 2
        history = trail.history_of("customer", ("Fruit Co",))
        assert len(history) == 1
        assert history[0].step == "insert"
        assert history[0].detail["after"]["address"] == "12 Jay St"

    def test_ingest_update_and_delete(self, customer_database):
        customer_database.update(
            "customer",
            lambda r: r["co_name"] == "Nut Co",
            {"employees": 701},
            actor="corrections",
        )
        customer_database.delete(
            "customer", lambda r: r["co_name"] == "Fruit Co", actor="purge"
        )
        trail = ElectronicTrail()
        trail.ingest_journal(customer_database, {"customer": ["co_name"]})
        nut_history = trail.history_of("customer", ("Nut Co",))
        assert [e.step for e in nut_history] == ["insert", "update"]
        assert nut_history[1].actor == "corrections"
        fruit_history = trail.history_of("customer", ("Fruit Co",))
        assert [e.step for e in fruit_history] == ["insert", "delete"]
