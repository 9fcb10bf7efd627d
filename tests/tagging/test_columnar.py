"""Unit tests for the columnar tag store (the E2 ablation alternative)."""

import datetime as dt

import pytest

from repro.errors import (
    SnapshotWriteError,
    TagSchemaError,
    UnknownIndicatorError,
)
from repro.relational.relation import Relation
from repro.tagging.columnar import ColumnarTagStore


@pytest.fixture
def store(customer_schema, customer_tag_schema):
    relation = Relation.from_tuples(
        customer_schema,
        [("Fruit Co", "12 Jay St", 4004), ("Nut Co", "62 Lois Av", 700)],
    )
    built = ColumnarTagStore(relation, customer_tag_schema)
    built.set_tag(0, "address", "source", "sales")
    built.set_tag(0, "address", "creation_time", dt.date(1991, 1, 2))
    built.set_tag(1, "address", "source", "acct'g")
    built.set_tag(1, "address", "creation_time", dt.date(1991, 10, 24))
    built.set_tag(0, "employees", "source", "Nexis")
    built.set_tag(1, "employees", "source", "estimate")
    return built


class TestBasics:
    def test_tag_value(self, store):
        assert store.tag_value(1, "address", "source") == "acct'g"
        assert store.tag_value(0, "employees", "creation_time") is None

    def test_tag_count(self, store):
        assert store.tag_count() == 6

    def test_domain_validated(self, store):
        store.set_tag(0, "address", "creation_time", "1991-03-01")
        assert store.tag_value(0, "address", "creation_time") == dt.date(
            1991, 3, 1
        )

    def test_unknown_indicator(self, store):
        with pytest.raises(UnknownIndicatorError):
            store.set_tag(0, "address", "ghost", 1)
        with pytest.raises(UnknownIndicatorError):
            store.tag_value(0, "co_name", "source")

    def test_tag_array(self, store):
        assert store.tag_array("employees", "source") == ("Nexis", "estimate")

    def test_append_keeps_alignment(self, store):
        index = store.append(
            {"co_name": "New Co", "address": "9 Elm", "employees": 5},
            tags={("address", "source"): "sales"},
        )
        assert index == 2
        assert len(store) == 3
        assert store.tag_value(2, "address", "source") == "sales"
        assert store.tag_value(2, "employees", "source") is None
        assert len(store.tag_array("address", "creation_time")) == 3


class TestFiltering:
    def test_filter_indices(self, store):
        hits = store.filter_indices("employees", "source", "!=", "estimate")
        assert hits == [0]

    def test_filter_materializes(self, store):
        result = store.filter("address", "source", "==", "acct'g")
        assert result.to_dicts()[0]["co_name"] == "Nut Co"

    def test_missing_ok(self, store):
        hits = store.filter_indices(
            "employees", "creation_time", ">=", dt.date(1991, 1, 1),
            missing_ok=True,
        )
        assert hits == [0, 1]

    def test_incomparable_skipped(self, store):
        hits = store.filter_indices(
            "address", "creation_time", ">", "not-a-date"
        )
        assert hits == []

    def test_bad_operator(self, store):
        with pytest.raises(TagSchemaError):
            store.filter_indices("address", "source", "~", 1)


class TestConversions:
    def test_round_trip_through_tagged_relation(self, store, tagged_customers):
        tagged = store.to_tagged_relation()
        assert len(tagged) == 2
        assert tagged.rows[1]["address"].tag_value("source") == "acct'g"
        back = ColumnarTagStore.from_tagged_relation(tagged)
        assert back.tag_count() == store.tag_count()
        assert back.tag_array("employees", "source") == store.tag_array(
            "employees", "source"
        )

    def test_from_table2(self, tagged_customers):
        store = ColumnarTagStore.from_tagged_relation(tagged_customers)
        assert store.tag_count() == tagged_customers.tag_count()
        assert store.tag_value(1, "employees", "source") == "estimate"

    def test_equivalent_filter_answers(self, tagged_customers):
        """Ablation invariant: both representations answer identically."""
        from repro.tagging.query import QualityQuery

        store = ColumnarTagStore.from_tagged_relation(tagged_customers)
        per_cell = (
            QualityQuery(tagged_customers)
            .require("employees", "source", "!=", "estimate")
            .values()
        )
        columnar = store.filter(
            "employees", "source", "!=", "estimate"
        ).to_dicts()
        assert per_cell == columnar


class TestDeletionAlignment:
    """Deletion must keep every (column, indicator) array aligned."""

    def test_delete_then_scan_stays_aligned(self, store):
        store.append(
            {"co_name": "Third Co", "address": "1 Oak St", "employees": 50},
            tags={
                ("address", "source"): "sales",
                ("employees", "source"): "Nexis",
            },
        )
        removed = store.delete(lambda row: row["co_name"] == "Fruit Co")
        assert removed == 1
        assert len(store) == 2
        # Every array dropped the same position: scanning after the
        # delete must return the rows the surviving tags describe.
        hits = store.scan([("employees", "source", "==", "Nexis")])
        assert [store.relation.rows[i]["co_name"] for i in hits] == [
            "Third Co"
        ]
        hits = store.scan([("address", "source", "==", "acct'g")])
        assert [store.relation.rows[i]["co_name"] for i in hits] == ["Nut Co"]
        assert len(store.tag_array("address", "creation_time")) == 2

    def test_delete_no_match_is_noop(self, store):
        assert store.delete(lambda row: False) == 0
        assert len(store) == 2
        assert len(store.tag_array("address", "source")) == 2

    def test_delete_conjunctive_scan_after_multiple_deletes(self, store):
        for name in ("New1", "New2", "New3"):
            store.append(
                {"co_name": name, "address": "9 Elm", "employees": 10},
                tags={
                    ("address", "source"): "sales",
                    ("address", "creation_time"): dt.date(1992, 1, 1),
                },
            )
        store.delete(lambda row: row["co_name"] == "New2")
        store.delete(lambda row: row["co_name"] == "Nut Co")
        hits = store.scan(
            [
                ("address", "source", "==", "sales"),
                ("address", "creation_time", ">=", dt.date(1992, 1, 1)),
            ]
        )
        assert [store.relation.rows[i]["co_name"] for i in hits] == [
            "New1",
            "New3",
        ]

    def test_divergent_backing_relation_raises(self, store):
        # Mutating the relation behind the store's back desynchronizes
        # the arrays; scans must fail loudly instead of misaligning.
        store.relation.insert(
            {"co_name": "Rogue Co", "address": "?", "employees": 1}
        )
        with pytest.raises(TagSchemaError, match="out of sync"):
            store.scan([("address", "source", "==", "sales")])
        with pytest.raises(TagSchemaError, match="mutate through the store"):
            store.check_aligned()
        with pytest.raises(TagSchemaError):
            store.delete(lambda row: True)


class TestStoreCaching:
    """TaggedRelation.columnar_store(): lazy build + version invalidation."""

    def test_store_is_cached_until_mutation(self, tagged_customers):
        first = tagged_customers.columnar_store()
        assert tagged_customers.columnar_store() is first
        tagged_customers.insert(
            {
                "co_name": "New Co",
                "address": "9 Elm",
                "employees": 5,
            }
        )
        rebuilt = tagged_customers.columnar_store()
        assert rebuilt is not first
        assert len(rebuilt) == len(tagged_customers)

    def test_delete_invalidates_cached_store(self, tagged_customers):
        before = tagged_customers.columnar_store()
        removed = tagged_customers.delete(
            lambda row: row.value("co_name") == "Fruit Co"
        )
        assert removed == 1
        after = tagged_customers.columnar_store()
        assert after is not before
        assert len(after) == len(tagged_customers)
        assert after.scan([("address", "source", "==", "sales")]) == []

    def test_live_store_rejects_writes(self, tagged_customers):
        # A live relation's store is derived state too: a write through
        # it would answer queries the relation itself never saw.
        from repro.experiments.naive import naive_execute
        from repro.sql import execute

        store = tagged_customers.columnar_store()
        with pytest.raises(SnapshotWriteError):
            store.set_tag(0, "address", "source", "rumor")
        with pytest.raises(SnapshotWriteError):
            store.append({"co_name": "New Co", "address": "9 Elm"})
        with pytest.raises(SnapshotWriteError):
            store.delete(lambda row: True)
        assert len(store) == len(tagged_customers)
        sql = (
            "SELECT co_name FROM customer "
            "WHERE QUALITY(address.source) = 'rumor'"
        )
        assert execute(sql, tagged_customers).rows == (
            naive_execute(sql, tagged_customers).rows
        )

    def test_snapshot_store_rejects_writes(self, tagged_customers):
        # A snapshot's store may be extended by the next generation, so
        # it must never change: writes through it are refused.
        store = tagged_customers.read_snapshot().columnar_store()
        with pytest.raises(SnapshotWriteError):
            store.set_tag(0, "address", "source", "sales")
        with pytest.raises(SnapshotWriteError):
            store.append({"co_name": "New Co", "address": "9 Elm"})
        with pytest.raises(SnapshotWriteError):
            store.delete(lambda row: True)
        assert len(store) == len(tagged_customers)


class TestScanMissingOk:
    """5-tuple scan constraints: (column, indicator, op, operand, missing_ok)."""

    @pytest.fixture
    def sparse(self, customer_schema, customer_tag_schema):
        relation = Relation.from_tuples(
            customer_schema,
            [
                ("A Co", "1 St", 1),
                ("B Co", "2 St", 2),
                ("C Co", "3 St", 3),
            ],
        )
        built = ColumnarTagStore(relation, customer_tag_schema)
        # Only rows 0 and 2 carry a source; row 1 is untagged.
        built.set_tag(0, "address", "source", "sales")
        built.set_tag(2, "address", "source", "acct'g")
        built.set_tag(0, "employees", "source", "Nexis")
        return built

    def test_four_tuple_misses_untagged(self, sparse):
        assert sparse.scan([("address", "source", "!=", "ghost")]) == [0, 2]

    def test_missing_ok_emits_untagged(self, sparse):
        hits = sparse.scan([("address", "source", "!=", "ghost", True)])
        assert hits == [0, 1, 2]

    def test_missing_ok_equality_skips_index_hop(self, sparse):
        # The list.index fast path cannot emit Nones, so equality with
        # missing_ok must take the per-element loop — and include row 1.
        hits = sparse.scan([("address", "source", "==", "sales", True)])
        assert hits == [0, 1]

    def test_missing_ok_on_survivor_probe(self, sparse):
        # Second constraint probes only the first's survivors; untagged
        # survivors pass when missing_ok is set.
        hits = sparse.scan(
            [
                ("address", "source", "!=", "ghost", True),
                ("employees", "source", "==", "Nexis", True),
            ]
        )
        assert hits == [0, 1, 2]
        strict = sparse.scan(
            [
                ("address", "source", "!=", "ghost", True),
                ("employees", "source", "==", "Nexis"),
            ]
        )
        assert strict == [0]

    def test_matches_indicator_constraint_semantics(self, sparse):
        from repro.tagging.query import IndicatorConstraint

        tagged = sparse.to_tagged_relation()
        for missing_ok in (False, True):
            constraint = IndicatorConstraint(
                "address", "source", "==", "sales", missing_ok=missing_ok
            )
            per_row = [
                index
                for index, row in enumerate(tagged)
                if constraint.test(row)
            ]
            scanned = sparse.scan(
                [("address", "source", "==", "sales", missing_ok)]
            )
            assert scanned == per_row
