"""Unit tests for columnar tag access: a tagged relation's tag arrays and
the read-only view that scans them (the E2 ablation alternative)."""

import datetime as dt

import pytest

from repro.errors import TagSchemaError, UnknownIndicatorError
from repro.experiments.naive import naive_execute
from repro.obs import metrics
from repro.relational.partition import hash_partitions
from repro.relational.schema import Column, RelationSchema
from repro.sql import execute
from repro.tagging.cell import QualityCell
from repro.tagging.columnar import ColumnarTagStore
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation


def customer_row(co_name, address, employees, address_tags=(), employees_tags=()):
    """One customer row; ``*_tags`` are ``(indicator, value)`` pairs."""
    return {
        "co_name": co_name,
        "address": QualityCell(
            address, [IndicatorValue(*tag) for tag in address_tags]
        ),
        "employees": QualityCell(
            employees, [IndicatorValue(*tag) for tag in employees_tags]
        ),
    }


@pytest.fixture
def store(customer_schema, customer_tag_schema):
    relation = TaggedRelation(customer_schema, customer_tag_schema)
    relation.insert(
        customer_row(
            "Fruit Co",
            "12 Jay St",
            4004,
            [("source", "sales"), ("creation_time", dt.date(1991, 1, 2))],
            [("source", "Nexis")],
        )
    )
    relation.insert(
        customer_row(
            "Nut Co",
            "62 Lois Av",
            700,
            [("source", "acct'g"), ("creation_time", dt.date(1991, 10, 24))],
            [("source", "estimate")],
        )
    )
    return ColumnarTagStore.from_tagged_relation(relation)


def stored_tags(store):
    """Non-None tag values across every allowed (column, indicator) array."""
    tag_schema = store.relation.tag_schema
    return sum(
        value is not None
        for column in tag_schema.tagged_columns
        for indicator in tag_schema.allowed_for(column)
        for value in store.array(column, indicator)
    )


class TestBasics:
    def test_tag_value(self, store):
        assert store.array("address", "source")[1] == "acct'g"
        assert store.array("employees", "creation_time")[0] is None

    def test_tag_count(self, store):
        # Every tag of every cell sits in exactly one array.
        assert stored_tags(store) == store.relation.tag_count() == 6

    def test_domain_validated(self, store):
        store.relation.insert(
            customer_row(
                "Date Co", "1 Elm", 3, [("creation_time", "1991-03-01")]
            )
        )
        assert store.array("address", "creation_time")[2] == dt.date(
            1991, 3, 1
        )

    def test_unknown_indicator(self, store):
        with pytest.raises(UnknownIndicatorError):
            store.array("address", "ghost")
        with pytest.raises(UnknownIndicatorError):
            store.array("co_name", "source")
        with pytest.raises(UnknownIndicatorError):
            store.scan([("address", "ghost", "==", 1)])

    def test_tag_array(self, store):
        assert store.array("employees", "source") == ["Nexis", "estimate"]

    def test_append_keeps_alignment(self, store):
        store.relation.insert(
            customer_row("New Co", "9 Elm", 5, [("source", "sales")])
        )
        assert len(store) == 3
        assert store.array("address", "source")[2] == "sales"
        assert store.array("employees", "source")[2] is None
        assert len(store.array("address", "creation_time")) == 3


class TestFiltering:
    def test_filter_indices(self, store):
        hits = store.filter_indices("employees", "source", "!=", "estimate")
        assert hits == [0]

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
    def test_from_table2(self, tagged_customers):
        store = ColumnarTagStore.from_tagged_relation(tagged_customers)
        assert stored_tags(store) == tagged_customers.tag_count()
        assert store.array("employees", "source")[1] == "estimate"

    def test_equivalent_filter_answers(self, tagged_customers):
        """Ablation invariant: both representations answer identically."""
        from repro.tagging.query import QualityQuery

        store = ColumnarTagStore.from_tagged_relation(tagged_customers)
        per_cell = (
            QualityQuery(tagged_customers)
            .require("employees", "source", "!=", "estimate")
            .values()
        )
        rows = tagged_customers.row_batch()
        columnar = [
            rows[index].values_dict()
            for index in store.filter_indices(
                "employees", "source", "!=", "estimate"
            )
        ]
        assert per_cell == columnar


class TestDeletionAlignment:
    """A delete from the relation keeps every tag array aligned with it."""

    def test_delete_then_scan_stays_aligned(self, store):
        relation = store.relation
        relation.insert(
            customer_row(
                "Third Co", "1 Oak St", 50, [("source", "sales")], [("source", "Nexis")]
            )
        )
        store.scan([("employees", "source", "==", "Nexis")])
        removed = relation.delete(lambda row: row.value("co_name") == "Fruit Co")
        assert removed == 1
        assert len(store) == 2
        # Every array dropped the same position: scanning after the
        # delete must return the rows the surviving tags describe.
        rows = relation.row_batch()
        hits = store.scan([("employees", "source", "==", "Nexis")])
        assert [rows[i].value("co_name") for i in hits] == ["Third Co"]
        hits = store.scan([("address", "source", "==", "acct'g")])
        assert [rows[i].value("co_name") for i in hits] == ["Nut Co"]
        assert len(store.array("address", "creation_time")) == 2

    def test_delete_no_match_is_noop(self, store):
        before = store.array("address", "source")
        assert store.relation.delete(lambda row: False) == 0
        assert len(store) == 2
        assert store.array("address", "source") is before

    def test_delete_conjunctive_scan_after_multiple_deletes(self, store):
        relation = store.relation
        for name in ("New1", "New2", "New3"):
            relation.insert(
                customer_row(
                    name,
                    "9 Elm",
                    10,
                    [("source", "sales"), ("creation_time", dt.date(1992, 1, 1))],
                )
            )
        relation.delete(lambda row: row.value("co_name") == "New2")
        relation.delete(lambda row: row.value("co_name") == "Nut Co")
        hits = store.scan(
            [
                ("address", "source", "==", "sales"),
                ("address", "creation_time", ">=", dt.date(1992, 1, 1)),
            ]
        )
        rows = relation.row_batch()
        assert [rows[i].value("co_name") for i in hits] == ["New1", "New3"]


class TestStoreCaching:
    """Tag arrays are built lazily, then reused until a write."""

    def test_store_is_cached_until_mutation(self, tagged_customers):
        first = tagged_customers.columnar_store().array("address", "source")
        assert tagged_customers.columnar_store().array(
            "address", "source"
        ) is first
        tagged_customers.insert(
            {
                "co_name": "New Co",
                "address": "9 Elm",
                "employees": 5,
            }
        )
        rebuilt = tagged_customers.columnar_store().array("address", "source")
        assert rebuilt is not first
        assert len(first) == 2
        assert rebuilt == ["sales", "acct'g", None]

    def test_delete_invalidates_cached_store(self, tagged_customers):
        store = tagged_customers.columnar_store()
        before = store.array("address", "source")
        removed = tagged_customers.delete(
            lambda row: row.value("co_name") == "Fruit Co"
        )
        assert removed == 1
        after = store.array("address", "source")
        assert after is not before
        assert len(after) == len(store) == len(tagged_customers)
        assert store.scan([("address", "source", "==", "sales")]) == []


class TestScanMissingOk:
    """5-tuple scan constraints: (column, indicator, op, operand, missing_ok)."""

    @pytest.fixture
    def sparse(self, customer_schema, customer_tag_schema):
        # Only rows 0 and 2 carry a source; row 1 is untagged.
        relation = TaggedRelation(customer_schema, customer_tag_schema)
        relation.insert(
            customer_row(
                "A Co", "1 St", 1, [("source", "sales")], [("source", "Nexis")]
            )
        )
        relation.insert(customer_row("B Co", "2 St", 2))
        relation.insert(customer_row("C Co", "3 St", 3, [("source", "acct'g")]))
        return ColumnarTagStore.from_tagged_relation(relation)

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

        for missing_ok in (False, True):
            constraint = IndicatorConstraint(
                "address", "source", "==", "sales", missing_ok=missing_ok
            )
            per_row = [
                index
                for index, row in enumerate(sparse.relation)
                if constraint.test(row)
            ]
            scanned = sparse.scan(
                [("address", "source", "==", "sales", missing_ok)]
            )
            assert scanned == per_row


#: Two indicators allowed on each of two columns: four tag arrays.
TWO_BY_TWO = TagSchema(
    [IndicatorDefinition("source"), IndicatorDefinition("age", "FLOAT")],
    allowed={"a": ["source", "age"], "b": ["source", "age"]},
)
T_SCHEMA = RelationSchema("t", [Column("a", "INT"), Column("b", "STR")])


def _t_row(i):
    def cell(value):
        return QualityCell(
            value,
            [IndicatorValue("source", "xyz"[i % 3]), IndicatorValue("age", i / 2)],
        )

    return {"a": cell(i), "b": cell(f"b{i}")}


@pytest.mark.parametrize("layout", ["flat", "partitioned"])
def test_read_after_append_extends_only_the_tag_array_it_names(layout):
    """A read after a 10-row append extends the one tag array its
    statement names by those 10 rows, and builds none of the others."""
    relation = TaggedRelation(T_SCHEMA, TWO_BY_TWO)
    relation.insert_many(_t_row(i) for i in range(40))
    if layout == "partitioned":
        relation.repartition(hash_partitions("a", 4))
    sql = "SELECT a FROM t WHERE QUALITY(b.source) <> 'x'"
    execute(sql, relation.read_snapshot())
    relation.insert_many(_t_row(i) for i in range(40, 50))
    snapshot = relation.read_snapshot()
    with metrics.instrumented() as registry:
        builds = registry.counter("relation.value_array_builds")
        rows = registry.counter("relation.value_array_rows")
        builds_before, rows_before = builds.value, rows.value
        result = execute(sql, snapshot)
        assert builds.value - builds_before == 1
        assert rows.value - rows_before == 10
        # The pairs the statement does not read were never built: each
        # is read now from every row.
        for column, indicator in (("a", "source"), ("a", "age"), ("b", "age")):
            snapshot.tag_array(column, indicator)
        assert builds.value - builds_before == 4
        assert rows.value - rows_before == 10 + 3 * len(snapshot)
    assert result.rows == naive_execute(sql, snapshot).rows
