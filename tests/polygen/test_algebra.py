"""Unit tests for the polygen algebra's source-propagation semantics."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.polygen import algebra
from repro.polygen.model import PolygenRelation
from repro.relational.relation import Relation
from repro.relational.schema import schema


@pytest.fixture
def quotes_a():
    plain = Relation.from_tuples(
        schema("quotes", [("ticker", "STR"), ("price", "FLOAT")]),
        [("FRT", 100.0), ("NUT", 50.0)],
    )
    return PolygenRelation.from_relation(plain, "db_a")


@pytest.fixture
def quotes_b():
    plain = Relation.from_tuples(
        schema("quotes", [("ticker", "STR"), ("price", "FLOAT")]),
        [("FRT", 101.0), ("NUT", 50.0)],
    )
    return PolygenRelation.from_relation(plain, "db_b")


@pytest.fixture
def reports():
    plain = Relation.from_tuples(
        schema("reports", [("symbol", "STR"), ("analyst", "STR")]),
        [("FRT", "kim"), ("ZZZ", "lee")],
    )
    return PolygenRelation.from_relation(plain, "db_r")


class TestProject:
    def test_keeps_sources(self, quotes_a):
        result = algebra.project(quotes_a, ["price"])
        assert result.rows[0]["price"].originating == {"db_a"}

    def test_requires_columns(self, quotes_a):
        with pytest.raises(QueryError):
            algebra.project(quotes_a, [])


class TestSelect:
    def test_examined_sources_become_intermediate(self, quotes_a):
        result = algebra.select(
            quotes_a, lambda r: r.value("price") > 60, using=["price"]
        )
        assert len(result) == 1
        row = result.rows[0]
        # Both cells gain db_a as an intermediate source (the predicate
        # examined db_a data to admit the row).
        assert row["ticker"].intermediate == {"db_a"}
        assert row["price"].intermediate == {"db_a"}

    def test_without_using_no_intermediate(self, quotes_a):
        result = algebra.select(quotes_a, lambda r: True)
        assert all(
            cell.intermediate == frozenset()
            for row in result
            for cell in row.cells
        )


class TestJoin:
    def test_join_key_sources_propagate(self, quotes_a, reports):
        joined = algebra.equi_join(
            quotes_a, reports, on=[("ticker", "symbol")]
        )
        assert len(joined) == 1
        row = joined.rows[0]
        # Join keys came from db_a and db_r: both are intermediate
        # sources of every output cell.
        for cell in row.cells:
            assert {"db_a", "db_r"} <= cell.intermediate
        # Originating sources still per side.
        assert row["price"].originating == {"db_a"}
        assert row["analyst"].originating == {"db_r"}

    def test_cartesian_no_intermediate(self, quotes_a, reports):
        product = algebra.cartesian_product(quotes_a, reports)
        assert len(product) == 4
        assert all(
            cell.intermediate == frozenset()
            for row in product
            for cell in row.cells
        )


class TestUnion:
    def test_duplicates_merge_sources(self, quotes_a, quotes_b):
        merged = algebra.union(quotes_a, quotes_b)
        # NUT@50 is corroborated by both; FRT differs in price so two rows.
        assert len(merged) == 3
        nut = next(r for r in merged if r.value("ticker") == "NUT")
        assert nut["price"].originating == {"db_a", "db_b"}

    def test_incompatible(self, quotes_a, reports):
        with pytest.raises(SchemaError):
            algebra.union(quotes_a, reports)


class TestDifference:
    def test_right_sources_become_intermediate(self, quotes_a, quotes_b):
        result = algebra.difference(quotes_a, quotes_b)
        # Only FRT@100 survives (NUT@50 present in both).
        assert len(result) == 1
        row = result.rows[0]
        assert row.value("price") == 100.0
        assert all("db_b" in cell.intermediate for cell in row.cells)


class TestCoalesce:
    def test_losers_become_intermediate(self, quotes_a, quotes_b):
        merged = algebra.union(quotes_a, quotes_b)

        def prefer(a, b):  # prefer db_a rows
            a_is_a = any("db_a" in c.originating for c in a.cells)
            return a if a_is_a else b

        resolved = algebra.coalesce(merged, prefer, ["ticker"])
        assert len(resolved) == 2
        frt = next(r for r in resolved if r.value("ticker") == "FRT")
        assert frt.value("price") == 100.0
        assert all("db_b" in cell.intermediate for cell in frt.cells)

    def test_single_rows_untouched(self, quotes_a):
        resolved = algebra.coalesce(
            quotes_a, lambda a, b: a, ["ticker"]
        )
        assert len(resolved) == 2
        assert all(
            cell.intermediate == frozenset()
            for row in resolved
            for cell in row.cells
        )
