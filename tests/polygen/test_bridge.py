"""Unit tests for the polygen ↔ tagging bridge."""

import pytest

from repro.polygen.bridge import polygen_to_tagged, tagged_to_polygen
from repro.polygen.model import PolygenCell, PolygenRelation
from repro.relational.schema import schema
from repro.tagging.query import QualityQuery


@pytest.fixture
def polygen_quotes():
    rel = PolygenRelation(
        schema("quotes", [("ticker", "STR"), ("price", "FLOAT")])
    )
    rel.insert(
        {
            "ticker": PolygenCell("FRT", {"reuters"}),
            "price": PolygenCell(100.0, {"reuters"}),
        }
    )
    rel.insert(
        {
            "ticker": PolygenCell("NUT", {"nexis", "reuters"}),
            "price": PolygenCell(50.0, {"nexis", "reuters"}, {"branch_fax"}),
        }
    )
    rel.insert(
        {
            "ticker": PolygenCell("ZZZ", frozenset()),
            "price": PolygenCell(None, frozenset()),
        }
    )
    return rel


class TestPolygenToTagged:
    def test_single_source_scalar_tag(self, polygen_quotes):
        tagged = polygen_to_tagged(polygen_quotes)
        assert tagged.rows[0]["price"].tag_value("source") == "reuters"

    def test_corroborated_sources_joined_sorted(self, polygen_quotes):
        tagged = polygen_to_tagged(polygen_quotes)
        assert tagged.rows[1]["price"].tag_value("source") == "nexis+reuters"
        meta = tagged.rows[1]["price"].tag("source").meta_dict()
        assert meta["originating_count"] == 2

    def test_intermediate_sources_tagged(self, polygen_quotes):
        tagged = polygen_to_tagged(polygen_quotes)
        assert (
            tagged.rows[1]["price"].tag_value("intermediate_sources")
            == "branch_fax"
        )
        assert not tagged.rows[0]["price"].has_tag("intermediate_sources")

    def test_untracked_cell_untagged(self, polygen_quotes):
        tagged = polygen_to_tagged(polygen_quotes)
        assert tagged.rows[2]["price"].tags == ()

    def test_values_preserved(self, polygen_quotes):
        tagged = polygen_to_tagged(polygen_quotes)
        assert [row.value("price") for row in tagged] == [100.0, 50.0, None]

    def test_quality_layer_composes(self, polygen_quotes):
        """The point of the bridge: federation results flow into the
        quality layer's filtering machinery."""
        tagged = polygen_to_tagged(polygen_quotes)
        reuters_only = (
            QualityQuery(tagged)
            .require("price", "source", "==", "reuters")
            .values()
        )
        assert [v["ticker"] for v in reuters_only] == ["FRT"]

    def test_qsql_composes(self, polygen_quotes):
        from repro.sql import execute

        tagged = polygen_to_tagged(polygen_quotes)
        result = execute(
            "SELECT ticker FROM quotes WHERE "
            "QUALITY(price.source) = 'nexis+reuters'",
            tagged,
        )
        assert [row.value("ticker") for row in result] == ["NUT"]


class TestRoundTrip:
    def test_round_trip_preserves_sets(self, polygen_quotes):
        back = tagged_to_polygen(polygen_to_tagged(polygen_quotes))
        for original, restored in zip(polygen_quotes, back):
            for column in ("ticker", "price"):
                assert (
                    restored[column].originating
                    == original[column].originating
                )
                assert (
                    restored[column].intermediate
                    == original[column].intermediate
                )
                assert restored[column].value == original[column].value

    def test_federation_to_quality_pipeline(self):
        """Integration: federation union → bridge → quality filter."""
        from repro.polygen.federation import Federation
        from repro.relational.catalog import Database

        federation = Federation()
        for name, price in (("feed_a", 10.0), ("feed_b", 10.0)):
            db = Database(name)
            db.create_relation(
                schema("quotes", [("ticker", "STR"), ("price", "FLOAT")])
            )
            db.insert("quotes", {"ticker": "FRT", "price": price})
            federation.register(db)
        merged = federation.union_all("quotes")
        tagged = polygen_to_tagged(merged)
        # The corroborated fact carries both feeds in its source tag.
        assert tagged.rows[0]["price"].tag_value("source") == "feed_a+feed_b"
