"""Unit tests for QualityDatabase."""

import pytest

from repro.errors import SchemaError, TaggingError, UnknownRelationError
from repro.experiments.scenarios import run_trading_methodology
from repro.quality.profiles import ApplicationProfile
from repro.tagging.catalog import QualityDatabase
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue
from repro.tagging.query import IndicatorConstraint, QualityFilter


@pytest.fixture
def qdb(customer_schema, customer_tag_schema, tagged_customers):
    database = QualityDatabase("corp")
    database.attach(tagged_customers)
    return database


class TestBasics:
    def test_requires_name(self):
        with pytest.raises(TaggingError):
            QualityDatabase("")

    def test_create_and_lookup(self, customer_schema, customer_tag_schema):
        database = QualityDatabase("corp")
        database.create_relation(customer_schema, customer_tag_schema)
        assert "customer" in database
        assert len(database.relation("customer")) == 0

    def test_duplicate_rejected(self, qdb, customer_schema):
        with pytest.raises(SchemaError):
            qdb.create_relation(customer_schema)

    def test_unknown_relation(self, qdb):
        with pytest.raises(UnknownRelationError):
            qdb.relation("ghost")

    def test_insert_delegates(self, qdb):
        qdb.insert(
            "customer",
            {
                "co_name": "New Co",
                "address": QualityCell(
                    "1 Elm", [IndicatorValue("source", "sales")]
                ),
                "employees": 5,
            },
        )
        assert len(qdb.relation("customer")) == 3

    def test_render_summary(self, qdb):
        qdb.aggregate_tags.relation("customer").set(
            IndicatorValue("population_method", "full census")
        )
        text = qdb.render_summary()
        assert "customer: 2 rows, 8 tags" in text
        assert "population_method" in text


class TestQueryAndProfiles:
    def test_qsql(self, qdb):
        result = qdb.query(
            "SELECT co_name FROM customer WHERE "
            "QUALITY(employees.source) = 'estimate'"
        )
        assert [row.value("co_name") for row in result] == ["Nut Co"]

    def test_profiles(self, qdb):
        qdb.register_profile(
            ApplicationProfile(
                "verified_only",
                QualityFilter(
                    [IndicatorConstraint("employees", "source", "!=", "estimate")],
                    name="verified_only",
                ),
            )
        )
        result = qdb.retrieve("verified_only", "customer")
        assert len(result) == 1


class TestFromQualitySchema:
    def test_instantiation(self):
        modeling = run_trading_methodology()
        database = QualityDatabase.from_quality_schema(modeling.quality_schema)
        assert set(database.relation_names) == {
            "client",
            "company_stock",
            "trade",
        }
        stock = database.relation("company_stock")
        assert "age" in stock.tag_schema.required_for("share_price")

    def test_requirements_enforced_on_insert(self):
        modeling = run_trading_methodology()
        database = QualityDatabase.from_quality_schema(modeling.quality_schema)
        with pytest.raises(Exception):
            # share_price without its mandatory age tag.
            database.insert(
                "company_stock",
                {
                    "ticker_symbol": "FRT",
                    "share_price": 10.0,
                    "research_report": None,
                },
            )
        database.insert(
            "company_stock",
            {
                "ticker_symbol": "FRT",
                "share_price": QualityCell(
                    10.0, [IndicatorValue("age", 0.1)]
                ),
                "research_report": QualityCell(
                    "buy",
                    [
                        IndicatorValue("analyst_name", "kim"),
                        IndicatorValue("price", 100.0),
                        IndicatorValue("media", "ASCII"),
                    ],
                ),
            },
        )
        assert len(database.relation("company_stock")) == 1

    def test_monitor_round_trip(self):
        modeling = run_trading_methodology()
        database = QualityDatabase.from_quality_schema(modeling.quality_schema)
        database.insert(
            "company_stock",
            {
                "ticker_symbol": "FRT",
                "share_price": QualityCell(
                    10.0, [IndicatorValue("age", 0.1)]
                ),
                "research_report": QualityCell(
                    "buy",
                    [
                        IndicatorValue("analyst_name", "kim"),
                        IndicatorValue("price", 100.0),
                        IndicatorValue("media", "ASCII"),
                    ],
                ),
            },
        )
        report = database.monitor(modeling.quality_schema)
        assert report.conforms
