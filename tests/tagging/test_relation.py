"""Unit tests for tagged relations."""

import pytest

from repro.errors import (
    DomainError,
    TagSchemaError,
    UnknownColumnError,
    UnknownIndicatorError,
)
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation, TaggedRow


class TestTaggedRow:
    def test_values_and_cells(self, tagged_customers):
        row = tagged_customers.rows[0]
        assert row.value("co_name") == "Fruit Co"
        assert row["address"].tag_value("source") == "sales"
        assert row.values_dict()["employees"] == 4004

    def test_plain_values_wrapped(self, customer_schema, customer_tag_schema):
        row = TaggedRow(
            customer_schema,
            customer_tag_schema,
            {"co_name": "X", "address": "1 St", "employees": 5},
        )
        assert row["address"].tags == ()

    def test_unknown_column_rejected(self, customer_schema, customer_tag_schema):
        with pytest.raises(UnknownColumnError):
            TaggedRow(
                customer_schema, customer_tag_schema, {"bogus": 1}
            )

    def test_domain_validated(self, customer_schema, customer_tag_schema):
        with pytest.raises(DomainError):
            TaggedRow(
                customer_schema,
                customer_tag_schema,
                {"co_name": "X", "employees": "lots"},
            )

    def test_tag_schema_enforced(self, customer_schema, customer_tag_schema):
        with pytest.raises(UnknownIndicatorError):
            TaggedRow(
                customer_schema,
                customer_tag_schema,
                {
                    "co_name": QualityCell(
                        "X", [IndicatorValue("source", "nope")]
                    )
                },
            )


class TestTaggedRelation:
    def test_insert_and_count(self, tagged_customers):
        assert len(tagged_customers) == 2

    def test_required_tags_enforced(self, customer_schema):
        strict = TagSchema(
            indicators=[IndicatorDefinition("source")],
            required={"address": ["source"]},
        )
        rel = TaggedRelation(customer_schema, strict)
        with pytest.raises(TagSchemaError):
            rel.insert({"co_name": "X", "address": "1 St", "employees": 1})
        rel.insert(
            {
                "co_name": "X",
                "address": QualityCell("1 St", [IndicatorValue("source", "s")]),
                "employees": 1,
            }
        )
        assert len(rel) == 1

    def test_tag_schema_checked_against_relation(self, customer_tag_schema):
        wrong = schema("t", [("x", "INT")])
        with pytest.raises(TagSchemaError):
            TaggedRelation(wrong, customer_tag_schema)

    def test_delete(self, tagged_customers):
        removed = tagged_customers.delete(
            lambda r: r.value("co_name") == "Nut Co"
        )
        assert removed == 1
        assert len(tagged_customers) == 1

    def test_values_relation_strips_tags(self, tagged_customers):
        plain = tagged_customers.values_relation()
        assert isinstance(plain, Relation)
        assert plain.to_dicts()[1] == {
            "co_name": "Nut Co",
            "address": "62 Lois Av",
            "employees": 700,
        }

    def test_from_relation_with_tagger(
        self, customer_relation, customer_tag_schema
    ):
        def tagger(column, value):
            if column in ("address", "employees"):
                return [IndicatorValue("source", "conversion")]
            return []

        tagged = TaggedRelation.from_relation(
            customer_relation, customer_tag_schema, tagger
        )
        assert tagged.rows[0]["address"].tag_value("source") == "conversion"
        assert tagged.rows[0]["co_name"].tags == ()

    def test_from_relation_untagged(self, customer_relation):
        tagged = TaggedRelation.from_relation(customer_relation)
        assert tagged.tag_count() == 0


class TestTaggedRelationStats:
    def test_tag_count(self, tagged_customers):
        assert tagged_customers.tag_count() == 8

    def test_tag_coverage_full(self, tagged_customers):
        assert tagged_customers.tag_coverage("address", "source") == 1.0

    def test_tag_coverage_partial(self, customer_schema, customer_tag_schema):
        rel = TaggedRelation(customer_schema, customer_tag_schema)
        rel.insert(
            {
                "co_name": "A",
                "address": QualityCell("1", [IndicatorValue("source", "s")]),
                "employees": 1,
            }
        )
        rel.insert({"co_name": "B", "address": "2", "employees": 2})
        assert rel.tag_coverage("address", "source") == 0.5

    def test_tag_coverage_empty(self, customer_schema, customer_tag_schema):
        rel = TaggedRelation(customer_schema, customer_tag_schema)
        assert rel.tag_coverage("address", "source") == 0.0


class TestTaggedRender:
    def test_table2_style(self, tagged_customers):
        text = tagged_customers.render(
            title="Table 2: Customer information with quality tags"
        )
        assert "62 Lois Av (10-24-91, acct'g)" in text
        assert "700 (10-09-91, estimate)" in text

    def test_values_only_render(self, tagged_customers):
        text = tagged_customers.render(show_tags=False)
        assert "(10-24-91" not in text
        assert "62 Lois Av" in text

    def test_truncation(self, tagged_customers):
        text = tagged_customers.render(max_rows=1)
        assert "1 more rows" in text
