"""Unit tests for QSQL aggregates, GROUP BY, aliases, and QUALITY values."""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.sql import SQLError, execute, parse
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation


@pytest.fixture
def emps():
    return Relation.from_tuples(
        schema("emps", [("dept", "STR"), ("salary", "INT")]),
        [
            ("sales", 50),
            ("sales", 60),
            ("acctg", 70),
            ("acctg", None),
        ],
    )


@pytest.fixture
def aged_ticks():
    tag_schema = TagSchema(
        indicators=[IndicatorDefinition("age", "FLOAT")],
        allowed={"price": ["age"]},
    )
    rel = TaggedRelation(
        schema("ticks", [("ticker", "STR"), ("price", "FLOAT")]), tag_schema
    )
    for ticker, price, age in [
        ("A", 10.0, 1.0),
        ("A", 12.0, 3.0),
        ("B", 20.0, 5.0),
        ("B", 22.0, None),
    ]:
        tags = [IndicatorValue("age", age)] if age is not None else []
        rel.insert({"ticker": ticker, "price": QualityCell(price, tags)})
    return rel


class TestParsing:
    def test_aggregate_items(self):
        statement = parse("SELECT COUNT(*), AVG(salary) AS mean FROM emps")
        assert statement.has_aggregates
        items = statement.select_items
        assert items[0].output_name == "count_all"
        assert items[1].output_name == "mean"

    def test_group_by_parsed(self):
        from repro.sql.nodes import ColumnRef

        statement = parse(
            "SELECT dept, COUNT(*) FROM emps GROUP BY dept"
        )
        assert statement.group_by == (ColumnRef("dept"),)

    def test_group_by_quality_parsed(self):
        from repro.sql.nodes import QualityRef

        statement = parse(
            "SELECT QUALITY(price.age) AS age, COUNT(*) FROM ticks "
            "GROUP BY QUALITY(price.age)"
        )
        assert statement.group_by == (QualityRef("price", "age"),)
        assert statement.uses_quality()

    def test_group_by_requires_aggregate(self):
        with pytest.raises(SQLError):
            parse("SELECT dept FROM emps GROUP BY dept")

    def test_ungrouped_column_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT dept, salary, COUNT(*) FROM emps GROUP BY dept")

    def test_star_only_for_count(self):
        with pytest.raises(SQLError):
            parse("SELECT SUM(*) FROM emps")

    def test_distinct_with_aggregates_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT DISTINCT COUNT(*) FROM emps")

    def test_plain_columns_backcompat(self):
        assert parse("SELECT a, b FROM t").columns == ("a", "b")

    def test_quality_in_aggregate_flags_quality(self):
        assert parse(
            "SELECT AVG(QUALITY(price.age)) FROM ticks"
        ).uses_quality()


class TestGlobalAggregates:
    def test_count_star_counts_rows(self, emps):
        result = execute("SELECT COUNT(*) AS n FROM emps", emps)
        assert result.to_dicts() == [{"n": 4}]

    def test_count_column_skips_nulls(self, emps):
        result = execute("SELECT COUNT(salary) AS n FROM emps", emps)
        assert result.to_dicts() == [{"n": 3}]

    def test_sum_avg_min_max(self, emps):
        result = execute(
            "SELECT SUM(salary) AS total, AVG(salary) AS mean, "
            "MIN(salary) AS low, MAX(salary) AS high FROM emps",
            emps,
        )
        row = result.to_dicts()[0]
        assert row == {"total": 180, "mean": 60.0, "low": 50, "high": 70}

    def test_empty_relation_one_row(self, emps):
        empty = emps.empty_like()
        result = execute("SELECT COUNT(*) AS n FROM emps", empty)
        assert result.to_dicts() == [{"n": 0}]

    def test_where_applies_before_aggregation(self, emps):
        result = execute(
            "SELECT COUNT(*) AS n FROM emps WHERE dept = 'sales'", emps
        )
        assert result.to_dicts() == [{"n": 2}]


class TestGroupBy:
    def test_grouped_counts(self, emps):
        result = execute(
            "SELECT dept, COUNT(*) AS n FROM emps GROUP BY dept", emps
        )
        assert result.to_dicts() == [
            {"dept": "sales", "n": 2},
            {"dept": "acctg", "n": 2},
        ]

    def test_order_by_output_column(self, emps):
        result = execute(
            "SELECT dept, SUM(salary) AS total FROM emps "
            "GROUP BY dept ORDER BY total DESC",
            emps,
        )
        assert [r["dept"] for r in result] == ["sales", "acctg"]

    def test_limit_after_grouping(self, emps):
        result = execute(
            "SELECT dept, COUNT(*) AS n FROM emps GROUP BY dept LIMIT 1",
            emps,
        )
        assert len(result) == 1

    def test_order_by_unknown_output_rejected(self, emps):
        with pytest.raises(Exception):
            execute(
                "SELECT dept, COUNT(*) AS n FROM emps "
                "GROUP BY dept ORDER BY ghost",
                emps,
            )


class TestQualityAggregates:
    def test_avg_of_tag_values(self, aged_ticks):
        result = execute(
            "SELECT AVG(QUALITY(price.age)) AS mean_age FROM ticks",
            aged_ticks,
        )
        assert result.to_dicts() == [{"mean_age": 3.0}]

    def test_grouped_tag_aggregates(self, aged_ticks):
        result = execute(
            "SELECT ticker, COUNT(QUALITY(price.age)) AS tagged, "
            "MIN(QUALITY(price.age)) AS freshest "
            "FROM ticks GROUP BY ticker",
            aged_ticks,
        )
        rows = {r["ticker"]: r for r in result.to_dicts()}
        assert rows["A"] == {"ticker": "A", "tagged": 2, "freshest": 1.0}
        # B's second tick is untagged: COUNT skips it.
        assert rows["B"] == {"ticker": "B", "tagged": 1, "freshest": 5.0}

    def test_aggregate_result_is_plain(self, aged_ticks):
        result = execute("SELECT COUNT(*) AS n FROM ticks", aged_ticks)
        assert isinstance(result, Relation)

    def test_quality_aggregate_on_plain_rejected(self, emps):
        with pytest.raises(SQLError):
            execute("SELECT AVG(QUALITY(salary.age)) FROM emps", emps)

    def test_group_by_quality(self, aged_ticks):
        """The administrator's per-source report in one statement."""
        result = execute(
            "SELECT QUALITY(price.age) AS age, COUNT(*) AS n "
            "FROM ticks GROUP BY QUALITY(price.age) ORDER BY n DESC",
            aged_ticks,
        )
        rows = result.to_dicts()
        # Four distinct age tags (1, 3, 5, None): four groups of one.
        assert len(rows) == 4
        assert {row["age"] for row in rows} == {1.0, 3.0, 5.0, None}

    def test_group_by_quality_on_plain_rejected(self, emps):
        with pytest.raises(SQLError):
            execute(
                "SELECT QUALITY(salary.age) AS a, COUNT(*) FROM emps "
                "GROUP BY QUALITY(salary.age)",
                emps,
            )


class TestComputedProjection:
    def test_quality_value_as_column(self, aged_ticks):
        result = execute(
            "SELECT ticker, QUALITY(price.age) AS age FROM ticks",
            aged_ticks,
        )
        assert isinstance(result, Relation)
        assert result.to_dicts()[0] == {"ticker": "A", "age": 1.0}
        # Untagged cell surfaces as NULL.
        assert result.to_dicts()[3] == {"ticker": "B", "age": None}

    def test_alias_on_plain_column(self, emps):
        result = execute("SELECT dept AS department FROM emps", emps)
        assert result.schema.column_names == ("department",)

    def test_alias_keeps_tags_on_tagged_source(self, aged_ticks):
        result = execute("SELECT price AS p FROM ticks", aged_ticks)
        assert isinstance(result, TaggedRelation)
        assert result.rows[0]["p"].tag_value("age") == 1.0
