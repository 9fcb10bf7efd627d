"""Unit tests for QSQL execution."""

import pytest

from repro.relational.relation import Relation
from repro.sql import SQLError, execute
from repro.tagging.relation import TaggedRelation


class TestPlainExecution:
    def test_select_star(self, customer_relation):
        result = execute("SELECT * FROM customer", customer_relation)
        assert len(result) == 2
        assert result.schema.column_names == ("co_name", "address", "employees")

    def test_projection(self, customer_relation):
        result = execute("SELECT co_name FROM customer", customer_relation)
        assert result.schema.column_names == ("co_name",)

    def test_where(self, customer_relation):
        result = execute(
            "SELECT co_name FROM customer WHERE employees > 1000",
            customer_relation,
        )
        assert result.to_dicts() == [{"co_name": "Fruit Co"}]

    def test_string_comparison(self, customer_relation):
        result = execute(
            "SELECT * FROM customer WHERE address = '62 Lois Av'",
            customer_relation,
        )
        assert len(result) == 1

    def test_in_and_not_in(self, customer_relation):
        assert (
            len(
                execute(
                    "SELECT * FROM customer WHERE employees IN (700, 999)",
                    customer_relation,
                )
            )
            == 1
        )
        assert (
            len(
                execute(
                    "SELECT * FROM customer WHERE employees NOT IN (700)",
                    customer_relation,
                )
            )
            == 1
        )

    def test_order_and_limit(self, customer_relation):
        result = execute(
            "SELECT co_name FROM customer ORDER BY employees DESC LIMIT 1",
            customer_relation,
        )
        assert result.to_dicts() == [{"co_name": "Fruit Co"}]

    def test_boolean_logic(self, customer_relation):
        result = execute(
            "SELECT * FROM customer WHERE employees > 100 AND "
            "(co_name = 'Nut Co' OR co_name = 'Fruit Co')",
            customer_relation,
        )
        assert len(result) == 2

    def test_not(self, customer_relation):
        result = execute(
            "SELECT * FROM customer WHERE NOT employees > 1000",
            customer_relation,
        )
        assert len(result) == 1

    def test_null_semantics(self):
        from repro.relational.schema import schema

        rel = Relation.from_dicts(
            schema("t", [("a", "INT")]), [{"a": 1}, {"a": None}]
        )
        # Comparisons with NULL are never true.
        assert len(execute("SELECT * FROM t WHERE a > 0", rel)) == 1
        assert len(execute("SELECT * FROM t WHERE a IS NULL", rel)) == 1
        assert len(execute("SELECT * FROM t WHERE a IS NOT NULL", rel)) == 1

    def test_distinct(self):
        from repro.relational.schema import schema

        rel = Relation.from_dicts(
            schema("t", [("a", "INT")]), [{"a": 1}, {"a": 1}, {"a": 2}]
        )
        assert len(execute("SELECT DISTINCT a FROM t", rel)) == 2

    def test_unknown_column(self, customer_relation):
        with pytest.raises(Exception):
            execute("SELECT ghost FROM customer", customer_relation)

    def test_from_mismatch(self, customer_relation):
        with pytest.raises(SQLError):
            execute("SELECT * FROM other", customer_relation)


class TestQualityExecution:
    def test_quality_filter(self, tagged_customers):
        result = execute(
            "SELECT co_name FROM customer WHERE "
            "QUALITY(employees.source) <> 'estimate'",
            tagged_customers,
        )
        assert [row.value("co_name") for row in result] == ["Fruit Co"]

    def test_quality_date_comparison(self, tagged_customers):
        result = execute(
            "SELECT co_name FROM customer WHERE "
            "QUALITY(address.creation_time) >= DATE '1991-06-01'",
            tagged_customers,
        )
        assert [row.value("co_name") for row in result] == ["Nut Co"]

    def test_escaped_source_literal(self, tagged_customers):
        result = execute(
            "SELECT * FROM customer WHERE QUALITY(address.source) = 'acct''g'",
            tagged_customers,
        )
        assert len(result) == 1

    def test_missing_tag_is_null(self, tagged_customers):
        # co_name cells carry no tags: QUALITY(...) IS NULL holds.
        result = execute(
            "SELECT * FROM customer WHERE QUALITY(co_name.source) IS NULL",
            tagged_customers,
        )
        assert len(result) == 2

    def test_order_by_quality(self, tagged_customers):
        result = execute(
            "SELECT co_name FROM customer ORDER BY "
            "QUALITY(address.creation_time) DESC",
            tagged_customers,
        )
        assert [row.value("co_name") for row in result] == [
            "Nut Co",
            "Fruit Co",
        ]

    def test_result_keeps_tags(self, tagged_customers):
        result = execute(
            "SELECT address FROM customer WHERE employees = 700",
            tagged_customers,
        )
        assert isinstance(result, TaggedRelation)
        assert result.rows[0]["address"].tag_value("source") == "acct'g"

    def test_quality_on_plain_rejected(self, customer_relation):
        with pytest.raises(SQLError):
            execute(
                "SELECT * FROM customer WHERE QUALITY(address.source) = 'x'",
                customer_relation,
            )

    def test_quality_order_on_plain_rejected(self, customer_relation):
        with pytest.raises(SQLError):
            execute(
                "SELECT * FROM customer ORDER BY QUALITY(address.source)",
                customer_relation,
            )

    def test_mixed_value_and_quality(self, tagged_customers):
        result = execute(
            "SELECT co_name FROM customer WHERE employees > 100 AND "
            "QUALITY(employees.source) IN ('Nexis', 'acct''g')",
            tagged_customers,
        )
        assert len(result) == 1


class TestDatabaseSources:
    def test_execute_against_database(self, customer_database):
        result = execute(
            "SELECT co_name FROM customer WHERE employees < 1000",
            customer_database,
        )
        assert result.to_dicts() == [{"co_name": "Nut Co"}]

    def test_execute_against_mapping(self, tagged_customers):
        result = execute(
            "SELECT * FROM customer LIMIT 1", {"customer": tagged_customers}
        )
        assert len(result) == 1

    def test_unknown_relation_in_mapping(self, tagged_customers):
        with pytest.raises(SQLError):
            execute("SELECT * FROM ghost", {"customer": tagged_customers})

    def test_unsupported_source(self):
        with pytest.raises(SQLError):
            execute("SELECT * FROM t", 42)


class TestMultiKeyOrdering:
    def test_mixed_directions(self):
        from repro.relational.schema import schema

        rel = Relation.from_tuples(
            schema("t", [("g", "STR"), ("n", "INT")]),
            [("a", 1), ("a", 2), ("b", 1), ("b", 2)],
        )
        result = execute("SELECT * FROM t ORDER BY g DESC, n ASC", rel)
        assert [(r["g"], r["n"]) for r in result] == [
            ("b", 1),
            ("b", 2),
            ("a", 1),
            ("a", 2),
        ]


class TestColumnLiteralComparison:
    """``column op literal`` on either side, every operator, vs naive.

    Literal/column comparisons compile to one value-array test in the
    planned engine; the NULL literal, the mixed-type literal
    (``TypeError`` → false) and
    the flipped left-literal forms are listed exhaustively here instead
    of waiting for the random generator to draw them.  Copies
    partitioned on ``c`` run the same tests over pruned scans.
    """

    ROWS = [(1, "x"), (2, "y"), (3, None), (None, "x"), (2, "z")]

    def relations(self):
        from repro.relational import hash_partitions
        from repro.relational.schema import schema
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import TagSchema

        plain = Relation.from_tuples(
            schema("t", [("a", "INT"), ("c", "STR")]), self.ROWS
        )
        tagged = TaggedRelation(plain.schema, TagSchema([]))
        for a, c in self.ROWS:
            tagged.insert({"a": QualityCell(a), "c": QualityCell(c)})
        partitioned = [relation.copy() for relation in (plain, tagged)]
        for relation in partitioned:
            relation.repartition(hash_partitions("c", 3))
        return plain, tagged, *partitioned

    @pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">="])
    def test_matches_naive_on_every_path(self, op):
        from repro.experiments.naive import naive_execute

        wheres = [
            where
            for column in ("a", "c")
            for literal in ("NULL", "2", "'x'", "TRUE")
            for where in (f"{column} {op} {literal}", f"{literal} {op} {column}")
        ]
        for relation in self.relations():
            for where in wheres:
                sql = f"SELECT a, c FROM t WHERE {where}"
                expected = [r.values_tuple() for r in naive_execute(sql, relation)]
                got = [r.values_tuple() for r in execute(sql, relation)]
                assert got == expected, sql

    #: Tags on column c, row by row, and the credibility each scores.
    SOURCES = ["x", None, "y", "x", "z"]

    def quality_sources(self, bound=True):
        """The tagged table, flat and partitioned on ``c``, and a read
        snapshot of each; ``bound`` binds a credibility profile to it
        (x: 0.9, y: 0.4, anything else unscorable)."""
        from repro.quality.materialize import ScoringProfile, register_profile
        from repro.quality.scoring import credibility_scorer
        from repro.relational import hash_partitions
        from repro.relational.schema import schema
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import (
            IndicatorDefinition,
            IndicatorValue,
            TagSchema,
        )

        tagged = TaggedRelation(
            schema("t", [("a", "INT"), ("c", "STR")]),
            TagSchema([IndicatorDefinition("source")], allowed={"c": ["source"]}),
        )
        for (a, c), source in zip(self.ROWS, self.SOURCES):
            tags = [] if source is None else [IndicatorValue("source", source)]
            tagged.insert({"a": QualityCell(a), "c": QualityCell(c, tags)})
        partitioned = tagged.copy()
        partitioned.repartition(hash_partitions("c", 3))
        if bound:
            register_profile(
                ScoringProfile("p", [credibility_scorer({"x": 0.9, "y": 0.4})]),
                relations=["t"],
            )
        return [
            tagged,
            partitioned,
            tagged.read_snapshot(),
            partitioned.read_snapshot(),
        ]

    @staticmethod
    def assert_matches_naive(sql, sources):
        """Engine answers equal the oracle's in order, cold and cached,
        on every source: the same rows, or both raise SQLError."""
        from repro.experiments.naive import naive_execute
        from repro.sql import clear_plan_cache

        def answer(run, source):
            try:
                return [r.values_tuple() for r in run(sql, source)]
            except SQLError:
                return SQLError

        for source in sources:
            expected = answer(naive_execute, source)
            clear_plan_cache()
            assert answer(execute, source) == expected, (sql, source, "cold")
            assert answer(execute, source) == expected, (sql, source, "cached")

    @pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">="])
    def test_quality_operand_matches_naive(self, op):
        # Every QUALITY form reads per position: the tag array of an
        # allowed indicator (``=`` over a whole array hops with
        # list.index), NULL for a disallowed one (a.source), the score
        # array of a defined parameter.  Absent tags and unscorable rows
        # read as NULL.  ``c IN ('x', 'y')`` prunes the partitioned
        # copies to two shards.
        from repro.quality.materialize import clear_profiles

        sources = self.quality_sources()
        wheres = [
            where
            for quality in ("QUALITY(c.source)", "QUALITY(a.source)", "QUALITY(credibility)")
            for literal in ("NULL", "2", "'x'", "0.5")
            for comparison in (f"{quality} {op} {literal}", f"{literal} {op} {quality}")
            for where in (
                comparison,
                f"{comparison} OR a = 99",
                f"NOT ({comparison})",
                f"a > 1 AND {comparison}",
                f"c IN ('x', 'y') AND {comparison}",
            )
        ]
        try:
            for where in wheres:
                self.assert_matches_naive(f"SELECT a, c FROM t WHERE {where}", sources)
        finally:
            clear_profiles()

    QUALITY_FORMS = [
        "SELECT a, c FROM t WHERE QUALITY(c.source) IN ('x', 'z', NULL)",
        "SELECT a, c FROM t WHERE QUALITY(c.source) NOT IN ('x') OR a IS NULL",
        "SELECT a, c FROM t WHERE QUALITY(c.source) IS NULL",
        "SELECT a, c FROM t WHERE c IN ('x', 'y') AND QUALITY(c.source) IS NOT NULL",
        "SELECT a, c FROM t WHERE QUALITY(a.source) IS NULL AND a > 1",
        "SELECT a, c FROM t WHERE QUALITY(a.source) NOT IN ('x')",
        "SELECT a, c FROM t WHERE QUALITY(c.source) = c",
        "SELECT a, c FROM t WHERE QUALITY(credibility) IN (0.9, 0.4)",
        "SELECT a, c FROM t WHERE c IN ('x', 'y') AND QUALITY(credibility) NOT IN (0.4)",
        "SELECT a, c FROM t WHERE QUALITY(credibility) IS NULL OR a = 1",
        "SELECT a, c FROM t WHERE NOT (QUALITY(credibility) IS NOT NULL "
        "AND QUALITY(c.source) <> 'y')",
        "SELECT a, QUALITY(credibility) AS cred FROM t "
        "ORDER BY QUALITY(credibility) DESC, a",
        "SELECT c FROM t WHERE c IN ('x', 'y') ORDER BY QUALITY(credibility), c DESC LIMIT 3",
        "SELECT QUALITY(c.source) AS src, COUNT(*) AS n, "
        "AVG(QUALITY(credibility)) AS cred FROM t GROUP BY QUALITY(c.source)",
        "SELECT MAX(QUALITY(credibility)) AS best, MIN(QUALITY(credibility)) AS worst "
        "FROM t WHERE c IN ('x', 'y')",
        # A parameter no bound profile defines raises when a row is read,
        # and only then.
        "SELECT a FROM t WHERE QUALITY(accuracy) > 0.5",
        "SELECT a FROM t WHERE QUALITY(accuracy) = NULL",
        "SELECT a FROM t WHERE a = 99 AND QUALITY(accuracy) > 0.5",
        "SELECT a FROM t WHERE a = 99 OR QUALITY(accuracy) IS NULL",
        "SELECT a FROM t ORDER BY QUALITY(accuracy) LIMIT 2",
        "SELECT a FROM t WHERE a = 99 ORDER BY QUALITY(accuracy) LIMIT 2",
        "SELECT AVG(QUALITY(accuracy)) AS acc FROM t WHERE a = 99",
    ]

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
    @pytest.mark.parametrize("sql", QUALITY_FORMS)
    def test_quality_forms_match_naive(self, sql, bound):
        # Without a bound profile every QUALITY(parameter) reads per
        # row, like an undefined parameter: raising only when a selected
        # row is read.
        from repro.quality.materialize import clear_profiles

        sources = self.quality_sources(bound)
        try:
            self.assert_matches_naive(sql, sources)
        finally:
            clear_profiles()
