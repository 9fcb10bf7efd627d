"""Planner equivalence properties: cold plan ≡ cached plan ≡ naive.

Three answers must agree on every statement:

- ``execute(sql, rel)`` on a cold plan cache — the planner path
  (logical plan → optimizer rewrites → compiled physical plan);
- ``execute(sql, rel)`` again — the cached compiled plan;
- ``naive_execute(sql, rel)`` — the AST-walking per-row test oracle
  in :mod:`repro.experiments.naive`.

Statements are generated randomly over plain, tagged, and
polygen-derived sources, so values, tags, *and* polygen source
provenance are all checked for equality.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.naive import naive_execute
from repro.polygen import algebra as polygen_algebra
from repro.polygen.bridge import polygen_to_tagged
from repro.polygen.model import PolygenRelation
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

SCHEMA = RelationSchema(
    "t", [Column("a", "INT"), Column("b", "INT"), Column("c", "STR")]
)
TAGS = TagSchema(
    [IndicatorDefinition("source", "STR"), IndicatorDefinition("age", "INT")],
    allowed={"a": ["source", "age"], "c": ["source"]},
)

INT_VALUES = st.one_of(st.none(), st.integers(0, 5))
STR_VALUES = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))
SOURCES = st.one_of(st.none(), st.sampled_from(["s1", "s2"]))
COMPARE_OPS = ["=", "<>", "!=", "<", "<=", ">", ">="]
QUALITY_REFS = ["QUALITY(a.source)", "QUALITY(a.age)", "QUALITY(c.source)"]


@st.composite
def plain_relations(draw):
    rows = draw(
        st.lists(st.tuples(INT_VALUES, INT_VALUES, STR_VALUES), max_size=12)
    )
    return Relation.from_tuples(SCHEMA, rows)


@st.composite
def tagged_relations(draw):
    rows = draw(
        st.lists(
            st.tuples(
                INT_VALUES,
                INT_VALUES,
                STR_VALUES,
                SOURCES,  # a.source
                st.one_of(st.none(), st.integers(0, 3)),  # a.age
                SOURCES,  # c.source
            ),
            max_size=12,
        )
    )
    relation = TaggedRelation(SCHEMA, TAGS)
    for a, b, c, a_source, a_age, c_source in rows:
        a_tags = []
        if a_source is not None:
            a_tags.append(IndicatorValue("source", a_source))
        if a_age is not None:
            a_tags.append(IndicatorValue("age", a_age))
        c_tags = []
        if c_source is not None:
            c_tags.append(IndicatorValue("source", c_source))
        relation.insert(
            {
                "a": QualityCell(a, a_tags),
                "b": QualityCell(b),
                "c": QualityCell(c, c_tags),
            }
        )
    return relation


@st.composite
def operands(draw, quality):
    kinds = ["col", "col", "lit"] + (["qual"] if quality else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "col":
        return draw(st.sampled_from(["a", "b", "c"]))
    if kind == "qual":
        return draw(st.sampled_from(QUALITY_REFS))
    return draw(
        st.sampled_from(["0", "1", "3", "5", "'x'", "'s1'", "NULL", "TRUE"])
    )


@st.composite
def predicates(draw, quality, depth=2):
    if depth > 0 and draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["AND", "OR"]))
        left = draw(predicates(quality=quality, depth=depth - 1))
        right = draw(predicates(quality=quality, depth=depth - 1))
        return f"({left} {op} {right})"
    if depth > 0 and draw(st.integers(0, 4)) == 0:
        inner = draw(predicates(quality=quality, depth=depth - 1))
        return f"NOT ({inner})"
    kind = draw(st.sampled_from(["cmp", "cmp", "in", "null"]))
    if kind == "cmp":
        left = draw(operands(quality=quality))
        right = draw(operands(quality=quality))
        op = draw(st.sampled_from(COMPARE_OPS))
        return f"{left} {op} {right}"
    targets = ["a", "b", "c"] + (QUALITY_REFS if quality else [])
    target = draw(st.sampled_from(targets))
    negated = "NOT " if draw(st.booleans()) else ""
    if kind == "in":
        options = draw(
            st.lists(
                st.sampled_from(["0", "1", "2", "'x'", "'s1'"]),
                min_size=1,
                max_size=3,
            )
        )
        return f"{target} {negated}IN ({', '.join(options)})"
    return f"{target} IS {negated}NULL"


@st.composite
def order_clauses(draw, keys):
    chosen = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    if not chosen:
        return ""
    rendered = [
        f"{key} DESC" if draw(st.booleans()) else key for key in chosen
    ]
    return " ORDER BY " + ", ".join(rendered)


@st.composite
def statements(draw, quality):
    where = draw(st.one_of(st.none(), predicates(quality=quality)))
    where_clause = f" WHERE {where}" if where else ""
    limit = draw(st.one_of(st.none(), st.integers(0, 8)))
    limit_clause = f" LIMIT {limit}" if limit is not None else ""

    if draw(st.integers(0, 3)) == 0:  # aggregate statement
        group = draw(st.sampled_from([(), ("a",), ("c",), ("a", "c")]))
        pool = [
            "COUNT(*) AS n",
            "SUM(a) AS sa",
            "AVG(b) AS ab",
            "MIN(c) AS mc",
            "MAX(a) AS ma",
        ]
        if quality:
            pool += ["AVG(QUALITY(a.age)) AS qa", "MAX(QUALITY(a.source)) AS qs"]
        aggregates = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
        )
        select = ", ".join(list(group) + aggregates)
        group_clause = f" GROUP BY {', '.join(group)}" if group else ""
        order_keys = list(group) + [a.split(" AS ")[1] for a in aggregates]
        order_clause = draw(order_clauses(order_keys))
        return (
            f"SELECT {select} FROM t{where_clause}{group_clause}"
            f"{order_clause}{limit_clause}"
        )

    distinct = "DISTINCT " if draw(st.booleans()) else ""
    kind = draw(st.sampled_from(["star", "cols"] + (["qual"] if quality else [])))
    if kind == "star":
        select = "*"
    elif kind == "cols":
        columns = draw(
            st.lists(
                st.sampled_from(["a", "b", "c"]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        rendered = []
        for position, column in enumerate(columns):
            if draw(st.booleans()):
                rendered.append(f"{column} AS r{position}")
            else:
                rendered.append(column)
        select = ", ".join(rendered)
    else:
        select = "c, QUALITY(a.age) AS qa, QUALITY(a.source) AS qs"
    order_keys = ["a", "b", "c"] + (QUALITY_REFS if quality else [])
    order_clause = draw(order_clauses(order_keys))
    return (
        f"SELECT {distinct}{select} FROM t{where_clause}"
        f"{order_clause}{limit_clause}"
    )


def canonical(result):
    if isinstance(result, TaggedRelation):
        return (result.schema.column_names, [row.cells for row in result])
    return (result.schema.column_names, [row.values_tuple() for row in result])


def assert_three_way(sql, relation):
    clear_plan_cache()
    planned_cold = canonical(execute(sql, relation))
    planned_cached = canonical(execute(sql, relation))  # plan-cache hit
    naive = canonical(naive_execute(sql, relation))
    assert planned_cold == planned_cached
    assert planned_cold == naive


class TestThreeWayEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(plain_relations(), statements(quality=False))
    def test_plain(self, relation, sql):
        assert_three_way(sql, relation)

    @settings(max_examples=120, deadline=None)
    @given(tagged_relations(), statements(quality=True))
    def test_tagged(self, relation, sql):
        assert_three_way(sql, relation)


# -- polygen-derived sources --------------------------------------------------

LEFT_SCHEMA = RelationSchema("l", [Column("k", "INT"), Column("lval", "STR")])
RIGHT_SCHEMA = RelationSchema("r", [Column("rk", "INT"), Column("rval", "INT")])


@st.composite
def federated_tagged(draw):
    """Join two single-source polygen relations and bridge to tags.

    The resulting ``source`` / ``intermediate_sources`` tags encode the
    polygen provenance, so comparing full cells across the three
    engines checks that polygen sources survive identically.
    """
    left_rows = draw(
        st.lists(st.tuples(st.integers(0, 3), STR_VALUES), max_size=8)
    )
    right_rows = draw(
        st.lists(st.tuples(st.integers(0, 3), INT_VALUES), max_size=8)
    )
    left = PolygenRelation.from_relation(
        Relation.from_tuples(LEFT_SCHEMA, left_rows), "db1"
    )
    right = PolygenRelation.from_relation(
        Relation.from_tuples(RIGHT_SCHEMA, right_rows), "db2"
    )
    joined = polygen_algebra.equi_join(left, right, [("k", "rk")], "fed")
    return polygen_to_tagged(joined)


class TestPolygenEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        federated_tagged(),
        st.sampled_from(
            [
                "SELECT * FROM fed",
                "SELECT * FROM fed WHERE QUALITY(k.source) = 'db1'",
                "SELECT k, lval FROM fed WHERE QUALITY(lval.source) <> 'db2' "
                "ORDER BY k DESC, lval",
                "SELECT DISTINCT k, rval FROM fed "
                "WHERE QUALITY(k.intermediate_sources) IS NOT NULL LIMIT 5",
                "SELECT k, COUNT(*) AS n, MAX(QUALITY(rval.source)) AS src "
                "FROM fed GROUP BY k ORDER BY n DESC, k",
                "SELECT lval, QUALITY(k.source) AS origin FROM fed "
                "WHERE rval >= 2 ORDER BY QUALITY(rval.source), k LIMIT 4",
            ]
        ),
    )
    def test_federation_three_way(self, relation, sql):
        assert_three_way(sql, relation)
