"""Per-rule optimizer tests: each rewrite fires AND preserves results."""

from __future__ import annotations

import pytest

from repro.experiments.naive import naive_equi_join, naive_execute
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import execute, logical_plan, optimize, parse
from repro.sql.nodes import ColumnRef, Comparison, Literal, SelectItem
from repro.sql.optimizer import (
    PlanContext,
    choose_build_side,
    fold_constants,
    fuse_topk,
)
from repro.sql.physical import execute_plan
from repro.sql.plan import (
    Filter,
    HashJoin,
    Project,
    Scan,
    Sort,
    TopK,
    Limit,
)
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation


def find(plan, kind):
    """All nodes of ``kind`` in the plan tree, preorder."""
    found = []

    def walk(node):
        if isinstance(node, kind):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    return found


@pytest.fixture
def tagged():
    schema = RelationSchema(
        "t", [Column("a", "INT"), Column("b", "INT"), Column("c", "STR")]
    )
    tags = TagSchema(
        [
            IndicatorDefinition("source", "STR"),
            IndicatorDefinition("age", "INT"),
        ],
        allowed={"a": ["source", "age"], "c": ["source"]},
    )
    relation = TaggedRelation(schema, tags)
    for index in range(12):
        relation.insert(
            {
                "a": QualityCell(
                    index,
                    [
                        IndicatorValue("source", "s1" if index % 2 else "s2"),
                        IndicatorValue("age", index % 4),
                    ],
                ),
                "b": QualityCell(index * 2),
                "c": QualityCell(
                    "xyz"[index % 3], [IndicatorValue("source", "s1")]
                ),
            }
        )
    return relation


def plan_for(sql, relation):
    statement = parse(sql)
    return logical_plan(statement, isinstance(relation, TaggedRelation))


def context_for(relation):
    return PlanContext.from_relations({relation.schema.name: relation})


def same_results(sql, relation):
    planned = execute(sql, relation)
    expected = naive_execute(sql, relation)
    assert planned.schema.column_names == expected.schema.column_names
    assert [r.values_tuple() for r in planned] == [
        r.values_tuple() for r in expected
    ]
    return planned


class TestFoldConstants:
    def test_true_conjunct_folds_away(self, tagged):
        plan = plan_for("SELECT * FROM t WHERE 1 = 1 AND a > 2", tagged)
        folded = fold_constants(plan)
        (filter_node,) = find(folded, Filter)
        assert filter_node.predicate == Comparison(
            ">", ColumnRef("a"), Literal(2)
        )
        same_results("SELECT * FROM t WHERE 1 = 1 AND a > 2", tagged)

    def test_tautology_drops_filter(self, tagged):
        folded = fold_constants(plan_for("SELECT * FROM t WHERE 1 = 1", tagged))
        assert find(folded, Filter) == []
        assert len(same_results("SELECT * FROM t WHERE 1 = 1", tagged)) == len(
            tagged
        )

    def test_contradiction_stays_and_yields_empty(self, tagged):
        folded = fold_constants(plan_for("SELECT * FROM t WHERE 1 = 2", tagged))
        (filter_node,) = find(folded, Filter)
        assert filter_node.predicate == Literal(False)
        assert len(same_results("SELECT * FROM t WHERE 1 = 2", tagged)) == 0

    def test_null_comparison_folds_false(self, tagged):
        folded = fold_constants(
            plan_for("SELECT * FROM t WHERE NULL <> 1", tagged)
        )
        (filter_node,) = find(folded, Filter)
        assert filter_node.predicate == Literal(False)


class TestQualityPushdown:
    """QUALITY(column.indicator) predicates are not pushed anywhere: the
    whole WHERE clause stays one Filter directly over the tagged Scan,
    whose leaves read the relation's tag arrays, and every shape answers
    like the oracle."""

    @staticmethod
    def filter_over_scan(sql, relation):
        optimized = optimize(plan_for(sql, relation), context_for(relation))
        (filter_node,) = find(optimized, Filter)
        assert isinstance(filter_node.child, Scan)
        assert filter_node.child.tagged
        return filter_node

    def test_routes_into_columnar_scan(self, tagged):
        sql = "SELECT * FROM t WHERE QUALITY(a.source) = 's1' AND b > 0"
        filter_node = self.filter_over_scan(sql, tagged)
        assert filter_node.predicate == parse(sql).where
        assert len(same_results(sql, tagged)) == 6

    def test_in_list_routes(self, tagged):
        sql = "SELECT a FROM t WHERE QUALITY(a.age) IN (0, 1)"
        self.filter_over_scan(sql, tagged)
        assert len(same_results(sql, tagged)) == 6

    def test_flipped_literal_side_routes(self, tagged):
        sql = "SELECT * FROM t WHERE 2 >= QUALITY(a.age)"
        filter_node = self.filter_over_scan(sql, tagged)
        assert filter_node.predicate == parse(sql).where
        assert len(same_results(sql, tagged)) == 9

    def test_null_literal_not_routed(self, tagged):
        # `QUALITY(x) <> NULL` never matches, even on tagged cells.
        sql = "SELECT * FROM t WHERE QUALITY(a.source) <> NULL"
        self.filter_over_scan(sql, tagged)
        assert len(same_results(sql, tagged)) == 0

    def test_unknown_indicator_not_routed(self, tagged):
        # b allows no indicators: QUALITY(b.source) reads NULL per row
        # (the relation has no tag array for it), so nothing matches.
        sql = "SELECT * FROM t WHERE QUALITY(b.source) = 's1'"
        self.filter_over_scan(sql, tagged)
        assert len(same_results(sql, tagged)) == 0

    def test_disjunction_not_routed(self, tagged):
        sql = (
            "SELECT * FROM t "
            "WHERE QUALITY(a.source) = 's1' OR QUALITY(a.age) = 0"
        )
        self.filter_over_scan(sql, tagged)
        assert len(same_results(sql, tagged)) == 9

    def test_rule_direct_shape(self, tagged):
        plan = plan_for("SELECT * FROM t WHERE QUALITY(a.age) < 2", tagged)
        # No rule rewrites a QUALITY predicate: optimization leaves the
        # logical plan as it was.
        assert optimize(plan, context_for(tagged)) == plan


class TestTopKFusion:
    def test_limit_over_sort_fuses(self, tagged):
        sql = "SELECT * FROM t ORDER BY b DESC LIMIT 3"
        optimized = optimize(plan_for(sql, tagged), context_for(tagged))
        (topk,) = find(optimized, TopK)
        assert topk.count == 3
        assert find(optimized, Sort) == []
        assert find(optimized, Limit) == []
        same_results(sql, tagged)

    def test_fuses_through_projection(self, tagged):
        sql = "SELECT a FROM t ORDER BY b LIMIT 4"
        optimized = optimize(plan_for(sql, tagged), context_for(tagged))
        (project,) = find(optimized, Project)
        assert isinstance(project.child, TopK)
        same_results(sql, tagged)

    def test_rule_direct(self):
        plan = Limit(Sort(Scan("t"), order_by=()), count=5)
        fused = fuse_topk(plan)
        assert isinstance(fused, TopK) and fused.count == 5

    def test_ties_match_stable_sort(self, tagged):
        # Heap top-k must keep the stable-sort tie order.
        sql = "SELECT * FROM t ORDER BY c LIMIT 6"
        same_results(sql, tagged)


class TestJoinRules:
    def setup_method(self):
        self.left = Relation.from_tuples(
            RelationSchema(
                "l", [Column("k", "INT"), Column("lv", "STR")]
            ),
            [(i % 4, f"L{i}") for i in range(20)],
        )
        self.right = Relation.from_tuples(
            RelationSchema(
                "r", [Column("rk", "INT"), Column("rv", "INT")]
            ),
            [(i % 4, i) for i in range(8)],
        )
        self.relations = {"l": self.left, "r": self.right}
        self.context = PlanContext.from_relations(self.relations)

    def join_plan(self):
        return HashJoin(Scan("l"), Scan("r"), on=(("k", "rk"),))

    def expected_join(self):
        return naive_equi_join(
            self.left, self.right, [("k", "rk")], "l_r"
        )

    def test_build_side_prefers_smaller_input(self):
        chosen = optimize(self.join_plan(), self.context)
        assert chosen.build_side == "right"  # 8 rows < 20 rows
        flipped = optimize(
            HashJoin(Scan("r"), Scan("l"), on=(("rk", "k"),)), self.context
        )
        assert flipped.build_side == "left"

    def test_build_side_direct_and_results_agree(self):
        plan = choose_build_side(self.join_plan(), self.context)
        result = execute_plan(plan, self.relations)
        expected = self.expected_join()
        assert sorted(r.values_tuple() for r in result) == sorted(
            r.values_tuple() for r in expected
        )
        # Forcing the other side changes row order, never the bag.
        from dataclasses import replace

        other = replace(plan, build_side="left")
        flipped = execute_plan(other, self.relations)
        assert sorted(r.values_tuple() for r in flipped) == sorted(
            r.values_tuple() for r in expected
        )

    def test_value_predicates_push_below_join(self):
        predicate = Comparison(">", ColumnRef("rv"), Literal(3))
        plan = Filter(self.join_plan(), predicate)
        optimized = optimize(plan, self.context)
        # The filter moved below the join, onto the right input.
        (join,) = find(optimized, HashJoin)
        (pushed,) = find(optimized, Filter)
        assert pushed in (join.left, join.right)
        assert pushed.predicate == predicate
        result = execute_plan(optimized, self.relations)
        expected = [
            r.values_tuple()
            for r in self.expected_join()
            if r["rv"] > 3
        ]
        assert sorted(r.values_tuple() for r in result) == sorted(expected)

    def test_projection_prunes_join_inputs(self):
        items = (SelectItem(ColumnRef("k")), SelectItem(ColumnRef("rv")))
        plan = Project(self.join_plan(), items)
        optimized = optimize(plan, self.context)
        (join,) = find(optimized, HashJoin)
        # lv is never consumed: the left input was narrowed to drop it.
        assert join.left_columns == ("k",)
        assert "rk" in join.right_columns
        projects = find(optimized, Project)
        assert len(projects) >= 2  # the top project plus pruned side(s)
        result = execute_plan(optimized, self.relations)
        assert result.schema.column_names == ("k", "rv")
        expected = sorted(
            (r["k"], r["rv"]) for r in self.expected_join()
        )
        assert sorted(r.values_tuple() for r in result) == expected


class TestExplain:
    def test_explain_renders_optimized_plan(self, tagged):
        result = execute(
            "EXPLAIN SELECT a, b FROM t "
            "WHERE QUALITY(a.source) = 's1' AND b > 2 "
            "ORDER BY b DESC LIMIT 3",
            tagged,
        )
        assert result.schema.column_names == ("plan",)
        text = "\n".join(row["plan"] for row in result)
        assert "Project" in text
        assert "TopK" in text
        assert (
            "Filter [(QUALITY(a.source) = 's1' AND b > 2)]\n"
            "      └─ Scan [t (tagged)]"
        ) in text

    def test_explain_rejected_from_unplanned_path(self, tagged):
        # planner=False answers through the test oracle, which builds no
        # plan; asking it for one fails loudly instead of silently
        # routing through the planner.
        import pytest

        from repro.errors import QueryError

        sql = "EXPLAIN SELECT * FROM t WHERE a > 1"
        with pytest.raises(QueryError, match="does not implement EXPLAIN"):
            execute(sql, tagged, planner=False)
