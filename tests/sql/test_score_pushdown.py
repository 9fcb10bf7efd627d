"""End-to-end tests for ``QUALITY(parameter)`` scoring.

The parameter form (``QUALITY(credibility) > 0.8``) resolves against
the relation's registered :class:`ScoringProfile` at execution time.
It stays a leaf of the Filter over the Scan, like the tag form
(``QUALITY(column.indicator)``), and the leaf reads the materialized
score arrays while the bound profile defines the parameter.  Every
answer must equal the per-cell test oracle, ``naive_execute``, in
order.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query
from repro.experiments.naive import naive_execute
from repro.sql.errors import SQLError
from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    materializer_for,
    register_profile,
)
from repro.quality.scoring import credibility_scorer, timeliness_scorer
from repro.relational import hash_partitions
from repro.relational.schema import schema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

SOURCES = [None, "audit", "phone", "fax"]


@pytest.fixture(autouse=True)
def _clean_state():
    clear_profiles()
    clear_plan_cache()
    yield
    clear_profiles()
    clear_plan_cache()


def make_relation(n=24):
    tag_schema = TagSchema(
        indicators=[
            IndicatorDefinition("source"),
            IndicatorDefinition("age", "FLOAT"),
        ],
        allowed={"v": ["source", "age"]},
    )
    relation = TaggedRelation(
        schema("readings", [("k", "INT"), ("v", "STR")]), tag_schema
    )
    for k in range(n):
        tags = []
        source = SOURCES[k % len(SOURCES)]
        if source is not None:
            tags.append(IndicatorValue("source", source))
        if k % 5:
            tags.append(IndicatorValue("age", float(10 * (k % 13))))
        relation.insert({"k": k, "v": QualityCell(f"v{k}", tags)})
    return relation


def register(ratings=None):
    return register_profile(
        ScoringProfile(
            "grades",
            [
                credibility_scorer(ratings or {"audit": 0.9, "phone": 0.3}),
                timeliness_scorer(100.0),
            ],
        ),
        relations=["readings"],
    )


def explain(sql, source):
    return "\n".join(row["plan"] for row in execute(f"EXPLAIN {sql}", source))


def in_order(result):
    return [row.values_tuple() for row in result]


def assert_matches_oracle(sql, relation):
    result = execute(sql, relation)
    assert in_order(result) == in_order(naive_execute(sql, relation)), sql
    return result


def filter_over_scan(sql, relation):
    """The plan: Project over one Filter over the tagged Scan."""
    plan = explain(sql, relation).splitlines()
    assert plan[0].startswith("Project [")
    assert plan[1].startswith("└─ Filter [")
    assert plan[2].startswith("   └─ Scan [readings (tagged")
    assert len(plan) == 3
    return plan[1][len("└─ "):]


class TestPlanShape:
    """Score predicates are no plan node of their own: each stays a leaf
    of the Filter directly over the Scan, with or without a bound
    profile, and the plan reads no scoring profile."""

    def test_score_conjunct_becomes_score_filter(self):
        relation = make_relation()
        register()
        sql = "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        assert filter_over_scan(sql, relation) == (
            "Filter [QUALITY(credibility) > 0.5]"
        )
        assert 0 < len(assert_matches_oracle(sql, relation)) < len(relation)

    def test_residual_value_predicate_survives(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE QUALITY(credibility) > 0.5 AND k >= 4"
        )
        assert filter_over_scan(sql, relation) == (
            "Filter [(QUALITY(credibility) > 0.5 AND k >= 4)]"
        )
        assert_matches_oracle(sql, relation)

    def test_score_filter_stacks_on_tag_pushdown(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE QUALITY(v.source) = 'audit' "
            "AND QUALITY(timeliness) >= 0.4"
        )
        assert filter_over_scan(sql, relation) == (
            "Filter [(QUALITY(v.source) = 'audit' "
            "AND QUALITY(timeliness) >= 0.4)]"
        )
        assert len(assert_matches_oracle(sql, relation)) > 0

    def test_unregistered_relation_keeps_per_row_filter(self):
        relation = make_relation()
        register()
        sql = "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        bound = filter_over_scan(sql, relation)
        clear_profiles()  # no binding: the same plan reads per row
        register_profile(
            ScoringProfile(
                "unbound", [credibility_scorer({"audit": 0.9})]
            )
        )
        assert filter_over_scan(sql, relation) == bound
        with pytest.raises(SQLError, match="no registered scoring profile"):
            execute(sql, relation)


class TestEquivalence:
    def test_pushdown_matches_planner_off_and_oracle(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        pushed = assert_matches_oracle(sql, relation)
        scores = materializer_for(relation).row_scores("credibility")
        oracle = [
            (row.value("k"),)
            for row, score in zip(relation.row_batch(), scores)
            if score is not None and score > 0.5
        ]
        assert in_order(pushed) == oracle
        assert 0 < len(pushed) < len(relation)

    def test_mixed_tag_score_and_value_predicates(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE QUALITY(v.source) <> 'fax' "
            "AND QUALITY(timeliness) >= 0.4 AND k < 20"
        )
        assert_matches_oracle(sql, relation)

    def test_scores_in_projection_and_order_by(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k, QUALITY(credibility) AS cred FROM readings "
            "WHERE QUALITY(credibility) >= 0.3 "
            "ORDER BY QUALITY(credibility) DESC, k LIMIT 6"
        )
        pushed = execute(sql, relation)
        reference = naive_execute(sql, relation)
        assert [r.values_tuple() for r in pushed] == [
            r.values_tuple() for r in reference
        ]
        creds = [row["cred"] for row in pushed]
        assert creds == sorted(creds, reverse=True)

    def test_partitioned_relation_prunes_and_pushes(self):
        relation = make_relation(n=48)
        relation.repartition(hash_partitions("k", 8))
        register()
        sql = (
            "SELECT k FROM readings "
            "WHERE k = 5 AND QUALITY(timeliness) >= 0.1"
        )
        plan = explain(sql, relation)
        assert (
            "Filter [(k = 5 AND QUALITY(timeliness) >= 0.1)]\n"
            "   └─ Scan [readings (tagged, partitions=1/8)]"
        ) in plan
        assert_matches_oracle(sql, relation)

    def test_multi_bucket_scan_stacks_tag_and_score_filters(self):
        # Several surviving shards: the tag and score leaves read each
        # shard's arrays, merged back into the relation's row order.
        relation = make_relation(n=48)
        relation.repartition(hash_partitions("k", 8))
        register()
        sql = (
            "SELECT k FROM readings WHERE k IN (1, 3, 4, 7, 9, 14, 30, 41, 44, 46) "
            "AND QUALITY(v.source) <> 'fax' AND QUALITY(timeliness) >= 0.1"
        )
        plan = explain(sql, relation)
        assert "QualityFilter" not in plan and "ScoreFilter" not in plan
        survivors = int(plan.split("partitions=")[1].split("/")[0])
        assert survivors > 1
        pushed = assert_matches_oracle(sql, relation)
        assert 0 < len(pushed) < 8

    def test_unpruned_partitioned_scan_uses_flat_block(self):
        relation = make_relation(n=48)
        relation.repartition(hash_partitions("k", 8))
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        assert_matches_oracle(sql, relation)


class TestDiagnosticsAndErrors:
    def test_dq212_for_unbound_relation(self):
        relation = make_relation()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert "DQ212" in diagnostics.codes()
        assert diagnostics.has_errors

    def test_dq212_for_undefined_parameter(self):
        relation = make_relation()
        register()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(accuracy) > 0.5",
            relation,
        )
        assert "DQ212" in diagnostics.codes()

    def test_registered_parameter_is_clean(self):
        relation = make_relation()
        register()
        diagnostics = analyze_query(
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5",
            relation,
        )
        assert not diagnostics.has_errors

    def test_dq205_for_untagged_relation(self):
        from repro.relational.relation import Relation

        plain = Relation(schema("plain", [("k", "INT")]))
        plain.insert({"k": 1})
        diagnostics = analyze_query(
            "SELECT k FROM plain WHERE QUALITY(credibility) > 0.5", plain
        )
        assert "DQ205" in diagnostics.codes()
        with pytest.raises(SQLError):
            execute(
                "SELECT k FROM plain WHERE QUALITY(credibility) > 0.5",
                plain,
            )

    def test_execute_without_profile_raises(self):
        relation = make_relation()
        with pytest.raises(SQLError, match="no registered scoring profile"):
            execute(
                "SELECT k FROM readings "
                "WHERE QUALITY(credibility) > 0.5",
                relation,
            )


class TestPlanCacheInvalidation:
    def test_reregistration_invalidates_cached_plans(self):
        relation = make_relation()
        register()
        sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        first = execute(sql, relation)
        assert len(first) > 0
        # Replace the profile with one that rates every source below
        # the cut; the cached plan looks the profile up on each
        # execution, so it cannot keep the old hits.
        register(ratings={"audit": 0.4, "phone": 0.1})
        assert len(execute(sql, relation)) == 0

    def test_score_free_statements_are_not_pinned(self):
        from repro.sql.plancache import PlanCache, execute_planned

        cache = PlanCache()
        relation = make_relation()
        register()
        plain_sql = "SELECT k FROM readings WHERE k > 3"
        scored_sql = (
            "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        )
        execute_planned(plain_sql, relation, cache=cache)
        first = execute_planned(scored_sql, relation, cache=cache)

        def facts(sql):
            return {fact for fact, _, _ in cache.lookup(sql, relation)[0].reads}

        # No plan reads the scoring registry, the scored one included...
        assert "profile" not in facts(plain_sql)
        assert "profile" not in facts(scored_sql)
        # ...so a registry mutation stales neither entry, and the cached
        # scored plan answers under the new registration.
        register(ratings={"audit": 0.4, "phone": 0.8})
        assert cache.lookup(plain_sql, relation) is not None
        assert cache.lookup(scored_sql, relation) is not None
        second = execute_planned(scored_sql, relation, cache=cache)
        assert in_order(second) == in_order(naive_execute(scored_sql, relation))
        assert in_order(second) != in_order(first)


class TestStrictVerdictFollowsProfiles:
    """A memoized strict verdict records the scoring profile it read:
    registering or clearing a profile re-decides the statement, on both
    execute paths and through a service session."""

    SQL = "SELECT co_name FROM customer WHERE QUALITY(credibility) > 0.5"

    @staticmethod
    def register_fund_raising():
        register_profile(
            ScoringProfile(
                "fund_raising",
                [credibility_scorer({"acct'g": 0.9, "sales": 0.6,
                                     "estimate": 0.3})],
            ),
            relations=["customer"],
        )

    def assert_rejected(self, run):
        from repro.analysis.diagnostics import QueryAnalysisError

        with pytest.raises(QueryAnalysisError) as excinfo:
            run()
        assert "DQ212" in excinfo.value.diagnostics.codes()

    @pytest.mark.parametrize("planner", [True, False])
    def test_register_profile_lifts_dq212(self, planner):
        from repro.experiments.scenarios import table2_relation

        relation = table2_relation()

        def run():
            return execute(self.SQL, relation, strict=True, planner=planner)

        self.assert_rejected(run)
        self.register_fund_raising()
        expected = naive_execute(self.SQL, relation)
        assert len(expected) > 0
        assert run().rows == expected.rows

    @pytest.mark.parametrize("planner", [True, False])
    def test_clear_profiles_restores_dq212(self, planner):
        from repro.experiments.scenarios import table2_relation

        relation = table2_relation()

        def run():
            return execute(self.SQL, relation, strict=True, planner=planner)

        self.register_fund_raising()
        assert len(run()) > 0
        clear_profiles()
        # The analyzer's DQ212, not the executor's runtime SQLError.
        self.assert_rejected(run)

    def test_service_session_follows_profiles(self):
        from repro.experiments.scenarios import table2_relation
        from repro.service.core import QueryService

        service = QueryService(table2_relation(), workers=1)
        try:
            with service.session(strict=True) as session:
                self.assert_rejected(lambda: session.execute(self.SQL))
                self.register_fund_raising()
                assert len(session.execute(self.SQL)) > 0
                clear_profiles()
                self.assert_rejected(lambda: session.execute(self.SQL))
        finally:
            service.close()


class TestNaiveOracleScores:
    """``naive_execute`` answers QUALITY(parameter) like the planned
    engine: a row's score is the mean over its scorable tagged cells."""

    FUND_RAISING = [
        "SELECT co_name, employees FROM customer WHERE employees > 100 "
        "AND QUALITY(address.source) <> 'estimate' "
        "AND QUALITY(timeliness) > 0.2 ORDER BY employees DESC LIMIT 20",
        "SELECT co_name, QUALITY(credibility) AS c, "
        "QUALITY(timeliness) AS t FROM customer "
        "ORDER BY QUALITY(credibility) DESC, co_name",
        "SELECT co_name FROM customer WHERE QUALITY(credibility) >= 0.6 "
        "ORDER BY QUALITY(timeliness), co_name LIMIT 7",
    ]

    @staticmethod
    def bound_customers():
        from repro.experiments.scenarios import customer_database

        world, _, relation = customer_database(n_companies=60, seed=5)
        register_profile(
            ScoringProfile(
                "fund_raising",
                [
                    credibility_scorer({"acct'g": 0.9, "estimate": 0.3}),
                    timeliness_scorer(90.0),
                ],
                context={"today": world.today},
            ),
            relations=["customer"],
        )
        return relation

    @pytest.mark.parametrize("sql", FUND_RAISING)
    def test_matches_reference_path(self, sql):
        relation = self.bound_customers()
        expected = execute(sql, relation)
        assert len(expected) > 0
        got = naive_execute(sql, relation)
        assert got.schema.column_names == expected.schema.column_names
        assert [c.domain for c in got.schema.columns] == [
            c.domain for c in expected.schema.columns
        ]
        assert [r.values_tuple() for r in got] == [
            r.values_tuple() for r in expected
        ]

    def test_unbound_parameter_raises_sqlerror(self):
        relation = self.bound_customers()
        clear_profiles()
        with pytest.raises(SQLError):
            naive_execute(self.FUND_RAISING[1], relation)
