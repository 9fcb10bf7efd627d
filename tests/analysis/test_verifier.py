"""Mutation + golden tests for the plan-IR verifier (DQ40x).

Each mutation case hand-builds an ill-formed plan — the kind a buggy
rewrite rule or a stale cache entry would produce — and asserts the
verifier reports exactly the dedicated DQ40x code.  Golden files under
``tests/analysis/golden/verifier_*.txt`` pin the rendered message.
Regenerate with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_verifier.py
"""

import os
from pathlib import Path

import pytest

from repro.analysis import (
    CODES,
    PlanVerificationError,
    assert_plan_verifies,
    verify_cache_entry,
    verify_plan,
)
from repro.analysis.catalog import example_catalog
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.sql.executor import execute
from repro.sql.nodes import (
    ColumnRef,
    Comparison,
    Literal,
    OrderItem,
    QualityRef,
)
from repro.sql.optimizer import PlanContext
from repro.sql.parser import parse
from repro.sql.physical import compile_plan
from repro.sql.plan import (
    Filter,
    Limit,
    Scan,
    Sort,
    TopK,
)
from repro.sql.plancache import (
    PreparedStatement,
    clear_plan_cache,
    default_plan_cache,
    plan_statement,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

BIG_SCHEMA = schema(
    "big", [("id", "INT"), ("name", "STR"), ("score", "INT")], key=["id"]
)


def make_big(n: int = 80) -> Relation:
    relation = Relation(BIG_SCHEMA)
    for i in range(n):
        relation.insert({"id": i, "name": f"n{i}", "score": i % 7})
    return relation


BIG = make_big()
CATALOG = {**example_catalog(), "big": BIG}
CONTEXT = PlanContext.from_relations(CATALOG)


def _optimized(sql: str):
    plan, _, _ = plan_statement(parse(sql), CATALOG)
    return plan


# -- mutation cases: one ill-formed plan per DQ40x code ----------------------

MUTATIONS = {
    # Filter reads a column its input does not provide.
    "DQ401": lambda: Filter(
        Scan("big"), Comparison("=", ColumnRef("nosuch"), Literal(1))
    ),
    # Scan flag contradicts the catalog: 'big' is a plain relation.
    "DQ402": lambda: Scan("big", tagged=True),
    # QUALITY(...) evaluated over a subtree that carries no tags.
    "DQ404": lambda: Filter(
        Scan("big"),
        Comparison("=", QualityRef("name", "source"), Literal("x")),
    ),
    # Fusion produced an impossible parameter.
    "DQ407": lambda: TopK(Scan("big"), (OrderItem(ColumnRef("id")),), -1),
    # Limit-over-Sort survived optimization (fuse_topk missed it).
    "DQ408": lambda: Limit(
        Sort(Scan("big"), (OrderItem(ColumnRef("id")),)), 5
    ),
    # Pruned scan with no governing Filter predicate justifying the
    # dropped buckets.
    "DQ410": lambda: Scan(
        "big", partitions=(0,), partition_total=8, partition_key="score"
    ),
}


@pytest.mark.parametrize("code", sorted(MUTATIONS), ids=sorted(MUTATIONS))
def test_mutation_caught_by_dedicated_code(code):
    plan = MUTATIONS[code]()
    diagnostics = verify_plan(plan, CONTEXT, context_label=code.lower())
    assert code in diagnostics.codes(), (
        f"mutation for {code} produced {diagnostics.codes()}"
    )
    rendered = f"plan: {plan!r}\n{diagnostics.render()}\n"
    path = GOLDEN_DIR / f"verifier_{code.lower()}.txt"
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(rendered, encoding="utf-8")
    assert rendered == path.read_text(encoding="utf-8")


def test_dq4_registry_closed():
    """Every registered DQ4xx code has a dedicated test exercising it:
    mutations here, DQ409 below, DQ42x in test_workload."""
    dq4 = {code for code in CODES if code.startswith("DQ4")}
    covered = (
        set(MUTATIONS)
        | {"DQ409"}
        | {"DQ420", "DQ421", "DQ422", "DQ423", "DQ424", "DQ425"}
    )
    assert covered == dq4


class TestCleanPlans:
    CLEAN = [
        "SELECT name FROM big WHERE score > 3",
        "SELECT name, score FROM big ORDER BY score DESC LIMIT 5",
        "SELECT COUNT(*) AS n FROM big",
        "SELECT co_name FROM customer WHERE QUALITY(address.source) = 'x'",
        "SELECT DISTINCT co_name FROM customer "
        "WHERE employees > 10 ORDER BY co_name LIMIT 3",
    ]

    @pytest.mark.parametrize("sql", CLEAN)
    def test_optimizer_output_verifies(self, sql):
        diagnostics = verify_plan(_optimized(sql), CONTEXT, sql=sql)
        assert not diagnostics, diagnostics.render()

    def test_columnar_plan_verifies(self):
        plan = _optimized(
            "SELECT name FROM big WHERE score > 3 ORDER BY id DESC LIMIT 4"
        )
        # One plan shape for every relation: no access-path boundary.
        assert "Project" in repr(plan) and "TopK" in repr(plan)
        assert not verify_plan(plan, CONTEXT)

    def test_unknown_relation_is_lenient(self):
        plan = Filter(
            Scan("ghost"), Comparison("=", ColumnRef("x"), Literal(1))
        )
        assert not verify_plan(plan, CONTEXT)


class TestAssertAndOptimizeHooks:
    def test_assert_raises_with_diagnostics(self):
        with pytest.raises(PlanVerificationError) as excinfo:
            assert_plan_verifies(MUTATIONS["DQ404"](), CONTEXT)
        assert "DQ404" in str(excinfo.value)
        assert excinfo.value.diagnostics.has_errors

    def test_warning_does_not_raise(self):
        assert_plan_verifies(MUTATIONS["DQ408"](), CONTEXT)

    def test_optimize_verify_true_on_good_plan(self):
        from repro.sql.optimizer import optimize
        from repro.sql.plan import logical_plan

        statement = parse("SELECT name FROM big WHERE score > 3")
        plan = optimize(
            logical_plan(statement, tagged=False), CONTEXT, verify=True
        )
        assert plan is not None

    def test_env_flag(self, monkeypatch):
        from repro.analysis import verify_plans_enabled

        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        assert not verify_plans_enabled()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        assert not verify_plans_enabled()
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert verify_plans_enabled()


class TestCacheEntryAudit:
    """DQ409 fires on entries whose recorded reads are incomplete or
    out of date.  The cache itself never serves such an entry (see the
    state machine in tests/sql/test_plancache_machine.py); here the
    record is tampered with, or audited against a changed source, to
    show the audit catches it."""

    SQL = "SELECT name FROM big WHERE score > 3"

    def make_entry(self, relation=BIG, sanitize=False):
        statement = parse(self.SQL)
        plan, resolved, context = plan_statement(statement, {"big": relation})
        compiled = compile_plan(plan, {"big": relation}, sanitize=sanitize)
        return PreparedStatement(
            self.SQL, statement, plan, compiled, context.reads,
            sanitize=sanitize,
        )

    @staticmethod
    def without(entry, fact):
        entry.reads = tuple(read for read in entry.reads if read[0] != fact)
        return entry

    def test_fresh_entry_is_clean(self):
        entry = self.make_entry()
        assert not verify_cache_entry(entry, {"big": BIG})

    def test_stale_schema_identity(self):
        entry = self.make_entry()
        # Same column layout, freshly constructed schema object: the
        # entry recorded the old schema object, so the audit flags it.
        rebuilt_schema = schema(
            "big",
            [("id", "INT"), ("name", "STR"), ("score", "INT")],
            key=["id"],
        )
        replacement = Relation(rebuilt_schema)
        for i in range(80):
            replacement.insert({"id": i, "name": f"n{i}", "score": i % 7})
        diagnostics = verify_cache_entry(entry, {"big": replacement})
        assert diagnostics.codes() == ["DQ409"]
        assert "schema(big)" in diagnostics.render()

    def test_missing_partition_layout(self):
        entry = self.without(self.make_entry(), "layout")
        diagnostics = verify_cache_entry(entry, {"big": BIG})
        assert diagnostics.codes() == ["DQ409"]
        assert "layout(big)" in diagnostics.render()

    def test_stale_partition_layout(self):
        from repro.relational import hash_partitions

        relation = make_big()
        entry = self.make_entry(relation)
        relation.repartition(hash_partitions("score", 4))
        diagnostics = verify_cache_entry(entry, {"big": relation})
        assert "DQ409" in diagnostics.codes()
        assert "layout(big)" in diagnostics.render()

    def test_hit_path_catches_tampered_entry(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        clear_plan_cache()
        try:
            relation = make_big()
            result = execute(self.SQL, {"big": relation})
            assert len(result) > 0
            hit = default_plan_cache().lookup(self.SQL, {"big": relation})
            assert hit is not None
            entry, _ = hit
            self.without(entry, "layout")  # tamper with the installed entry
            with pytest.raises(PlanVerificationError) as excinfo:
                execute(self.SQL, {"big": relation})
            assert "DQ409" in str(excinfo.value)
        finally:
            clear_plan_cache()

    def test_install_path_verifies_under_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        clear_plan_cache()
        try:
            relation = make_big()
            execute(self.SQL, {"big": relation})
            stats = default_plan_cache().stats()
            assert stats["statements"] == 1
            execute(self.SQL, {"big": relation})
            assert default_plan_cache().stats()["hits"] >= 1
        finally:
            clear_plan_cache()
