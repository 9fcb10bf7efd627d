"""Property: stats collection never changes query results.

For randomly generated statements over random relations, execution with
a :class:`StatsCollector` attached — and with ambient metrics enabled —
must return exactly what the uninstrumented planner path and the
naive oracle return.  Observation must be free of observer effects.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.experiments.naive import naive_execute
from repro.obs import metrics as obs_metrics
from repro.obs.stats import StatsCollector
from repro.sql import clear_plan_cache, execute
from tests.sql.test_planner_equivalence import (
    canonical,
    plain_relations,
    statements,
    tagged_relations,
)


def assert_observation_free(sql, relation):
    clear_plan_cache()
    baseline = canonical(execute(sql, relation))
    naive = canonical(naive_execute(sql, relation))

    planned = StatsCollector()
    with obs_metrics.instrumented():
        cold = canonical(execute(sql, relation, stats=planned))
        warm = canonical(execute(sql, relation, stats=planned))

    assert cold == baseline
    assert warm == baseline  # the cached-plan path, collector attached
    assert naive == baseline

    assert planned.filled and planned.cache_hit
    n_rows = len(baseline[1])
    assert planned.rows == n_rows
    assert planned.execution.rows == n_rows


class TestObservationIsFree:
    @settings(max_examples=60, deadline=None)
    @given(plain_relations(), statements(quality=False))
    def test_plain(self, relation, sql):
        assert_observation_free(sql, relation)

    @settings(max_examples=60, deadline=None)
    @given(tagged_relations(), statements(quality=True))
    def test_tagged(self, relation, sql):
        assert_observation_free(sql, relation)
