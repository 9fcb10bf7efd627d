"""Property-based tests for scoring, allocation, and SPC invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quality.allocation import DatasetProfile, allocate_budget
from repro.quality.scoring import (
    ParameterScorer,
    QualityScorecard,
)
from repro.quality.spc import p_chart
from repro.tagging.cell import QualityCell

# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

SCORES = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))


def fixed_scorer(name: str, value):
    return ParameterScorer(name, lambda tags, ctx: value)


class TestScorecardProperties:
    @settings(max_examples=60)
    @given(st.lists(SCORES, min_size=1, max_size=5))
    def test_composite_bounded_by_components(self, values):
        scorers = [
            fixed_scorer(f"p{i}", value) for i, value in enumerate(values)
        ]
        scorecard = QualityScorecard(scorers)
        composite = scorecard.composite_cell(QualityCell(1))
        present = [v for v in values if v is not None]
        if not present:
            assert composite is None
        else:
            assert min(present) - 1e-9 <= composite <= max(present) + 1e-9

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_weight_shifts_toward_heavier(self, a, b, weight):
        scorecard = QualityScorecard(
            [fixed_scorer("pa", a), fixed_scorer("pb", b)],
            weights={"pa": weight, "pb": 1.0},
        )
        composite = scorecard.composite_cell(QualityCell(1))
        expected = (weight * a + b) / (weight + 1.0)
        assert composite == pytest.approx(expected)

    @settings(max_examples=40)
    @given(st.floats(min_value=-100, max_value=100))
    def test_scores_always_clamped(self, raw):
        scorer = ParameterScorer("p", lambda tags, ctx: raw)
        score = scorer.score(QualityCell(1))
        assert 0.0 <= score <= 1.0


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


@st.composite
def dataset_profiles(draw, max_count: int = 4):
    count = draw(st.integers(min_value=1, max_value=max_count))
    profiles = []
    for index in range(count):
        profiles.append(
            DatasetProfile(
                name=f"d{index}",
                records=draw(st.integers(min_value=0, max_value=5000)),
                error_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
                unit_cost=draw(st.floats(min_value=0.1, max_value=10.0)),
                effectiveness=draw(st.floats(min_value=0.05, max_value=1.0)),
                weight=draw(st.floats(min_value=0.0, max_value=5.0)),
            )
        )
    return profiles


class TestAllocationProperties:
    @settings(max_examples=50)
    @given(dataset_profiles(), st.floats(min_value=0.0, max_value=50.0))
    def test_never_overspends(self, profiles, budget):
        result = allocate_budget(profiles, budget)
        assert result.spent <= budget + 1e-9
        recomputed = sum(
            units * next(p.unit_cost for p in profiles if p.name == name)
            for name, units in result.units.items()
        )
        assert result.spent == pytest.approx(recomputed)

    @settings(max_examples=50)
    @given(dataset_profiles(), st.floats(min_value=0.0, max_value=50.0))
    def test_never_worsens_quality(self, profiles, budget):
        result = allocate_budget(profiles, budget)
        assert result.weighted_errors_after <= result.weighted_errors_before + 1e-9

    @settings(max_examples=30)
    @given(
        dataset_profiles(),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_monotone_in_budget(self, profiles, b1, b2):
        low, high = sorted((b1, b2))
        result_low = allocate_budget(profiles, low)
        result_high = allocate_budget(profiles, high)
        assert (
            result_high.weighted_errors_after
            <= result_low.weighted_errors_after + 1e-9
        )


# ---------------------------------------------------------------------------
# SPC
# ---------------------------------------------------------------------------


@st.composite
def defect_samples(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=500), min_size=n, max_size=n
        )
    )
    counts = [
        draw(st.integers(min_value=0, max_value=size)) for size in sizes
    ]
    return counts, sizes


class TestSPCProperties:
    @settings(max_examples=50)
    @given(defect_samples())
    def test_limits_bracket_center(self, samples):
        counts, sizes = samples
        chart = p_chart(counts, sizes)
        for point in chart.points:
            assert 0.0 <= point.lower <= point.center + 1e-12
            assert point.center - 1e-12 <= point.upper <= 1.0

    @settings(max_examples=50)
    @given(defect_samples())
    def test_beyond_limit_points_flagged(self, samples):
        counts, sizes = samples
        chart = p_chart(counts, sizes, run_rule=False)
        for point in chart.points:
            beyond = (
                point.statistic > point.upper or point.statistic < point.lower
            )
            assert point.out_of_control == beyond

    @settings(max_examples=50)
    @given(defect_samples())
    def test_center_is_pooled_rate(self, samples):
        counts, sizes = samples
        chart = p_chart(counts, sizes)
        assert chart.center == pytest.approx(sum(counts) / sum(sizes))

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=2, max_value=15))
    def test_constant_process_in_control(self, size, n_samples):
        # A perfectly constant defect fraction never trips the 3-sigma
        # rule (every point sits exactly on the center line).
        counts = [size // 4] * n_samples
        sizes = [size] * n_samples
        chart = p_chart(counts, sizes, run_rule=False)
        assert chart.signals == []
