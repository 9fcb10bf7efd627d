"""Unit tests for Ballou-Tayi resource allocation."""

import pytest

from repro.errors import QualityError
from repro.quality.allocation import (
    DatasetProfile,
    allocate_budget,
    profiles_from_monitoring,
)


def profile(name="d", records=1000, error_rate=0.1, unit_cost=1.0,
            effectiveness=0.5, weight=1.0):
    return DatasetProfile(name, records, error_rate, unit_cost,
                          effectiveness, weight)


class TestDatasetProfile:
    def test_validation(self):
        with pytest.raises(QualityError):
            profile(records=-1)
        with pytest.raises(QualityError):
            profile(error_rate=1.5)
        with pytest.raises(QualityError):
            profile(unit_cost=0)
        with pytest.raises(QualityError):
            profile(effectiveness=0)
        with pytest.raises(QualityError):
            profile(weight=-1)

    def test_weighted_errors(self):
        assert profile(records=1000, error_rate=0.1, weight=2.0).weighted_errors == 200

    def test_geometric_decay(self):
        p = profile(records=1000, error_rate=0.1, effectiveness=0.5)
        assert p.errors_after(0) == 100
        assert p.errors_after(1) == 50
        assert p.errors_after(2) == 25

    def test_marginal_gains_decreasing(self):
        p = profile(effectiveness=0.5)
        gains = [p.marginal_gain(i) for i in range(5)]
        assert gains == sorted(gains, reverse=True)


class TestAllocation:
    def test_spends_on_best_ratio_first(self):
        cheap_dirty = profile("dirty", records=1000, error_rate=0.3)
        clean = profile("clean", records=1000, error_rate=0.01)
        result = allocate_budget([cheap_dirty, clean], budget=1)
        assert result.units == {"dirty": 1, "clean": 0}

    def test_weight_redirects_budget(self):
        low_stakes = profile("low", records=1000, error_rate=0.3, weight=0.1)
        high_stakes = profile("high", records=1000, error_rate=0.1, weight=10.0)
        result = allocate_budget([low_stakes, high_stakes], budget=1)
        assert result.units["high"] == 1

    def test_diminishing_returns_spread_budget(self):
        a = profile("a", records=1000, error_rate=0.2, effectiveness=0.9)
        b = profile("b", records=1000, error_rate=0.2, effectiveness=0.9)
        result = allocate_budget([a, b], budget=2)
        # After one unit on either, its marginal gain collapses (90%
        # effectiveness), so the second unit goes to the other dataset.
        assert result.units == {"a": 1, "b": 1}

    def test_respects_unit_costs(self):
        pricy = profile("pricy", records=1000, error_rate=0.5, unit_cost=10.0)
        cheap = profile("cheap", records=1000, error_rate=0.2, unit_cost=1.0)
        result = allocate_budget([pricy, cheap], budget=5)
        assert result.units["pricy"] == 0
        assert result.units["cheap"] >= 1
        assert result.spent <= 5

    def test_greedy_matches_exhaustive_small(self):
        """Exactness check against brute force on a small instance."""
        import itertools

        profiles = [
            profile("a", records=100, error_rate=0.3, effectiveness=0.6,
                    unit_cost=1.0),
            profile("b", records=400, error_rate=0.05, effectiveness=0.9,
                    unit_cost=2.0),
            profile("c", records=50, error_rate=0.5, effectiveness=0.3,
                    unit_cost=1.0, weight=3.0),
        ]
        budget = 6

        def total_after(units):
            cost = sum(
                u * p.unit_cost for u, p in zip(units, profiles)
            )
            if cost > budget:
                return None
            return sum(p.errors_after(u) for u, p in zip(units, profiles))

        best = min(
            value
            for units in itertools.product(range(8), repeat=3)
            if (value := total_after(units)) is not None
        )
        greedy = allocate_budget(profiles, budget)
        assert greedy.weighted_errors_after == pytest.approx(best)

    def test_zero_budget(self):
        result = allocate_budget([profile()], budget=0)
        assert result.units == {"d": 0}
        assert result.improvement == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(QualityError):
            allocate_budget([profile()], budget=-1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(QualityError):
            allocate_budget([profile("x"), profile("x")], budget=1)

    def test_improvement_fraction(self):
        result = allocate_budget(
            [profile(records=100, error_rate=0.5, effectiveness=0.5)],
            budget=1,
        )
        assert result.improvement_fraction == pytest.approx(0.5)

    def test_clean_data_attracts_nothing(self):
        spotless = profile("spotless", error_rate=0.0)
        result = allocate_budget([spotless], budget=100)
        assert result.units["spotless"] == 0
        assert result.spent == 0

    def test_render(self):
        profiles = [profile("a", error_rate=0.2)]
        result = allocate_budget(profiles, budget=2)
        text = result.render({p.name: p for p in profiles})
        assert "a:" in text and "unit(s)" in text


class TestMonitoringBridge:
    def test_profiles_from_defect_stats(self):
        stats = {"voice_decoder": (30, 200), "scanner": (1, 200)}
        profiles = profiles_from_monitoring(stats, weights={"scanner": 5.0})
        by_name = {p.name: p for p in profiles}
        assert by_name["voice_decoder"].error_rate == pytest.approx(0.15)
        assert by_name["scanner"].weight == 5.0

    def test_empty_dataset_skipped(self):
        assert profiles_from_monitoring({"empty": (0, 0)}) == []

    def test_end_to_end_with_pipeline(self):
        """Monitoring → allocation: the dirtier method gets the budget."""
        import datetime as dt

        from repro.manufacturing.collection import CollectionMethod
        from repro.manufacturing.generator import make_companies
        from repro.manufacturing.pipeline import ManufacturingPipeline
        from repro.manufacturing.sources import DataSource
        from repro.manufacturing.world import World
        from repro.relational.schema import schema

        world = World(dt.date(1991, 1, 1), make_companies(100, seed=2), seed=2)
        pipeline = ManufacturingPipeline(
            world,
            schema(
                "c",
                [("co_name", "STR"), ("address", "STR"), ("employees", "INT")],
                key=["co_name"],
            ),
            "co_name",
        )
        pipeline.assign(
            "address",
            DataSource("s1", world, error_rate=0.0, seed=2),
            CollectionMethod("scanner", 0.01, seed=2),
        )
        pipeline.assign(
            "employees",
            DataSource("s2", world, error_rate=0.0, seed=3),
            CollectionMethod("voice", 0.30, seed=3),
        )
        pipeline.manufacture()
        profiles = profiles_from_monitoring(pipeline.defect_counts_by_method())
        result = allocate_budget(profiles, budget=3)
        assert result.units["voice"] > result.units.get("scanner", 0)
