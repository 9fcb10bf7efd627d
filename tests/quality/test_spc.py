"""Unit tests for statistical process control."""

import pytest

from repro.errors import QualityError
from repro.quality.spc import p_chart, xbar_r_charts


class TestPChart:
    def test_in_control_process_no_signals(self):
        chart = p_chart([2, 3, 2, 3, 2, 3, 2, 3], [100] * 8)
        assert chart.signals == []
        assert chart.first_signal_index() is None

    def test_step_change_detected(self):
        counts = [2, 3, 2, 1, 2, 3, 2, 2] + [12, 11, 13]
        chart = p_chart(counts, [100] * 11, baseline_samples=8)
        assert chart.first_signal_index() == 8

    def test_center_line_from_baseline(self):
        chart = p_chart([5, 5, 50], [100] * 3, baseline_samples=2)
        assert chart.center == pytest.approx(0.05)

    def test_run_rule_detects_shift_within_limits(self):
        # Nine samples slightly above a 0.10 baseline: each within 3σ,
        # but the run of eight on one side signals.
        baseline = [10, 10, 10, 10, 10, 10, 10, 10, 10, 10]
        shifted = [13] * 9
        chart = p_chart(
            baseline + shifted, [200] * 19, baseline_samples=10
        )
        run_signals = [p for p in chart.signals if "run" in p.rule]
        assert run_signals

    def test_run_rule_can_be_disabled(self):
        baseline = [10] * 10
        shifted = [13] * 9
        chart = p_chart(
            baseline + shifted, [200] * 19, baseline_samples=10, run_rule=False
        )
        assert all("run" not in p.rule for p in chart.signals)

    def test_validation(self):
        with pytest.raises(QualityError):
            p_chart([], [])
        with pytest.raises(QualityError):
            p_chart([1], [0])
        with pytest.raises(QualityError):
            p_chart([5], [4])
        with pytest.raises(QualityError):
            p_chart([1, 2], [10])

    def test_limits_clamped_to_unit_interval(self):
        chart = p_chart([0, 0, 1], [10] * 3)
        assert all(p.lower >= 0.0 and p.upper <= 1.0 for p in chart.points)

    def test_render(self):
        chart = p_chart([2, 3, 12], [100] * 3, baseline_samples=2)
        text = chart.render()
        assert "p-chart" in text
        assert "OUT" in text


class TestXbarRCharts:
    def test_stable_process(self):
        groups = [[10.0, 10.1, 9.9]] * 10
        xbar, r = xbar_r_charts(groups)
        assert xbar.signals == []
        assert r.signals == []

    def test_mean_shift_detected_on_xbar(self):
        stable = [[10.0, 10.1, 9.9], [10.05, 9.95, 10.0]] * 4
        shifted = [[12.0, 12.1, 11.9]]
        xbar, _ = xbar_r_charts(stable + shifted, baseline_samples=8)
        assert xbar.first_signal_index() == 8

    def test_variance_blowup_detected_on_r(self):
        stable = [[10.0, 10.1, 9.9]] * 8
        noisy = [[8.0, 12.0, 10.0]]
        _, r = xbar_r_charts(stable + noisy, baseline_samples=8)
        assert r.first_signal_index() == 8

    def test_subgroup_size_bounds(self):
        with pytest.raises(QualityError):
            xbar_r_charts([[1.0]])  # n=1 unsupported
        with pytest.raises(QualityError):
            xbar_r_charts([[1.0] * 9])  # n=9 unsupported

    def test_ragged_subgroups_rejected(self):
        with pytest.raises(QualityError):
            xbar_r_charts([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_empty_rejected(self):
        with pytest.raises(QualityError):
            xbar_r_charts([])


class TestManufacturingIntegration:
    def test_degraded_device_flagged(self):
        """E5's shape: a collection device degrades mid-stream and the
        p-chart flags it after the step change."""
        import datetime as dt

        from repro.manufacturing.collection import CollectionMethod
        from repro.manufacturing.generator import make_companies
        from repro.manufacturing.pipeline import ManufacturingPipeline
        from repro.manufacturing.sources import DataSource
        from repro.manufacturing.world import World
        from repro.relational.schema import schema

        companies = make_companies(150, seed=3)
        world = World(dt.date(1991, 1, 1), companies, seed=3)
        method = CollectionMethod("scanner", 0.01, seed=3)
        source = DataSource("registry", world, error_rate=0.0, seed=3)
        pipeline = ManufacturingPipeline(
            world,
            schema("c", [("co_name", "STR"), ("address", "STR")], key=["co_name"]),
            "co_name",
        )
        pipeline.assign("address", source, method)
        keys = list(world.keys)
        pipeline.manufacture(keys=keys[:100])
        method.degrade(0.5)  # the device fails
        pipeline.manufacture(keys=keys[100:150])

        counts, sizes = pipeline.defect_counts_by_batch(25)
        chart = p_chart(counts, sizes, baseline_samples=4)
        signal = chart.first_signal_index()
        assert signal is not None and signal >= 4
