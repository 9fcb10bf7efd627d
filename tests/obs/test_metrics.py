"""Metric instruments: semantics, bucketing, thread safety, exporters."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc(1)
        assert gauge.value == 7


class TestHistogram:
    def test_bucketing_places_each_observation_once(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        for value in (0.5, 1.0, 1.1, 5.0, 7.0, 10.0, 11.0, 99.0):
            histogram.observe(value)
        # <=1: {0.5, 1.0}; <=5: {1.1, 5.0}; <=10: {7.0, 10.0}; +Inf: rest
        assert histogram.bucket_counts == (2, 2, 2, 2)
        assert histogram.cumulative_counts() == (2, 4, 6, 8)
        assert histogram.count == 8
        assert histogram.sum == pytest.approx(134.6)
        assert histogram.mean() == pytest.approx(134.6 / 8)

    def test_boundary_is_inclusive(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(1.0)
        assert histogram.bucket_counts == (1, 0)

    def test_empty_mean_is_none(self):
        assert Histogram("h", buckets=(1,)).mean() is None

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5, 1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.get("a") is registry.counter("a")
        assert registry.get("missing") is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.histogram("h", buckets=(1,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["a"] == {"kind": "counter", "value": 3.0}
        assert snap["h"]["count"] == 1
        registry.reset()
        assert registry.counter("a").value == 0
        assert registry.histogram("h", buckets=(1,)).count == 0

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("lat", buckets=(0.5,))
        per_thread, n_threads = 1000, 8

        def work():
            for i in range(per_thread):
                counter.inc()
                histogram.observe(i % 2)  # alternates the two buckets

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = per_thread * n_threads
        assert counter.value == total
        assert histogram.count == total
        assert sum(histogram.bucket_counts) == total


class TestEnabledFlag:
    def test_off_by_default_and_context_restores(self):
        assert not obs_metrics.enabled()
        with obs_metrics.instrumented() as registry:
            assert obs_metrics.enabled()
            assert registry is obs_metrics.global_registry()
            with obs_metrics.instrumented():
                assert obs_metrics.enabled()
            # The inner exit must not switch off an outer block.
            assert obs_metrics.enabled()
        assert not obs_metrics.enabled()

    def test_leaving_one_block_keeps_a_concurrent_block_on(self):
        # A enters, B enters, A leaves: B's block must still read on.
        a_entered, b_entered, a_left = (threading.Event() for _ in range(3))
        seen: list[bool] = []

        def thread_a():
            with obs_metrics.instrumented():
                a_entered.set()
                b_entered.wait(5)
            a_left.set()

        def thread_b():
            a_entered.wait(5)
            with obs_metrics.instrumented():
                b_entered.set()
                a_left.wait(5)
                seen.append(obs_metrics.enabled())

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == [True]
        assert not obs_metrics.enabled()

    def test_explicit_enable_outlives_blocks_and_disable_ends_it(self):
        obs_metrics.enable()
        try:
            with obs_metrics.instrumented():
                assert obs_metrics.enabled()
            assert obs_metrics.enabled()
        finally:
            obs_metrics.disable()
        assert not obs_metrics.enabled()


class TestExporters:
    def build(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("qsql.plancache.hits", "cache hits").inc(4)
        registry.gauge("pool.size").set(2)
        histogram = registry.histogram("qsql.latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_json_round_trips(self):
        data = json.loads(to_json(self.build()))
        assert data["qsql.plancache.hits"]["value"] == 4
        assert data["qsql.latency"]["counts"] == [1, 0, 1]

    def test_prometheus_text_format(self):
        text = to_prometheus(self.build())
        assert "# TYPE qsql_plancache_hits counter" in text
        assert "qsql_plancache_hits 4" in text
        assert "# HELP qsql_plancache_hits cache hits" in text
        assert "pool_size 2" in text
        assert 'qsql_latency_bucket{le="0.1"} 1' in text
        assert 'qsql_latency_bucket{le="+Inf"} 2' in text
        assert "qsql_latency_count 2" in text

    def test_prometheus_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""
