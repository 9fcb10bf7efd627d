"""The benchmark's own tests: input determinism and span arithmetic.

Run from the repository root with ``python -m pytest perfbench -q``.
They import nothing from the program under test.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from gen import INITIAL_ROWS, SCAN_PAIRS, Inputs
from spans import (
    READ_LAYERS,
    Recorder,
    Span,
    covered,
    layer_means,
    self_times,
    with_queue_waits,
)


def _fingerprint(inputs: Inputs, n: int = 200) -> tuple:
    return (
        inputs.rows,
        inputs.pairs,
        inputs.names_by_rank,
        tuple(itertools.islice(inputs.lookup_keys(0), n)),
        tuple(itertools.islice(inputs.lookup_keys(1), n)),
        tuple(itertools.islice(inputs.ingest_ops(), 20)),
    )


class TestInputs:
    def test_one_seed_gives_identical_inputs(self):
        assert _fingerprint(Inputs("ingest_mixed", 7)) == _fingerprint(
            Inputs("ingest_mixed", 7)
        )

    def test_two_seeds_differ_in_every_stream(self):
        first = _fingerprint(Inputs("ingest_mixed", 7))
        second = _fingerprint(Inputs("ingest_mixed", 8))
        for a, b in zip(first, second):
            assert a != b

    def test_sizes_and_shapes(self):
        inputs = Inputs("ingest_mixed", 3)
        assert len(inputs.rows) == INITIAL_ROWS["ingest_mixed"]
        assert len({row.co_name for row in inputs.rows}) == len(inputs.rows)
        assert len(inputs.pairs) == SCAN_PAIRS
        batch, pair = next(inputs.ingest_ops())
        # Ingested rows never reuse a name from the initial load.
        assert batch[0].co_name not in {row.co_name for row in inputs.rows}
        assert 0 <= pair < SCAN_PAIRS

    def test_zipf_keys_favour_low_ranks(self):
        inputs = Inputs("ingest_mixed", 5)
        keys = list(itertools.islice(inputs.lookup_keys(0), 5000))
        hottest = inputs.names_by_rank[0]
        assert keys.count(hottest) > keys.count(inputs.names_by_rank[100]) * 10

    def test_unknown_workload_is_rejected(self):
        with pytest.raises(ValueError):
            Inputs("nope", 1)


def span(sid, name, start, end, parent=None, rid=1, thread=1):
    return Span(sid, name, float(start), float(end), parent, rid, thread)


class TestSpanArithmetic:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered(0, 10, [(1, 5), (3, 7)]) == 6
        assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
        assert covered(0, 10, []) == 0

    def test_nested_spans(self):
        own = self_times(
            [
                span(1, "read", 0, 10),
                span(2, "a", 1, 4, parent=1),
                span(3, "b", 2, 3, parent=2),
            ]
        )
        assert own == {1: 7, 2: 2, 3: 1}

    def test_overlapping_children_are_not_subtracted_twice(self):
        own = self_times(
            [
                span(1, "read", 0, 10),
                span(2, "a", 1, 5, parent=1),
                span(3, "a", 3, 7, parent=1),
            ]
        )
        assert own[1] == 4

    def test_two_threads_sharing_one_request(self):
        # Client thread → HTTP handler thread → service worker thread.
        spans = [
            span(1, "read", 0, 10, thread=1),
            span(2, "service.http.handle", 1, 9, parent=1, thread=2),
            span(3, "service.core.execute", 2, 8, parent=2, thread=2),
            span(4, "service.core.submit", 2, 3, parent=3, thread=2),
            span(5, "sql.executor.execute", 4, 7, parent=3, thread=3),
        ]
        spans = with_queue_waits(spans, itertools.count(100).__next__)
        wait = [s for s in spans if s.name == "service.core.queue_wait"]
        assert [(w.start, w.end, w.parent, w.thread) for w in wait] == [(3, 4, 3, 3)]
        means, mean_root, reads = layer_means(spans, "read", "service.http.self_ms")
        assert reads == 1 and mean_root == 10_000
        assert means["service.http.self_ms"] == 4_000  # 2 on the client, 2 in the handler
        assert means["service.core.self_ms"] == 2_000  # execute 1 + submit 1
        assert means["service.core.queue_wait_ms"] == 1_000
        assert means["sql.executor.self_ms"] == 3_000
        assert sum(means.values()) == mean_root
        assert set(means) == set(READ_LAYERS.values())

    def test_unclaimed_root_time_is_left_over(self):
        spans = [
            span(1, "read", 0, 10),
            span(2, "service.core.execute", 1, 9, parent=1),
            span(3, "write", 20, 30, rid=2),
        ]
        means, mean_root, reads = layer_means(spans)
        assert reads == 1
        assert mean_root - sum(means.values()) == 2_000

    def test_worker_started_before_submit_returned_waited_nothing(self):
        spans = [
            span(1, "service.core.submit", 0, 3),
            span(2, "sql.executor.execute", 2, 5),
        ]
        assert with_queue_waits(spans, itertools.count(9).__next__) == spans


class TestRecorder:
    def test_request_id_follows_a_handoff_to_another_thread(self):
        recorder = Recorder()

        def worker(rid, parent):
            recorder.adopt(rid, parent)
            recorder.call("sql.executor.execute", lambda: None)

        def read():
            local = recorder.context()
            thread = threading.Thread(target=worker, args=(local.rid, local.stack[-1]))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

        recorder.root("read", read)
        root, child = sorted(recorder.spans, key=lambda s: s.start)
        assert root.parent is None and child.parent == root.sid
        assert child.rid == root.rid and child.thread != root.thread
        assert root.start <= child.start <= child.end <= root.end

    def test_wrapped_call_records_a_span_even_when_it_raises(self):
        recorder = Recorder()
        boom = recorder.wrap("sql.parser.parse", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            recorder.root("read", boom)
        assert sorted(s.name for s in recorder.spans) == ["read", "sql.parser.parse"]

    def test_full_once_it_holds_max_spans(self):
        recorder = Recorder(max_spans=2)
        recorder.root("read", lambda: None)
        assert not recorder.full()
        recorder.root("read", lambda: None)
        assert recorder.full()
