"""Span tracer: nesting, exception safety, rendering, thread isolation."""

from __future__ import annotations

import threading

import pytest

from repro.obs.trace import Tracer, global_tracer


def test_nesting_builds_parent_child_tree():
    tracer = Tracer()
    with tracer.span("parse", sql="SELECT 1"):
        with tracer.span("plan"):
            pass
        with tracer.span("compile"):
            pass
    (root,) = tracer.roots()
    assert root.name == "parse"
    assert root.attributes == {"sql": "SELECT 1"}
    assert [child.name for child in root.children] == ["plan", "compile"]
    assert root.children[0].children == []
    assert root.error is None
    assert root.seconds >= 0.0


def test_current_tracks_the_open_span():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("outer") as outer:
        assert tracer.current() is outer
        with tracer.span("inner") as inner:
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None


def test_exception_closes_span_and_records_error():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError("boom")
    (root,) = tracer.roots()
    assert root.error == "RuntimeError"
    assert root.children[0].error == "RuntimeError"
    # The stack unwound: new spans start fresh roots, not orphans.
    with tracer.span("next"):
        pass
    assert [span.name for span in tracer.roots()] == ["outer", "next"]


def test_render_lines_indents_children():
    tracer = Tracer()
    with tracer.span("qsql.parse"):
        with tracer.span("qsql.plan", relation="t"):
            pass
    lines = tracer.render_lines()
    assert lines[0].startswith("qsql.parse:")
    assert lines[0].endswith("ms")
    assert lines[1].startswith("  qsql.plan:")
    assert "relation='t'" in lines[1]


def test_clear_discards_finished_spans():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    tracer.clear()
    assert list(tracer.roots()) == []
    assert tracer.render_lines() == []


def test_threads_do_not_share_span_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2)
    errors = []

    def work(name):
        try:
            with tracer.span(name) as span:
                barrier.wait(timeout=5)
                # Each thread sees only its own open span.
                assert tracer.current() is span
                barrier.wait(timeout=5)
        except Exception as exc:  # pragma: no cover - diagnostic aid
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert sorted(span.name for span in tracer.roots()) == ["t0", "t1"]


def test_global_tracer_is_a_singleton():
    assert global_tracer() is global_tracer()


def test_cold_statements_keep_only_the_newest_roots():
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import KEPT_ROOTS
    from repro.relational.relation import Relation
    from repro.relational.schema import schema
    from repro.sql import clear_plan_cache, execute

    relation = Relation.from_tuples(schema("t", [("a", "INT")]), [(1,), (2,)])
    tracer = global_tracer()
    tracer.clear()
    clear_plan_cache()
    try:
        # Each cold statement leaves parse, plan and compile roots.
        with obs_metrics.instrumented():
            for i in range(KEPT_ROOTS):
                execute(f"SELECT a FROM t WHERE a = {i}", relation)
            execute("SELECT a FROM t WHERE a > 0", relation)
        roots = tracer.roots()
    finally:
        tracer.clear()
        clear_plan_cache()
    assert len(roots) == KEPT_ROOTS
    ends = [root.end for root in roots]
    assert ends == sorted(ends)
    assert [root.name for root in roots[-3:]] == [
        "qsql.parse", "qsql.plan", "qsql.compile",
    ]
