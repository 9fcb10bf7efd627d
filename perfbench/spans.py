"""Outside-in tracing for the benchmark's traced run.

The program carries no request-scoped tracing yet, so the benchmark
wraps the calls into each layer from its own side (``probes.py``).
Each name is patched where its caller looks it up (for example
``repro.sql.plancache.parse``, not ``repro.sql.parser.parse``), and
every wrapper records one span in memory: id, name, start, end, parent
and request id.  The request id follows a read from the client thread
through the HTTP handler thread (an ``X-Bench-Request`` header) to the
service worker (captured on the queued job).

A layer's self time is its span's duration minus the part of it that
its child spans cover; children may overlap and may run on another
thread.  :func:`layer_means` turns a run's spans into mean self time
per read for each layer.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Optional

#: HTTP headers carrying the client's request id and root span id.
REQUEST_HEADER = "X-Bench-Request"
PARENT_HEADER = "X-Bench-Parent"

#: Span name → the per-layer metric its self time counts toward.  Only
#: spans of reads count; ``read`` is the client's root span and counts
#: toward the HTTP layer only when the read went over HTTP.
READ_LAYERS = {
    "service.http.handle": "service.http.self_ms",
    "service.http.payload": "service.http.payload_ms",
    "service.core.execute": "service.core.self_ms",
    "service.core.submit": "service.core.self_ms",
    "service.core.queue_wait": "service.core.queue_wait_ms",
    "service.core.pin": "service.core.pin_ms",
    "sql.executor.execute": "sql.executor.self_ms",
    "sql.plancache.lookup": "sql.plancache.lookup_ms",
    "sql.parser.parse": "sql.parser.parse_ms",
    "analysis.query.strict": "analysis.query.strict_ms",
    "sql.optimizer.plan": "sql.optimizer.plan_ms",
    "sql.physical.compile": "sql.physical.compile_ms",
    "sql.physical.execute": "sql.physical.execute_ms",
    "tagging.columnar.build": "tagging.columnar.build_ms",
    "tagging.columnar.scan": "tagging.columnar.scan_ms",
    "quality.materialize.filter": "quality.materialize.filter_ms",
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[int]
    thread: int


class Recorder:
    """Collects spans in memory; one per traced phase.

    A traced phase stops issuing requests once the recorder is
    :meth:`full`, so a fast program cannot grow the span list without
    bound.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.spans: list[Span] = []
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self._local = threading.local()

    def full(self) -> bool:
        return len(self.spans) >= self.max_spans

    def new_id(self) -> int:
        return next(self._ids)

    def context(self) -> threading.local:
        """This thread's request context: request id, span stack, and
        the span a thread-root span hangs under (another thread's)."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.foreign_parent = None
        return local

    def adopt(self, rid: Optional[int], parent: Optional[int]) -> None:
        """Make this thread continue request ``rid`` under ``parent``."""
        local = self.context()
        local.rid = rid
        local.foreign_parent = parent

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        local = self.context()
        stack = local.stack
        parent = stack[-1] if stack else local.foreign_parent
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, local.rid, threading.get_ident())
            )

    def root(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` as a new request: a root span with a fresh id."""
        local = self.context()
        local.rid = next(self._ids)
        local.foreign_parent = None
        try:
            return self.call(name, fn, *args)
        finally:
            local.rid = None

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper


# -- span arithmetic ------------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.sid, ()))
        for span in spans
    }


def with_queue_waits(spans: list[Span], new_id: Callable[[], int]) -> list[Span]:
    """Add one derived ``service.core.queue_wait`` span per request: from
    ``submit`` returning to the worker's call into the executor.  It is a
    child of the span that waited for the job (the executor span's
    parent); a worker that started before ``submit`` returned waited 0."""
    submits: dict[int, Span] = {}
    runs: dict[int, Span] = {}
    for span in spans:
        if span.rid is None:
            continue
        if span.name == "service.core.submit":
            submits[span.rid] = span
        elif span.name == "sql.executor.execute":
            runs[span.rid] = span
    derived = []
    for rid, run in runs.items():
        submit = submits.get(rid)
        if submit is not None and run.start > submit.end:
            derived.append(
                Span(
                    new_id(),
                    "service.core.queue_wait",
                    submit.end,
                    run.start,
                    run.parent,
                    rid,
                    run.thread,
                )
            )
    return spans + derived


def layer_means(
    spans: list[Span], root: str = "read", root_layer: Optional[str] = None
) -> tuple[dict[str, float], float, int]:
    """Mean self time per read (ms) of each read layer.

    Returns ``(layer → ms, mean root duration in ms, reads)``.  A root's
    own self time counts toward ``root_layer`` when given, else it is
    left unclaimed.
    """
    roots = [span for span in spans if span.name == root and span.parent is None]
    rids = {span.rid for span in roots}
    own = self_times(span for span in spans if span.rid in rids)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.rid not in rids:
            continue
        layer = READ_LAYERS.get(span.name)
        if span.name == root and span.parent is None:
            layer = root_layer
        if layer is not None:
            totals[layer] += own[span.sid]
    reads = len(roots)
    if not reads:
        return {layer: 0.0 for layer in set(READ_LAYERS.values())}, 0.0, 0
    means = {layer: totals.get(layer, 0.0) * 1e3 / reads for layer in set(READ_LAYERS.values())}
    mean_root = sum(span.end - span.start for span in roots) * 1e3 / reads
    return means, mean_root, reads
