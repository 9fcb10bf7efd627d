"""The traced run's wrappers around the program's layers, and its counts.

:class:`Probes` patches each traced name where its caller looks it up,
records spans into a :class:`~spans.Recorder`, and gathers the counts
the spans cannot give: snapshot pins that returned a new snapshot,
rows scanned per row returned (from the program's own per-operator
``ExecutionStats``), garbage-collector pauses, and the changes in the
plan cache's, the analysis memo's and ``repro.obs``'s counters.  The
``repro.obs`` counters are switched on only while probes are installed.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter
from typing import Any, Optional

import repro.service.core as service_core
import repro.service.http as service_http
import repro.sql.plancache as plancache
from repro.obs import metrics as obs_metrics
from repro.sql.plancache import default_analysis_memo, plan_cache_stats
from repro.obs.trace import global_tracer
from repro.quality.materialize import ScoreMaterializer
from repro.sql.physical import CompiledPlan
from repro.tagging.columnar import ColumnarTagStore
from repro.tagging.relation import TaggedRelation

from spans import PARENT_HEADER, REQUEST_HEADER, Recorder

#: ``repro.obs`` counters read as deltas over a traced phase.
OBS_COUNTERS = ("partition.pruned", "scores.recomputed", "scores.reused")


def _header_int(headers: Any, name: str) -> Optional[int]:
    value = headers.get(name)
    return int(value) if value else None


class Probes:
    """Installs the traced phase's wrappers; ``remove()`` restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._last_snapshot: Any = None
        self._gc_start = 0.0
        self.new_snapshots = 0
        self.executions = 0
        self.rows_examined = 0
        self.rows_returned = 0
        self.gc_pause_seconds = 0.0
        self.gc_collections = 0
        self.gc_full_collections = 0
        self._before: dict[str, Any] = {}
        #: Set by :meth:`remove`: (hits, misses) of the plan cache and of
        #: the analysis memo, and ``repro.obs`` counter deltas.
        self.plan_hits = (0, 0)
        self.memo_hits = (0, 0)
        self.obs: dict[str, float] = {}

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _wrap(self, owner: Any, name: str, span: str) -> None:
        self._patch(owner, name, self.recorder.wrap(span, getattr(owner, name)))

    def install(self) -> "Probes":
        rec = self.recorder
        handler = service_http._ServiceRequestHandler
        do_post = handler.do_POST

        def traced_do_post(request_handler: Any) -> None:
            # The client's request id and root span arrive as headers.
            rec.adopt(
                _header_int(request_handler.headers, REQUEST_HEADER),
                _header_int(request_handler.headers, PARENT_HEADER),
            )
            try:
                rec.call("service.http.handle", do_post, request_handler)
            finally:
                rec.adopt(None, None)

        self._patch(handler, "do_POST", traced_do_post)
        self._wrap(service_http, "relation_to_payload", "service.http.payload")
        self._wrap(service_core.QueryService, "execute", "service.core.execute")
        self._wrap(service_core.Session, "execute", "service.core.execute")
        self._wrap(service_core.QueryService, "submit", "service.core.submit")

        pin = service_core.pin_snapshot

        def traced_pin(source: Any) -> Any:
            snapshot = rec.call("service.core.pin", pin, source)
            with self._lock:
                if snapshot is not self._last_snapshot:
                    self.new_snapshots += 1
                    self._last_snapshot = snapshot
            return snapshot

        self._patch(service_core, "pin_snapshot", traced_pin)

        class TracedJob(service_core._Job):
            """A queued job that remembers which request queued it."""

            __slots__ = ("bench_context",)

            def __init__(job, *args: Any) -> None:
                super().__init__(*args)
                local = rec.context()
                stack = local.stack
                # Jobs are built inside the submit span, which ends before
                # the job runs: the worker's spans hang under the span that
                # waits for the result (the one that called submit).
                if len(stack) >= 2:
                    waiter = stack[-2]
                else:
                    waiter = stack[-1] if stack else local.foreign_parent
                job.bench_context = (local.rid, waiter)

        self._patch(service_core, "_Job", TracedJob)
        run_job = service_core.QueryService._run_job

        def traced_run_job(service: Any, job: Any) -> None:
            rec.adopt(*getattr(job, "bench_context", (None, None)))
            try:
                run_job(service, job)
            finally:
                rec.adopt(None, None)

        self._patch(service_core.QueryService, "_run_job", traced_run_job)
        self._wrap(service_core, "_execute", "sql.executor.execute")
        self._wrap(plancache.PlanCache, "lookup", "sql.plancache.lookup")
        self._wrap(plancache, "parse", "sql.parser.parse")
        self._wrap(plancache, "run_strict_analysis", "analysis.query.strict")
        self._wrap(plancache, "plan_statement", "sql.optimizer.plan")
        self._wrap(plancache, "compile_plan", "sql.physical.compile")

        execute_plan = CompiledPlan.execute

        def traced_execute(plan: CompiledPlan, binding: Any, stats: Any = None) -> Any:
            # A per-call stats tree gives rows scanned at the leaf Scan.
            if stats is None:
                stats = plan.new_stats()
            result = rec.call("sql.physical.execute", execute_plan, plan, binding, stats)
            scan = stats.operator("Scan")
            with self._lock:
                self.executions += 1
                self.rows_examined += scan.rows_out if scan is not None else 0
                self.rows_returned += len(result)
            return result

        self._patch(CompiledPlan, "execute", traced_execute)
        build = ColumnarTagStore.__dict__["from_tagged_relation"].__func__
        self._patch(
            ColumnarTagStore,
            "from_tagged_relation",
            classmethod(rec.wrap("tagging.columnar.build", build)),
        )
        self._wrap(ColumnarTagStore, "scan", "tagging.columnar.scan")
        self._wrap(ScoreMaterializer, "filter_indices", "quality.materialize.filter")
        self._wrap(TaggedRelation, "insert_many", "tagging.relation.insert")

        self._before = self._counters()
        obs_metrics.enable()
        gc.callbacks.append(self._on_gc)
        return self

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        obs_metrics.disable()
        after = self._counters()
        before = self._before

        def hits(name: str) -> tuple[int, int]:
            return (
                after[name]["hits"] - before[name]["hits"],
                after[name]["misses"] - before[name]["misses"],
            )

        self.plan_hits = hits("plans")
        self.memo_hits = hits("memo")
        self.obs = {name: after[name] - before[name] for name in OBS_COUNTERS}
        # The program's own tracer keeps cold-statement spans while obs
        # is on; drop them so they do not outlive the phase.
        global_tracer().clear()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._last_snapshot = None

    # -- counts -------------------------------------------------------------------

    def expect_snapshot(self, snapshot: Any) -> None:
        """The snapshot pinned before the phase: pinning it again is not new."""
        self._last_snapshot = snapshot

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_pause_seconds += perf_counter() - self._gc_start
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_full_collections += 1

    @staticmethod
    def _counters() -> dict[str, Any]:
        registry = obs_metrics.global_registry()
        counters: dict[str, Any] = {
            name: registry.counter(name).value for name in OBS_COUNTERS
        }
        counters["plans"] = plan_cache_stats()
        counters["memo"] = default_analysis_memo().stats()
        return counters


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
