"""The embedded query service: sessions over a thread-pool worker model.

Execution model
---------------
A :class:`QueryService` owns one query source and a fixed pool of
worker threads behind a *bounded* admission queue:

- ``submit`` pins a snapshot of the source (see below), wraps the
  statement in a ticket, and enqueues it without blocking; when the
  queue is full the service **sheds load** by raising
  :class:`~repro.errors.ServiceOverloadedError` — callers back off and
  retry rather than piling onto an unbounded backlog;
- worker threads drain the queue and run each statement through the
  ordinary executor (:func:`repro.sql.executor.execute`), so every
  engine feature — strict analysis, the planner and its shared plan
  cache, batch execution, ``EXPLAIN [ANALYZE]`` — behaves exactly
  as in the embedded API.

Snapshot reads
--------------
Every submitted query executes against a frozen snapshot pinned at
submit time — :meth:`Database.snapshot
<repro.relational.catalog.Database.snapshot>` for catalogs,
:meth:`RowStore.read_snapshot
<repro.relational.relation.RowStore.read_snapshot>` for bare
relations.  Long analytical scans therefore never block writers and
never observe a write that committed after submission.  Sessions can
also :meth:`~Session.pin` explicitly to hold several statements to one
consistent version (and :meth:`~Session.refresh` to let go).

Metrics
-------
Each session keeps its own :class:`SessionStats`; while ambient
instrumentation is on (:func:`repro.obs.enable`) the service also
reports ``service.queries`` / ``service.errors`` /
``service.overloads`` counters and a ``service.latency_seconds``
histogram into the global registry, alongside the engine's own
``qsql.*`` metrics.
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future
from time import perf_counter
from typing import Any, Callable, Mapping, Optional, Union

from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.obs import metrics as _obs_metrics
from repro.relational.catalog import Database
from repro.relational.relation import RowStore
from repro.relational.snapshot import DatabaseSnapshot
from repro.sql.executor import execute as _execute

Source = Union[RowStore, Database, DatabaseSnapshot, Mapping[str, RowStore]]

#: Queue sentinel telling one worker thread to exit.
_SHUTDOWN = object()


def pin_snapshot(source: Source) -> Source:
    """A frozen, consistent view of ``source`` for one query.

    ``Database`` sources pin the whole catalog behind the transaction
    write gate; bare relations pin themselves; mappings pin each member
    relation (no cross-relation gate: a plain mapping has no
    transaction manager to coordinate with).  Already-frozen sources —
    a :class:`DatabaseSnapshot`, a frozen relation — are returned
    as-is.  Snapshots are version-cached, so pinning an unchanged
    source costs a token comparison, not a copy.
    """
    if isinstance(source, Database):
        return source.snapshot()
    if isinstance(source, RowStore):
        return source.read_snapshot()
    if isinstance(source, DatabaseSnapshot):
        return source
    if isinstance(source, Mapping):
        return {
            name: relation.read_snapshot()
            for name, relation in source.items()
        }
    raise TypeError(
        f"cannot snapshot query source of type {type(source).__name__}"
    )


class SessionStats:
    """Thread-safe per-session counters (one instance per session)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.executed = 0
        self.failed = 0
        self.rows = 0
        self.seconds = 0.0

    def _record(self, elapsed: float, rows: int, ok: bool) -> None:
        with self._lock:
            if ok:
                self.executed += 1
                self.rows += rows
            else:
                self.failed += 1
            self.seconds += elapsed

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "executed": self.executed,
                "failed": self.failed,
                "rows": self.rows,
                "seconds": self.seconds,
            }


class Ticket:
    """A handle on one submitted query (a thin wrapper over a Future)."""

    __slots__ = ("sql", "_future")

    def __init__(self, sql: str, future: "Future[RowStore]") -> None:
        self.sql = sql
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> RowStore:
        """Block until the query finishes; re-raises its exception."""
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)


class _Job:
    """One queued statement: text + pinned source + strictness + ticket."""

    __slots__ = ("sql", "source", "strict", "future", "stats")

    def __init__(
        self,
        sql: str,
        source: Source,
        strict: bool,
        future: "Future[RowStore]",
        stats: Optional[SessionStats],
    ) -> None:
        self.sql = sql
        self.source = source
        self.strict = strict
        self.future = future
        self.stats = stats


class QueryService:
    """A concurrent query front door over one source.

    Parameters
    ----------
    source:
        What queries run against: a :class:`Database`, a (tagged)
        relation, a name → relation mapping, or an already-frozen
        :class:`DatabaseSnapshot`.
    workers:
        Worker thread count (the execution concurrency).
    max_pending:
        Admission-queue bound.  ``submit`` with a full queue raises
        :class:`~repro.errors.ServiceOverloadedError` instead of
        waiting.
    snapshot_reads:
        When True (the default), every query is pinned to a frozen
        snapshot at submit time.  ``False`` executes against the live
        source — last-resort for callers that must read their own
        in-flight transaction.
    runner:
        Test hook: a callable wrapping each statement execution
        (default: call it).  Lets tests gate the workers to fill the
        queue deterministically.

    Example
    -------
    >>> from repro.relational.catalog import Database
    >>> from repro.relational.schema import schema
    >>> db = Database("corp")
    >>> _ = db.create_relation(schema("t", [("a", "INT")]))
    >>> _ = db.insert("t", {"a": 1})
    >>> with QueryService(db, workers=2) as svc:
    ...     with svc.session() as session:
    ...         [row["a"] for row in session.execute("SELECT a FROM t")]
    [1]
    """

    def __init__(
        self,
        source: Source,
        *,
        workers: int = 4,
        max_pending: int = 64,
        name: str = "query-service",
        snapshot_reads: bool = True,
        runner: Optional[Callable[[Callable[[], RowStore]], RowStore]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._source = source
        self.name = name
        self.snapshot_reads = snapshot_reads
        self._runner = runner if runner is not None else (lambda fn: fn())
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_pending)
        self._closed = threading.Event()
        self._session_ids = itertools.count(1)
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{name}-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- sessions --------------------------------------------------------------

    def session(self, *, strict: bool = False) -> "Session":
        """Open a session with this strictness default."""
        self._require_open()
        return Session(self, next(self._session_ids), strict=strict)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        sql: str,
        *,
        strict: bool = False,
        snapshot: Optional[Source] = None,
        stats: Optional[SessionStats] = None,
    ) -> Ticket:
        """Enqueue one statement; returns immediately with a ticket.

        The source snapshot is pinned *here*, not when a worker picks
        the job up — a write committed after ``submit`` returns is
        invisible to this query no matter how long it waits or runs.
        """
        self._require_open()
        if snapshot is not None:
            pinned = snapshot
        elif self.snapshot_reads:
            pinned = pin_snapshot(self._source)
        else:
            pinned = self._source
        future: "Future[RowStore]" = Future()
        job = _Job(sql, pinned, strict, future, stats)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._stats_lock:
                self._rejected += 1
            if _obs_metrics.enabled():
                _obs_metrics.global_registry().counter(
                    "service.overloads",
                    "queries rejected by admission control",
                ).inc()
            raise ServiceOverloadedError(
                f"service {self.name!r} is overloaded: "
                f"{self._queue.maxsize} queries already pending"
            ) from None
        with self._stats_lock:
            self._submitted += 1
        return Ticket(sql, future)

    def execute(self, sql: str, **options: Any) -> RowStore:
        """Submit and wait: the blocking convenience path."""
        return self.submit(sql, **options).result()

    # -- workers ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is _SHUTDOWN:
                    return
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: _Job) -> None:
        if not job.future.set_running_or_notify_cancel():
            return
        start = perf_counter()
        try:
            result = self._runner(
                lambda: _execute(job.sql, job.source, strict=job.strict)
            )
        except BaseException as exc:
            self._note_finished(job, perf_counter() - start, rows=0, error=True)
            job.future.set_exception(exc)
        else:
            self._note_finished(
                job, perf_counter() - start, rows=len(result), error=False
            )
            job.future.set_result(result)

    def _note_finished(
        self, job: _Job, elapsed: float, rows: int, error: bool
    ) -> None:
        with self._stats_lock:
            if error:
                self._failed += 1
            else:
                self._completed += 1
        if job.stats is not None:
            job.stats._record(elapsed, rows, ok=not error)
        if _obs_metrics.enabled():
            registry = _obs_metrics.global_registry()
            if error:
                registry.counter(
                    "service.errors", "service queries raising an error"
                ).inc()
            else:
                registry.counter(
                    "service.queries", "service queries completed"
                ).inc()
            registry.histogram(
                "service.latency_seconds",
                description="wall time per service query execution",
            ).observe(elapsed)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service-level counters plus the current queue depth."""
        with self._stats_lock:
            return {
                "name": self.name,
                "workers": len(self._workers),
                "max_pending": self._queue.maxsize,
                "pending": self._queue.qsize(),
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "rejected": self._rejected,
                "closed": self._closed.is_set(),
            }

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _require_open(self) -> None:
        if self._closed.is_set():
            raise ServiceClosedError(f"service {self.name!r} is closed")

    # -- lifecycle -------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop admitting queries and shut the workers down.

        Already-queued queries still run to completion (the shutdown
        sentinels queue *behind* them); ``wait=True`` joins the worker
        threads.  Idempotent.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class Session:
    """One caller's handle on a :class:`QueryService`.

    Sessions carry a ``strict`` default, per-session
    :class:`SessionStats`, and an optional
    explicit snapshot pin.  They are cheap (no dedicated thread) and
    are context managers::

        with service.session(strict=True) as session:
            rows = session.execute("SELECT a FROM t")
    """

    def __init__(
        self,
        service: QueryService,
        session_id: int,
        *,
        strict: bool,
    ) -> None:
        self._service = service
        self.session_id = session_id
        self.strict = strict
        self.stats = SessionStats()
        self._pinned: Optional[Source] = None
        self._closed = False

    # -- pinning ---------------------------------------------------------------

    @property
    def pinned(self) -> Optional[Source]:
        """The explicitly pinned snapshot, or None (pin per statement)."""
        return self._pinned

    def pin(self) -> Source:
        """Pin the source *now*; later statements all read this version."""
        self._require_open()
        self._pinned = pin_snapshot(self._service._source)
        return self._pinned

    def refresh(self) -> None:
        """Drop the explicit pin: statements pin fresh at submit again."""
        self._pinned = None

    # -- execution -------------------------------------------------------------

    def submit(self, sql: str, *, strict: Optional[bool] = None) -> Ticket:
        """Enqueue one statement under this session's defaults."""
        self._require_open()
        return self._service.submit(
            sql,
            strict=self.strict if strict is None else strict,
            snapshot=self._pinned,
            stats=self.stats,
        )

    def execute(self, sql: str, **options: Any) -> RowStore:
        """Submit and wait for one statement."""
        return self.submit(sql, **options).result()

    def explain(self, sql: str, analyze: bool = False) -> RowStore:
        """The plan (or executed-plan) relation for a statement."""
        keyword = "EXPLAIN ANALYZE" if analyze else "EXPLAIN"
        return self.execute(f"{keyword} {sql}")

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                f"session {self.session_id} of service "
                f"{self._service.name!r} is closed"
            )

    def close(self) -> None:
        """Close the session; its stats stay readable."""
        self._closed = True
        self._pinned = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()
