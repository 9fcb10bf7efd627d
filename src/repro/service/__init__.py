"""Concurrent query service: sessions, admission control, snapshot reads.

The paper's quality-tagged relational model only matters operationally
when many applications query it at once (the ROADMAP's "millions of
users" north star).  This package is that front door, in two layers:

- :mod:`repro.service.core` — the embedded :class:`QueryService`:
  a thread-pool worker model over one source (``Database``, relation,
  or mapping), a bounded admission queue that sheds load with
  :class:`~repro.errors.ServiceOverloadedError` instead of queueing
  unboundedly, per-session statistics wired into :mod:`repro.obs`,
  and copy-on-write **snapshot reads** — every query is pinned at
  submit time to a frozen catalog/relation version
  (:meth:`Database.snapshot <repro.relational.catalog.Database.snapshot>`),
  so long analytical QSQL statements never block writers and never
  observe a mid-scan write;
- :mod:`repro.service.http` — a zero-dependency ``http.server`` front
  end (``python -m repro.service``) exposing ``POST /query`` plus
  ``GET /health``, ``/stats``, and ``/metrics`` (Prometheus text).

Both honor the executor's ``strict=`` option and ``EXPLAIN`` /
``EXPLAIN ANALYZE`` statements.
"""

from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.core import (
    QueryService,
    Session,
    SessionStats,
    Ticket,
    pin_snapshot,
)

__all__ = [
    "QueryService",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "Session",
    "SessionStats",
    "Ticket",
    "pin_snapshot",
]
