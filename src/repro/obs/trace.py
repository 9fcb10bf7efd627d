"""A span-based tracer with a context-manager API.

Spans time nested phases of work — the plan cache uses them to account
for parse → plan → compile on a cold statement.  Nesting is tracked
per thread (a thread-local span stack), so concurrent queries trace
independently; the tracer keeps the :data:`KEPT_ROOTS` most recently
finished *root* spans (older ones drop) until :meth:`Tracer.clear`.

Like the metric sinks, ambient tracing is wired through the
:func:`repro.obs.metrics.enabled` flag at the call sites; the tracer
itself is always usable directly::

    tracer = Tracer()
    with tracer.span("load"):
        with tracer.span("parse", statements=3):
            ...
    print("\\n".join(tracer.render_lines()))
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = ["KEPT_ROOTS", "Span", "Tracer", "global_tracer"]

#: Finished root spans a tracer keeps, newest last; older ones drop, so
#: a long-running process with tracing on holds a bounded span history.
KEPT_ROOTS = 256


class Span:
    """One timed phase; children are spans opened while it was active."""

    __slots__ = ("name", "attributes", "children", "start", "end", "error")

    def __init__(self, name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def seconds(self) -> float:
        if self.end is None:
            return time.perf_counter() - self.start
        return self.end - self.start

    def snapshot(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
        }
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.error is not None:
            data["error"] = self.error
        if self.children:
            data["children"] = [child.snapshot() for child in self.children]
        return data

    def __repr__(self) -> str:
        return f"Span({self.name}, {self.seconds * 1e3:.3f} ms)"


class Tracer:
    """Collects span trees; nesting follows the per-thread call stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._roots: deque[Span] = deque(maxlen=KEPT_ROOTS)
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block.

        The span becomes a child of the innermost open span on this
        thread (or a new root).  Exceptions propagate; the span records
        the exception type in ``error`` and still closes.
        """
        stack = self._stack()
        span = Span(name, attributes)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if not stack:
                with self._lock:
                    self._roots.append(span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> tuple[Span, ...]:
        """The most recent finished root spans, oldest first."""
        with self._lock:
            return tuple(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def render_lines(self) -> list[str]:
        """The collected span trees as indented text lines."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = "".join(
                f" {key}={value!r}"
                for key, value in sorted(span.attributes.items())
            )
            error = f" error={span.error}" if span.error else ""
            lines.append(
                f"{'  ' * depth}{span.name}: "
                f"{span.seconds * 1e3:.3f} ms{attrs}{error}"
            )
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return lines

    def __repr__(self) -> str:
        return f"Tracer({len(self._roots)} root spans)"


_GLOBAL_TRACER = Tracer()


def global_tracer() -> Tracer:
    """The process-wide tracer the plan cache reports into."""
    return _GLOBAL_TRACER
