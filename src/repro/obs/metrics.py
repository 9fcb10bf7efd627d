"""Thread-safe, zero-dependency metric instruments and their registry.

Three instrument kinds, mirroring the Prometheus vocabulary:

- :class:`Counter` — a monotonically increasing total;
- :class:`Gauge` — a value that can move both ways;
- :class:`Histogram` — observation counts in explicit ascending
  buckets, plus a running sum and count.

Instruments are owned by a :class:`MetricsRegistry`; ``counter()`` /
``gauge()`` / ``histogram()`` are get-or-create, so call sites never
coordinate registration.  The process-wide registry behind
:func:`global_registry` is what the engine layers (plan cache, derived
arrays, columnar tag scans, polygen join) report into — but only when
the module-level instrumentation flag is on (:func:`enable` /
:func:`enabled`), which keeps the disabled hot path at one boolean
check per batch.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "disable",
    "enable",
    "enabled",
    "global_registry",
    "instrumented",
]

# -- the instrumentation flag -------------------------------------------------

#: What :func:`enabled` reads: an explicit :func:`enable` is in force, or
#: at least one :func:`instrumented` block is open (on any thread).
_ENABLED = False
_explicit = False
_open_blocks = 0
_flag_lock = threading.Lock()


def _set_flag(explicit: bool, open_blocks: int) -> None:
    """Record the flag's inputs and recompute it (under ``_flag_lock``)."""
    global _ENABLED, _explicit, _open_blocks
    _explicit, _open_blocks = explicit, open_blocks
    _ENABLED = explicit or open_blocks > 0


def enabled() -> bool:
    """True when ambient instrumentation is switched on."""
    return _ENABLED


def enable() -> None:
    """Switch ambient instrumentation on (engine layers start reporting)."""
    with _flag_lock:
        _set_flag(True, _open_blocks)


def disable() -> None:
    """Switch explicit instrumentation off (the default); open
    :func:`instrumented` blocks keep it on until they close."""
    with _flag_lock:
        _set_flag(False, _open_blocks)


@contextmanager
def instrumented() -> Iterator["MetricsRegistry"]:
    """Enable instrumentation for a ``with`` block; yields the global
    registry.  Blocks count: leaving one never switches metrics off for
    another still open, on this thread or a concurrent one."""
    with _flag_lock:
        _set_flag(_explicit, _open_blocks + 1)
    try:
        yield global_registry()
    finally:
        with _flag_lock:
            _set_flag(_explicit, _open_blocks - 1)


# -- instruments --------------------------------------------------------------


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "description", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self._value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can move both ways (e.g. cache size)."""

    __slots__ = ("name", "description", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self._value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


#: Default histogram buckets: latency-shaped, in seconds.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Buckets for ratios in [0, 1] (selectivities, hit rates).
RATIO_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


class Histogram:
    """Observation counts in explicit ascending buckets.

    ``counts[i]`` is the number of observations with
    ``value <= buckets[i]`` *and* ``value > buckets[i - 1]`` — i.e.
    non-cumulative per-bucket counts, with one implicit overflow bucket
    (``+Inf``) at the end.  The Prometheus exporter re-cumulates them.
    """

    __slots__ = ("name", "description", "buckets", "_counts", "_sum",
                 "_count", "_lock")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly ascending: "
                f"{bounds}"
            )
        self.name = name
        self.description = description
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket counts; the final entry is the +Inf overflow."""
        return tuple(self._counts)

    def cumulative_counts(self) -> tuple[int, ...]:
        """Prometheus-style cumulative counts, one per bound plus +Inf."""
        total = 0
        out = []
        for count in self._counts:
            total += count
            out.append(total)
        return tuple(out)

    def mean(self) -> Optional[float]:
        if not self._count:
            return None
        return self._sum / self._count

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self._count}, sum={self._sum})"


# -- registry -----------------------------------------------------------------


class MetricsRegistry:
    """A named collection of instruments with get-or-create access."""

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif instrument.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{instrument.kind}, not a {kind}"
                )
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, description), "counter"
        )

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, description), "gauge"
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets, description), "histogram"
        )

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A point-in-time copy of every instrument's state."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Zero every instrument (definitions stay registered)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def clear(self) -> None:
        """Drop every instrument definition."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry the engine layers report into."""
    return _GLOBAL_REGISTRY
