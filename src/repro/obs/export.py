"""Exporters: registry → JSON / Prometheus text, bench JSONs, trends.

Two consumer groups:

- monitoring: :func:`to_json` and :func:`to_prometheus` render a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot for scrapers
  (Prometheus text exposition format, names sanitized);
- the benchmark suite: :func:`write_bench_records` writes the stable
  ``BENCH_*.json`` artifact format (the experiments harness routes
  through it), :data:`SPEEDUP_FLOORS` / :data:`OVERHEAD_CEILINGS` are
  the CI-enforced perf envelope, and :func:`trend_table` renders the
  cross-artifact trend report the ``bench-trend`` CI job prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OVERHEAD_CEILINGS",
    "SPEEDUP_FLOORS",
    "check_floors",
    "to_json",
    "to_prometheus",
    "trend_table",
    "write_bench_records",
]


# -- registry exporters -------------------------------------------------------


def to_json(registry: MetricsRegistry, indent: Optional[int] = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def _sanitize(name: str) -> str:
    """Metric name → Prometheus-legal name (dots/dashes → underscores)."""
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char == "_":
            out.append(char)
        else:
            out.append("_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        metric = _sanitize(name)
        if instrument.description:
            lines.append(f"# HELP {metric} {instrument.description}")
        lines.append(f"# TYPE {metric} {instrument.kind}")
        if instrument.kind == "histogram":
            bounds = [repr(b) for b in instrument.buckets] + ["+Inf"]
            for bound, count in zip(bounds, instrument.cumulative_counts()):
                lines.append(f'{metric}_bucket{{le="{bound}"}} {count}')
            lines.append(f"{metric}_sum {_format_value(instrument.sum)}")
            lines.append(f"{metric}_count {instrument.count}")
        else:
            lines.append(f"{metric} {_format_value(instrument.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- bench artifacts ----------------------------------------------------------


def write_bench_records(
    filename: str,
    records: list[dict[str, Any]],
    directory: Optional[Union[str, Path]] = None,
) -> Path:
    """Write benchmark records as a ``BENCH_*.json`` artifact.

    The stable on-disk format (a sorted, indented JSON list of records,
    each carrying at least ``{"bench", "n", "seconds", "ops_per_sec"}``)
    is owned here; ``repro.experiments.harness.write_bench_json``
    delegates to this function.
    """
    target_dir = Path(directory) if directory is not None else Path.cwd()
    target = target_dir / filename
    target.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return target


#: CI-enforced relative-speedup floors, by bench record name.  A
#: recorded ``speedup`` below its floor fails the ``bench-trend`` job.
SPEEDUP_FLOORS: dict[str, float] = {
    "e1_graded_retrieval_fast": 1.0,
    "e1_graded_retrieval_columnar": 5.0,
    "e2_tagged_scan_fast": 2.0,
    "e2_tagged_scan_columnar": 10.0,
    "e3_federation_join_fast": 3.0,
    "qsql_columnar_scan": 23.5,  # vs naive_execute
    "qsql_cached_statement": 5.0,
    "columnar_scan_filter_topk": 16.0,  # vs naive_execute
    "columnar_vs_naive": 8.0,  # vs naive_execute
    "partition_pruned_scan": 30.1,  # vs naive_execute
    "partition_incremental_save": 4.0,
    "scoring_incremental_rescore": 8.0,
    "scoring_pushdown_filter": 6.8,  # vs naive_execute
    # Snapshot isolation must keep readers off the writers' lock path:
    # reader throughput with a concurrent writer holds >= 0.5x of the
    # readers-alone rate (the "speedup" here is that ratio).
    "service_reader_throughput_under_writer": 0.5,
}

#: CI-enforced relative-overhead ceilings, by bench record name.  A
#: recorded ``overhead`` above its ceiling fails the job; the obs
#: record asserts disabled instrumentation costs < 5% on the hot path.
OVERHEAD_CEILINGS: dict[str, float] = {
    "obs_disabled_execute": 1.05,
    "e4_federation_retry_zero_fault": 1.10,
}


def check_floors(records: Iterable[dict[str, Any]]) -> list[str]:
    """Floor/ceiling violations in bench records; empty means healthy."""
    violations = []
    for record in records:
        name = record.get("bench")
        floor = SPEEDUP_FLOORS.get(name)
        if floor is not None:
            speedup = record.get("speedup")
            if speedup is None:
                violations.append(f"{name}: no speedup recorded")
            elif speedup < floor:
                violations.append(
                    f"{name}: speedup {speedup:.2f}x below floor {floor}x"
                )
        ceiling = OVERHEAD_CEILINGS.get(name)
        if ceiling is not None:
            overhead = record.get("overhead")
            if overhead is None:
                violations.append(f"{name}: no overhead recorded")
            elif overhead > ceiling:
                violations.append(
                    f"{name}: overhead {overhead:.3f}x above ceiling "
                    f"{ceiling}x"
                )
    return violations


def _load_records(paths: Iterable[Union[str, Path]]) -> list[dict[str, Any]]:
    records: list[dict[str, Any]] = []
    for path in paths:
        records.extend(json.loads(Path(path).read_text()))
    return records


def trend_table(paths: Iterable[Union[str, Path]]) -> tuple[str, list[str]]:
    """Render the cross-artifact trend table; returns (table, violations).

    Each row is one bench record: name, input size, wall time, ops/sec,
    the recorded speedup/overhead, its floor/ceiling, and a PASS/FAIL
    status.  Records without an enforced bound show as ``—``.
    """
    records = _load_records(paths)
    header = (
        "bench", "n", "seconds", "ops/sec", "ratio", "bound", "status"
    )
    rows = [header]
    for record in records:
        name = record.get("bench", "?")
        floor = SPEEDUP_FLOORS.get(name)
        ceiling = OVERHEAD_CEILINGS.get(name)
        if floor is not None:
            ratio = record.get("speedup")
            bound = f">={floor}x"
            healthy = ratio is not None and ratio >= floor
            ratio_text = f"{ratio:.2f}x" if ratio is not None else "?"
            status = "PASS" if healthy else "FAIL"
        elif ceiling is not None:
            ratio = record.get("overhead")
            bound = f"<={ceiling}x"
            healthy = ratio is not None and ratio <= ceiling
            ratio_text = f"{ratio:.3f}x" if ratio is not None else "?"
            status = "PASS" if healthy else "FAIL"
        else:
            ratio = record.get("speedup", record.get("overhead"))
            bound = "—"
            ratio_text = f"{ratio:.2f}x" if ratio is not None else "—"
            status = "—"
        rows.append(
            (
                name,
                str(record.get("n", "?")),
                f"{record.get('seconds', 0.0):.6f}",
                f"{record.get('ops_per_sec', 0.0):,.0f}",
                ratio_text,
                bound,
                status,
            )
        )
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(header))
    ]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            .rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines), check_floors(records)
