"""Request-path benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload ingest_mixed --seed 1 --seconds 40 --trace 1

``--trace 0`` sets the program up three times (``setup_s`` is the
median) and measures the end-to-end metrics on the second set-up.
``--trace 1`` measures an untraced phase and then a traced phase, each
on a fresh set-up, and reports the per-layer metrics of the traced
phase plus the tracing overhead; its spans are written to
``.bench_out/``.  Before the result, one ``{"context": ...}`` line
records the host, the seed and the sample count of every metric.  The
last line of standard output is the result object; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_per_s": "1/s",
    "rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "service.http.self_ms": "ms",
    "service.http.payload_ms": "ms",
    "service.http.response_bytes": "bytes",
    "service.core.self_ms": "ms",
    "service.core.queue_wait_ms": "ms",
    "service.core.pin_ms": "ms",
    "service.core.new_snapshots_per_read": "1/read",
    "sql.executor.self_ms": "ms",
    "sql.plancache.hit_ratio": "ratio",
    "sql.plancache.lookup_ms": "ms",
    "sql.parser.parse_ms": "ms",
    "analysis.query.strict_ms": "ms",
    "analysis.query.memo_hit_ratio": "ratio",
    "sql.optimizer.plan_ms": "ms",
    "sql.optimizer.partitions_scanned": "1/read",
    "sql.physical.compile_ms": "ms",
    "sql.physical.execute_ms": "ms",
    "sql.physical.rows_examined_per_row": "rows/row",
    "tagging.columnar.build_ms": "ms",
    "tagging.columnar.scan_ms": "ms",
    "quality.materialize.filter_ms": "ms",
    "quality.materialize.rescored_rows_per_read": "rows/read",
    "quality.materialize.reuse_ratio": "ratio",
    "tagging.relation.insert_ms": "ms",
    "python.gc_pause_ms": "ms",
    "python.gc_full_collections": "count",
    "trace.read_mean_ms": "ms",
    "trace.untraced_read_mean_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_context(args: argparse.Namespace) -> dict[str, Any]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


def end_to_end(phase: Any) -> tuple[dict, dict]:
    """The measured phase's read metrics and their sample counts."""
    reads = phase.reads
    values = {
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p90_ms": percentile(reads, 90) * 1e3,
        "read_per_s": len(reads) / phase.seconds,
    }
    samples = {name: len(reads) for name in values}
    return values, samples


def measure(args: argparse.Namespace) -> tuple[list, dict, dict]:
    """Run the requested workload; returns (phases, metrics, samples)."""
    from gen import Inputs
    from workloads import DRIVERS, batches, set_up, to_cells

    inputs = Inputs(args.workload, args.seed)
    initial = batches([to_cells(row) for row in inputs.rows])
    driver = DRIVERS[args.workload]
    if args.trace:
        from traced import traced_metrics

        return traced_metrics(args, inputs, initial, driver, OUT)

    # One set-up before the measured one and one after the measured
    # phase: host speed drifts over tens of seconds, and set-ups spread
    # over the run give a steadier median than back-to-back ones.
    setups: list[float] = []

    def timed_set_up() -> Any:
        system, seconds = set_up(inputs, initial)
        setups.append(seconds)
        return system

    timed_set_up().close()
    gc.collect()
    system = timed_set_up()
    try:
        # The loaded, warm system's peak footprint (ru_maxrss is in KiB),
        # read before the phase: ingest_mixed's relation grows with every
        # cycle, so a later reading would grow with the program's speed.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Measure from a clean heap: set-up leaves garbage behind.
        gc.collect()
        phase = driver(system, inputs, args.seconds)
        values, samples = end_to_end(phase)
        began = perf_counter()
        phase.verify()
        checks = perf_counter() - began
    finally:
        system.close()
    gc.collect()
    timed_set_up().close()
    values["setup_s"] = statistics.median(setups)
    values["rss_mb"] = rss_mb
    samples["setup_s"] = len(setups)
    samples["rss_mb"] = 1
    print(
        f"perfbench: set-ups {', '.join(f'{s:.2f}' for s in setups)} s, "
        f"measured {phase.seconds:.2f} s, checks {checks:.2f} s",
        file=sys.stderr,
    )
    return [phase], values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("http_lookup", "ingest_mixed")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's source is missing ({SRC / 'repro'}); "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    context = run_context(args)
    phases, values, samples = measure(args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for phase in phases:
        for problem in phase.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    context["samples"] = samples
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
