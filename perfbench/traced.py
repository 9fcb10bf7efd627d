"""The ``--trace 1`` run: per-layer metrics from an outside-in trace.

One untraced phase and one traced phase run, each on a fresh set-up of
the same inputs, so the difference in mean read latency between them is
the tracing overhead.  Per-layer timings are mean self time per read in
the traced phase; ``trace.unattributed_ms`` is the part of the traced
mean read latency that no layer claims.  ``tagging.relation.insert_ms``
is per write and ``python.gc_pause_ms`` overlaps the layers it paused,
so neither is part of that sum.
"""

from __future__ import annotations

import gc
import json
import statistics
from pathlib import Path
from typing import Any, Callable

from probes import Probes, ratio
from spans import READ_LAYERS, Recorder, layer_means, self_times, with_queue_waits
from workloads import PARTITIONS, set_up


def _phase(inputs: Any, initial: list, driver: Callable, seconds: float, recorder=None):
    """Set up, run one phase (traced when a recorder is given), check."""
    system, _ = set_up(inputs, initial)
    probes = None
    try:
        gc.collect()
        if recorder is not None:
            probes = Probes(recorder).install()
            probes.expect_snapshot(system.relation.read_snapshot())
        try:
            phase = driver(system, inputs, seconds, recorder)
        finally:
            if probes is not None:
                probes.remove()
        phase.verify()
    finally:
        system.close()
        gc.collect()
    return phase, probes


def traced_metrics(args: Any, inputs: Any, initial: list, driver: Callable, out: Path):
    baseline, _ = _phase(inputs, initial, driver, args.seconds)
    recorder = Recorder()
    phase, probes = _phase(inputs, initial, driver, args.seconds, recorder)

    spans = with_queue_waits(recorder.spans, recorder.new_id)
    root_layer = "service.http.self_ms" if args.workload == "http_lookup" else None
    values, traced_mean, reads = layer_means(spans, "read", root_layer)
    own = self_times(spans)
    inserts = [own[span.sid] for span in spans if span.name == "tagging.relation.insert"]
    untraced_mean = statistics.fmean(baseline.reads) * 1e3
    plan_hits, plan_misses = probes.plan_hits
    memo_hits, memo_misses = probes.memo_hits
    obs = probes.obs
    values.update(
        {
            "service.http.response_bytes": ratio(phase.response_bytes, reads),
            "service.core.new_snapshots_per_read": ratio(probes.new_snapshots, reads),
            "sql.plancache.hit_ratio": ratio(plan_hits, plan_hits + plan_misses),
            "analysis.query.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
            "sql.optimizer.partitions_scanned": PARTITIONS
            - ratio(obs["partition.pruned"], probes.executions),
            "sql.physical.rows_examined_per_row": ratio(
                probes.rows_examined, probes.rows_returned
            ),
            "quality.materialize.rescored_rows_per_read": ratio(
                obs["scores.recomputed"], reads
            ),
            "quality.materialize.reuse_ratio": ratio(
                obs["scores.reused"], obs["scores.reused"] + obs["scores.recomputed"]
            ),
            "tagging.relation.insert_ms": ratio(sum(inserts) * 1e3, len(inserts)),
            "python.gc_pause_ms": ratio(probes.gc_pause_seconds * 1e3, reads),
            "python.gc_full_collections": probes.gc_full_collections,
            "trace.read_mean_ms": traced_mean,
            "trace.untraced_read_mean_ms": untraced_mean,
            "trace.overhead_ms": traced_mean - untraced_mean,
        }
    )
    layers = sum(values[name] for name in set(READ_LAYERS.values()))
    values["trace.unattributed_ms"] = traced_mean - layers
    samples = {name: reads for name in values}
    samples["tagging.relation.insert_ms"] = len(inserts)
    samples["trace.untraced_read_mean_ms"] = len(baseline.reads)
    samples["python.gc_full_collections"] = probes.gc_collections

    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as sink:
        for span in spans:
            sink.write(json.dumps(span._asdict()) + "\n")
    return [baseline, phase], values, samples
