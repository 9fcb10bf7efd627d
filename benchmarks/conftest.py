"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures (or one of
the experiments the paper motivates), prints the artifact, and asserts
the expected *shape* (who wins, by roughly what factor, where crossovers
fall).  Absolute timings come from pytest-benchmark.
"""

from __future__ import annotations

import time
from pathlib import Path

#: Repository root — BENCH_*.json artifacts are written here.
REPO_ROOT = Path(__file__).resolve().parent.parent


def emit(title: str, artifact: str) -> None:
    """Print a regenerated artifact under a banner (visible with -s)."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}\n{artifact}\n")


def best_seconds(fn, repeats: int = 5) -> float:
    """Noise-robust wall time: best of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_seconds_interleaved(fns, repeats: int = 5) -> list[float]:
    """Best-of timings for several callables, measured *interleaved*.

    Sequential best-of blocks (time A repeats times, then B) let CPU
    frequency drift and cache-warmth asymmetry bias ratios of
    near-identical workloads by ±10%.  Rotating through the callables
    on every round exposes each to the same drift, so A/B ratios
    compare like with like.  Returns one best time per callable, in
    input order.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best
