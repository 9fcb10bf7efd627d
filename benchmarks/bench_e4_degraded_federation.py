"""E4: fault-tolerant federation — retry-path overhead and degradation.

Two claims are measured (ISSUE 5 / DESIGN §11):

- *Overhead*: with zero injected faults, routing every export through
  the full fault-tolerance machinery (``UnreliableSource`` → breaker
  check → retry loop → report assembly) costs at most 10% over the
  direct ``union_all`` path.  The retry layer must be cheap enough to
  leave on everywhere.
- *Degradation*: at a 30% injected error rate the tolerant union still
  returns a partial result, and the degraded-source report matches the
  injector's decision log exactly.  This is recorded for context, not
  gated — how many sources fail is a property of the seed.

All time inside the federation (injected latency, backoff, acquisition
stamps) flows through a ``ManualClock``, so wall-clock measurements see
only real compute.
"""

from conftest import REPO_ROOT, best_seconds_interleaved, emit

from repro.experiments.harness import bench_record, write_bench_json
from repro.obs.export import OVERHEAD_CEILINGS
from repro.experiments.scenarios import degraded_federation
from repro.polygen.faults import FederationResult

N_SOURCES = 3
N_ROWS = 400


def test_e4_degraded_federation_json():
    """Emit BENCH_E4.json: zero-fault retry-path overhead <= 1.10x."""
    # Identical data in both federations; only the acquisition path
    # differs (plain LocalDatabase vs the zero-fault retry machinery).
    direct, _, _ = degraded_federation(
        n_sources=N_SOURCES, n_rows=N_ROWS, error_rate=0.0
    )
    for name in direct.database_names:
        direct._locals[name] = direct._locals[name].local  # unwrap
    tolerant, _, _ = degraded_federation(
        n_sources=N_SOURCES, n_rows=N_ROWS, error_rate=0.0
    )

    baseline = direct.union_all("quotes")
    via_retry = tolerant.union_all("quotes", require_all=True)
    assert isinstance(via_retry, FederationResult)
    assert not via_retry.is_degraded
    assert via_retry.relation.rows == baseline.rows  # byte-identical

    direct_s, retry_s = best_seconds_interleaved(
        [
            lambda: direct.union_all("quotes"),
            lambda: tolerant.union_all("quotes", require_all=True),
        ],
        repeats=15,
    )
    overhead = retry_s / direct_s

    # Context: the same federation under a 30% injected error rate.
    degraded, injectors, _ = degraded_federation(
        n_sources=N_SOURCES, n_rows=N_ROWS, error_rate=0.3
    )
    result = degraded.union_all("quotes", require_all=False)
    for name, report in result.reports.items():
        assert report.attempts == injectors[name].calls_for(name)
    n_degraded = len(result.degraded_sources)

    def run_degraded():
        # Replay the exact same acquisition every repeat: the injector
        # rng and breaker state are otherwise stateful across calls.
        for name, injector in injectors.items():
            injector.reset()
            degraded._locals[name].breaker.reset()
        return degraded.union_all("quotes", require_all=False)

    degraded_s = best_seconds_interleaved([run_degraded], repeats=9)[0]

    n = N_SOURCES * N_ROWS
    write_bench_json(
        "BENCH_E4.json",
        [
            bench_record("e4_federation_direct", n, direct_s),
            bench_record(
                "e4_federation_retry_zero_fault", n, retry_s,
                overhead=overhead,
            ),
            bench_record(
                "e4_federation_degraded_30pct", n, degraded_s,
                error_rate=0.3,
                degraded_sources=n_degraded,
            ),
        ],
        REPO_ROOT,
    )
    emit(
        "E4: fault-tolerant federation",
        f"direct union_all          {direct_s * 1e3:.3f} ms\n"
        f"retry path, zero fault    {retry_s * 1e3:.3f} ms "
        f"({overhead:.3f}x)\n"
        f"30% faults, partial union {degraded_s * 1e3:.3f} ms "
        f"({n_degraded}/{N_SOURCES} sources degraded)",
    )
    # The CI-enforced ceiling: fault tolerance at zero fault rate is
    # within 10% of the direct path.
    assert overhead <= OVERHEAD_CEILINGS["e4_federation_retry_zero_fault"]
