"""Observability overhead: instrumentation must be ~free when off.

The obs layer threads a ``stats`` slot through every compiled physical
operator and installs one thin timing wrapper per operator at compile
time.  The contract (ISSUE 4 / DESIGN §10): with instrumentation
*disabled* — no collector passed, ambient flag off — the E2 hot path
(a selective tag-array filter over a wide tagged relation) pays under
5% versus a plan compiled with no wrappers at all
(``compile_plan(..., instrument=False)``).

Three measured configurations, coldest machinery stripped away so the
ratio isolates exactly the wrapper + ``stats is None`` checks:

- *baseline*: uninstrumented compiled plan, executed directly;
- *disabled*: normally compiled plan (wrappers installed), ``stats``
  left ``None`` — the default production path;
- *enabled*: same plan executed against a fresh ``ExecutionStats``
  tree per call (what ``EXPLAIN ANALYZE`` pays).
"""

from conftest import REPO_ROOT, best_seconds, best_seconds_interleaved, emit

from repro.experiments.harness import bench_record, write_bench_json
from repro.obs import enabled as obs_enabled
from repro.obs.export import OVERHEAD_CEILINGS
from repro.sql import clear_plan_cache, execute, optimize, parse
from repro.sql.optimizer import PlanContext
from repro.sql.physical import compile_plan
from repro.sql.plan import logical_plan


def _ticks_relation(n=30000):
    """A wide tagged relation for planner scan benchmarks."""
    from repro.relational.schema import Column, RelationSchema
    from repro.tagging.cell import QualityCell
    from repro.tagging.indicators import (
        IndicatorDefinition,
        IndicatorValue,
        TagSchema,
    )
    from repro.tagging.relation import TaggedRelation

    schema = RelationSchema(
        "ticks", [Column("ticker", "STR"), Column("price", "FLOAT")]
    )
    tags = TagSchema(
        [IndicatorDefinition("source", "STR"), IndicatorDefinition("age", "INT")],
        allowed={"price": ["source", "age"]},
    )
    relation = TaggedRelation(schema, tags)
    for i in range(n):
        relation.insert(
            {
                "ticker": f"T{i % 500}",
                "price": QualityCell(
                    float(i % 997),
                    [
                        IndicatorValue(
                            "source", "reuters" if i % 50 else "manual"
                        ),
                        IndicatorValue("age", i % 30),
                    ],
                ),
            }
        )
    return relation


SQL = (
    "SELECT ticker, price FROM ticks "
    "WHERE QUALITY(price.source) = 'manual' AND price > 10 "
    "ORDER BY price DESC LIMIT 50"
)


def test_obs_overhead_json():
    """Emit BENCH_OBS.json: disabled-instrumentation overhead < 5%."""
    assert not obs_enabled()  # the ambient flag must be off by default

    n = 30000
    ticks = _ticks_relation(n)
    binding = {"ticks": ticks}

    statement = parse(SQL)
    plan = optimize(
        logical_plan(statement, tagged=True),
        PlanContext.from_relations(binding),
    )
    bare = compile_plan(plan, binding, instrument=False)
    instrumented = compile_plan(plan, binding)

    expected = len(bare.execute(binding))
    assert len(instrumented.execute(binding)) == expected
    stats = instrumented.new_stats()
    assert len(instrumented.execute(binding, stats)) == expected
    assert stats.rows == expected

    # Interleaved so frequency drift hits all three configurations
    # alike: the disabled/baseline ratio is the contract under test and
    # their true difference is a handful of wrapper calls per batch.
    baseline_s, disabled_s, enabled_s = best_seconds_interleaved(
        [
            lambda: bare.execute(binding),
            lambda: instrumented.execute(binding),
            lambda: instrumented.execute(binding, instrumented.new_stats()),
        ],
        repeats=25,
    )
    disabled_overhead = disabled_s / baseline_s
    enabled_overhead = enabled_s / baseline_s

    # The full entry point with the cache warm, for context: this is
    # what applications actually call with instrumentation off.
    clear_plan_cache()
    execute(SQL, ticks)
    full_s = best_seconds(lambda: execute(SQL, ticks), repeats=9)

    # Verified mode, for the record (no CI bound): the same warm-cache
    # entry point with REPRO_VERIFY_PLANS=1, which re-audits the cache
    # entry (DQ409) and runs the columnar sanitizer on every hit.
    import os

    os.environ["REPRO_VERIFY_PLANS"] = "1"
    try:
        clear_plan_cache()
        execute(SQL, ticks)
        verified_s = best_seconds(lambda: execute(SQL, ticks), repeats=9)
    finally:
        os.environ.pop("REPRO_VERIFY_PLANS", None)
        clear_plan_cache()
    verified_overhead = verified_s / full_s

    write_bench_json(
        "BENCH_OBS.json",
        [
            bench_record("obs_baseline_uninstrumented", n, baseline_s),
            bench_record(
                "obs_disabled_execute", n, disabled_s,
                overhead=disabled_overhead,
            ),
            bench_record(
                "obs_enabled_execute", n, enabled_s,
                overhead=enabled_overhead,
            ),
            bench_record("obs_full_execute_warm_cache", n, full_s),
            bench_record(
                "obs_verified_execute", n, verified_s,
                overhead=verified_overhead,
            ),
        ],
        REPO_ROOT,
    )
    emit(
        "Observability overhead (E2 hot path)",
        f"uninstrumented plan  {baseline_s * 1e3:.3f} ms\n"
        f"instrumented, off    {disabled_s * 1e3:.3f} ms "
        f"({disabled_overhead:.3f}x)\n"
        f"instrumented, stats  {enabled_s * 1e3:.3f} ms "
        f"({enabled_overhead:.3f}x)\n"
        f"execute() warm cache {full_s * 1e3:.3f} ms\n"
        f"verified + sanitized {verified_s * 1e3:.3f} ms "
        f"({verified_overhead:.3f}x)",
    )
    # The CI-enforced ceiling: disabled instrumentation stays under 5%.
    assert disabled_overhead <= OVERHEAD_CEILINGS["obs_disabled_execute"]
