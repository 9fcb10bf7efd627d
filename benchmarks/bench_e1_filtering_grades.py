"""E1 — §4's graded retrieval: mass mailing vs. fund raising.

The paper's claim: "For more sensitive applications, such as fund
raising, the user may query over and constrain quality indicators
values, raising the accuracy and timeliness of the retrieved data."

Workload: the simulated address clearinghouse (two sources of unequal
quality feeding one address book).  The harness measures, per stored
profile, the yield / delivered-accuracy / mean-age trade-off against the
simulated ground truth.

Expected shape: the fund-raising grade delivers *fewer* rows but
*higher* accuracy and *lower* age than the unconstrained mass-mailing
grade.  An ablation compares query-time grading against load-time
filtering to show why the paper's query-time choice matters when users
have different standards.
"""

from conftest import emit

from repro.experiments.reporting import TextTable
from repro.experiments.scenarios import clearinghouse
from repro.quality.filtering import yield_quality_tradeoff

_SCENARIO_CACHE = {}


def _scenario():
    if "env" not in _SCENARIO_CACHE:
        _SCENARIO_CACHE["env"] = clearinghouse(
            n_people=400, seed=23, simulated_days=365
        )
    return _SCENARIO_CACHE["env"]


def test_e1_grade_tradeoff(benchmark):
    world, _, relation, registry = _scenario()
    filters = [
        registry.get("mass_mailing").quality_filter,
        registry.get("fund_raising").quality_filter,
    ]

    def run():
        return yield_quality_tradeoff(
            relation,
            filters,
            truth=world.truth(),
            key_column="person_id",
            today=world.today,
            age_columns=["address"],
        )

    outcomes = benchmark(run)
    table = TextTable(
        ["profile", "yield", "rows", "delivered_accuracy", "mean_age_days"],
        title="E1: graded retrieval over the address clearinghouse",
    )
    for outcome in outcomes:
        table.add_row(
            [
                outcome.filter_name,
                outcome.yield_fraction,
                outcome.output_rows,
                outcome.delivered_accuracy,
                outcome.mean_age_days,
            ]
        )
    emit("E1: §4 filtering grades", table.render())

    mass, fund = outcomes
    # The paper's predicted shape.
    assert mass.yield_fraction == 1.0
    assert fund.yield_fraction < mass.yield_fraction
    assert fund.delivered_accuracy > mass.delivered_accuracy
    assert fund.mean_age_days < mass.mean_age_days


def test_e1_querytime_vs_loadtime_ablation(benchmark):
    """Ablation: filtering at load time bakes in ONE standard; tags +
    query-time grading serve every standard from the same stored data.

    We measure: the load-time-filtered store answers the mass-mailing
    application with fewer rows than it wants (yield loss), while the
    tagged store answers both applications correctly.
    """
    world, _, relation, registry = _scenario()
    fund = registry.get("fund_raising").quality_filter

    def query_time_both():
        mass_result = registry.get("mass_mailing").retrieve(relation)
        fund_result = registry.get("fund_raising").retrieve(relation)
        return mass_result, fund_result

    mass_result, fund_result = benchmark(query_time_both)
    # Load-time filtering = store only fund-raising-grade data.
    load_filtered_store = fund.apply(relation)

    table = TextTable(
        ["strategy", "mass_mailing rows", "fund_raising rows"],
        title="E1 ablation: query-time tags vs load-time filtering",
    )
    table.add_row(
        ["query-time grading", len(mass_result), len(fund_result)]
    )
    table.add_row(
        ["load-time filtering", len(load_filtered_store), len(load_filtered_store)]
    )
    emit("E1 ablation", table.render())

    # The mass-mailing application loses rows under load-time filtering
    # (it wanted everything), while query-time grading serves both.
    assert len(mass_result) == len(relation)
    assert len(load_filtered_store) < len(mass_result)
    assert len(fund_result) == len(load_filtered_store)


def test_e1_json_fast_vs_naive_grading():
    """Emit BENCH_E1.json: compiled and columnar grading vs the naive path.

    The fund-raising grade runs through the compiled (pushdown) filter,
    through the relation's tag arrays (array scans + late row gather), and
    through the seed strategy (per-row name lookups, re-validating
    inserts); all three must deliver identical rows.  The three legs
    are measured *interleaved* — the naive baseline is re-timed in the
    same rounds as the fast paths, so every recorded speedup divides
    numbers taken under the same CPU conditions.
    """
    from conftest import REPO_ROOT, best_seconds_interleaved

    from repro.experiments.harness import bench_record, write_bench_json
    from repro.experiments.naive import naive_quality_filter

    world, _, relation, registry = _scenario()
    fund = registry.get("fund_raising").quality_filter

    fast_result = fund.apply(relation)
    columnar_result = fund.apply_columnar(relation)
    naive_result = naive_quality_filter(relation, fund)
    assert [r.cells for r in fast_result] == [r.cells for r in naive_result]
    assert [r.cells for r in columnar_result] == [
        r.cells for r in naive_result
    ]

    n = len(relation)
    fast_s, columnar_s, naive_s = best_seconds_interleaved(
        [
            lambda: fund.apply(relation),
            lambda: fund.apply_columnar(relation),
            lambda: naive_quality_filter(relation, fund),
        ]
    )
    speedup = naive_s / fast_s
    columnar_speedup = naive_s / columnar_s
    write_bench_json(
        "BENCH_E1.json",
        [
            bench_record(
                "e1_graded_retrieval_fast", n, fast_s, speedup=speedup
            ),
            bench_record(
                "e1_graded_retrieval_columnar",
                n,
                columnar_s,
                speedup=columnar_speedup,
            ),
            bench_record("e1_graded_retrieval_naive", n, naive_s, speedup=1.0),
        ],
        REPO_ROOT,
    )
    emit(
        "E1: fast vs naive graded retrieval",
        f"fast {fast_s * 1e3:.2f} ms, columnar {columnar_s * 1e3:.2f} ms, "
        f"naive {naive_s * 1e3:.2f} ms; speedups {speedup:.1f}x / "
        f"{columnar_speedup:.1f}x over {n} rows",
    )
    assert fast_s <= naive_s
    assert columnar_s <= naive_s
