#!/usr/bin/env python3
"""Extensions tour: QSQL, quality scoring, and enhancement planning.

Three capabilities the paper motivates but leaves as future work, built
on the tagged substrate:

1. **QSQL** — quality-constrained retrieval as SQL strings, with
   ``QUALITY(column.indicator)`` references;
2. **scoring** — "derivation and estimation of quality parameter values
   and overall data quality from underlying indicator values" (§4), as
   a weighted scorecard with cell → column → relation rollups;
3. **enhancement planning** — Ballou-Tayi [1] budget allocation over
   the defect statistics monitoring produced.

Run:  python examples/quality_sql_and_planning.py
"""

import datetime as dt

from repro.experiments.scenarios import customer_database
from repro.quality.allocation import allocate_budget, profiles_from_monitoring
from repro.quality.scoring import (
    QualityScorecard,
    credibility_scorer,
    timeliness_scorer,
)
from repro.sql import execute


def main() -> None:
    world, pipeline, customers = customer_database(
        n_companies=150, seed=11, simulated_days=180
    )
    print(
        f"Manufactured customer DB: {len(customers)} rows, "
        f"{customers.tag_count()} tags, world day {world.today}"
    )
    print()

    # -- 1. QSQL ------------------------------------------------------------
    fresh_cutoff = (world.today - dt.timedelta(days=30)).isoformat()
    query = (
        "SELECT co_name, employees FROM customer "
        "WHERE employees > 5000 "
        f"AND QUALITY(address.creation_time) >= DATE '{fresh_cutoff}' "
        "AND QUALITY(employees.source) IN ('estimate', 'acct''g') "
        "ORDER BY employees DESC LIMIT 5"
    )
    print("QSQL:")
    print(f"  {query}")
    result = execute(query, customers)
    print(result.render(title="Top employers with fresh addresses"))
    print()

    # The administrator's quality report in SQL: tag values are
    # first-class, groupable, and aggregatable.
    per_source = execute(
        "SELECT QUALITY(employees.source) AS source, COUNT(*) AS rows_held, "
        "MAX(QUALITY(employees.creation_time)) AS newest "
        "FROM customer GROUP BY QUALITY(employees.source)",
        customers,
    )
    print(per_source.render(title="Rows held per employee-count source"))
    print()

    # EXPLAIN shows the optimized plan the planner runs: the quality
    # predicates are Filter leaves over the tag arrays, ORDER BY + LIMIT
    # fuse into a bounded top-k.
    plan = execute(f"EXPLAIN {query}", customers)
    print("EXPLAIN output:")
    for row in plan:
        print(f"  {row.values_tuple()[0]}")
    print()

    # -- 2. scoring ----------------------------------------------------------------
    scorecard = QualityScorecard(
        [
            timeliness_scorer(shelf_life_days=90),
            credibility_scorer(
                {"acct'g": 0.9, "estimate": 0.35}, default=0.5
            ),
        ],
        weights={"timeliness": 1.0, "credibility": 2.0},
    )
    relation_score = scorecard.score_relation(
        customers, context={"today": world.today}
    )
    print(relation_score.render())
    print()
    address = relation_score.columns["address"].composite.score
    employees = relation_score.columns["employees"].composite.score
    print(
        f"Premise 1.3 in numbers: address quality {address:.3f} vs "
        f"employees quality {employees:.3f} — same relation, different "
        f"manufacturing processes."
    )
    print()

    # -- 3. enhancement planning -------------------------------------------------------
    defect_stats = pipeline.defect_counts_by_method()
    print("Monitoring found (defects / cells):")
    for method, (defects, total) in sorted(defect_stats.items()):
        print(f"  {method}: {defects}/{total}")
    profiles = profiles_from_monitoring(
        defect_stats,
        unit_cost=1.0,
        effectiveness=0.5,
        weights={"manual_entry": 3.0},  # address errors hurt more
    )
    plan = allocate_budget(profiles, budget=6)
    print()
    print(plan.render({p.name: p for p in profiles}))


if __name__ == "__main__":
    main()
