#!/usr/bin/env python3
"""A tour of the paper's premises (§2) as executable analyses.

Each premise is a design observation; the library turns each into a
function the design team or administrator can run.  This example walks
all of them over concrete data.

Run:  python examples/premises_tour.py
"""

from repro.core.mapping import UserQualityStandard, timeliness_from_age
from repro.core.premises import (
    classify_attribute_role,
    heterogeneity_profile,
    heterogeneity_spread,
    non_orthogonality_report,
    single_user_variation_report,
    user_standards_report,
)
from repro.experiments.scenarios import customer_database, trading_ticks
from repro.tagging.aggregate import RelationTags, completeness_hint
from repro.tagging.indicators import IndicatorValue

MINUTE = 1 / (24 * 60)


def main() -> None:
    # -- Premise 1.1: application vs quality attributes ---------------------
    print("Premise 1.1 — which role does an attribute play?")
    for name, doc in [
        ("teller_name", "bank teller who performed the transaction"),
        ("share_price", ""),
        ("entry_timestamp", "when the record was keyed in"),
        ("address", ""),
    ]:
        print(f"  {name:<16} -> {classify_attribute_role(name, doc)}")
    print()

    # -- Premise 1.2: non-orthogonality ---------------------------------------
    chosen = ["timeliness", "volatility", "currency", "cost", "credibility"]
    pairs = non_orthogonality_report(chosen)
    print(f"Premise 1.2 — related pairs among {chosen}:")
    for a, b in pairs:
        print(f"  {a} ~ {b}")
    print()

    # -- Premise 1.3: heterogeneity hierarchy -----------------------------------
    world, _, customers = customer_database(
        n_companies=100, seed=31, simulated_days=120
    )

    def source_trust(cell):
        source = cell.tag_value("source")
        if source is None:
            return None
        return {"acct'g": 1.0, "estimate": 0.2}.get(source, 0.5)

    profile = heterogeneity_profile(
        {"customer": customers}, source_trust, "source trust"
    )
    spread = heterogeneity_spread(profile)
    columns = profile["relations"]["customer"]["columns"]
    print("Premise 1.3 — quality differs across the hierarchy:")
    for column, score in sorted(columns.items()):
        shown = "n/a" if score is None else f"{score:.2f}"
        print(f"  customer.{column}: trust={shown}")
    print(f"  column spread: {spread['column_spread']:.2f}")
    # ... and at the aggregate (table) level, per the §1.2 footnote:
    tags = RelationTags(
        "customer", [IndicatorValue("population_method", "purchased list")]
    )
    print(
        f"  table-level hint: population_method="
        f"{tags.value('population_method')!r} -> completeness ≈ "
        f"{completeness_hint(tags)}"
    )
    print()

    # -- Premises 2.1/2.2: user-specific standards ---------------------------------
    ticks = trading_ticks(n_ticks=500, seed=19)
    investor = UserQualityStandard(
        "investor",
        mappings=[timeliness_from_age(10 * MINUTE)],
        acceptance={"timeliness": lambda t: t},
    )
    trader = UserQualityStandard(
        "trader",
        mappings=[timeliness_from_age(1 * MINUTE)],
        acceptance={"timeliness": lambda t: t},
    )
    print("Premises 2.1/2.2 — same ticks, different standards:")
    for entry in user_standards_report([investor, trader], ticks, "price"):
        print(
            f"  {entry['user']}: evaluates {entry['parameters']}, "
            f"accepts {entry['acceptance_rate']:.1%}"
        )
    print()

    # -- Premise 3: one user, different standards across data ------------------------
    analyst_strict = UserQualityStandard(
        "analyst",
        mappings=[timeliness_from_age(5 * MINUTE)],
        acceptance={"timeliness": lambda t: t},
    )
    analyst_loose = UserQualityStandard(
        "analyst",
        mappings=[timeliness_from_age(1.0)],
        acceptance={"timeliness": lambda t: t},
    )
    report = single_user_variation_report(
        {"price": analyst_strict}, ticks
    ) | single_user_variation_report({"price": analyst_loose}, ticks)
    # Render both standards explicitly for the comparison.
    strict_rate = analyst_strict.acceptance_rate(ticks, "price")
    loose_rate = analyst_loose.acceptance_rate(ticks, "price")
    print("Premise 3 — one analyst, two standards for different tasks:")
    print(f"  execution prices (≤5 min): accepts {strict_rate:.1%}")
    print(f"  end-of-day report (≤1 day): accepts {loose_rate:.1%}")


if __name__ == "__main__":
    main()
