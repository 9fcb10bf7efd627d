"""The paper's worked examples and the scaled synthetic scenarios.

Canonical artifacts (exact paper content):

- :func:`table1_relation` / :func:`table2_relation` — the customer
  relation, untagged and tagged (§1.2, Tables 1-2);
- :func:`trading_er_schema` — the Figure 3 application view;
- :func:`run_trading_methodology` — the full Steps 1-4 run whose
  intermediate artifacts are Figures 4 and 5.

Scaled synthetic scenarios (for the quantitative experiments):

- :func:`customer_database` — an n-company manufactured customer DB
  with heterogeneous sources (E2, heterogeneity analyses);
- :func:`clearinghouse` — the §4 address clearinghouse with
  mass-mailing / fund-raising profiles (E1);
- :func:`trading_ticks` — price ticks with varying ages (E6);
- :func:`duplicated_customers` — error-injected duplicates (E7);
- :func:`degraded_federation` — unreliable quote feeds with injected
  faults for the fault-tolerant acquisition experiment (E4).
"""

from __future__ import annotations

import datetime as _dt
import random
from typing import Any

from repro.core.methodology import DataQualityModeling
from repro.er.model import (
    Cardinality,
    Entity,
    ERAttribute,
    ERSchema,
    Participant,
    Relationship,
)
from repro.manufacturing.collection import standard_methods
from repro.manufacturing.generator import make_address_book, make_companies
from repro.manufacturing.pipeline import ManufacturingPipeline
from repro.manufacturing.sources import DataSource
from repro.manufacturing.world import (
    AttributeSpec,
    World,
    choice_replacement,
    integer_step,
)
from repro.quality.profiles import ApplicationProfile, ProfileRegistry
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.query import IndicatorConstraint, QualityFilter
from repro.tagging.relation import TaggedRelation

# ---------------------------------------------------------------------------
# Tables 1 and 2 (§1.2)
# ---------------------------------------------------------------------------

CUSTOMER_SCHEMA = schema(
    "customer",
    [("co_name", "STR"), ("address", "STR"), ("employees", "INT")],
    key=["co_name"],
    doc="Corporate customer information (the paper's running small example)",
)


def table1_relation() -> Relation:
    """Table 1: customer information, untagged."""
    return Relation.from_tuples(
        CUSTOMER_SCHEMA,
        [
            ("Fruit Co", "12 Jay St", 4004),
            ("Nut Co", "62 Lois Av", 700),
        ],
    )


def customer_tag_schema() -> TagSchema:
    """The tag schema behind Table 2: (creation_time, source) per cell."""
    return TagSchema(
        indicators=[
            IndicatorDefinition("creation_time", "DATE", "when recorded"),
            IndicatorDefinition("source", "STR", "who recorded it"),
        ],
        allowed={
            "address": ["creation_time", "source"],
            "employees": ["creation_time", "source"],
        },
    )


def table2_relation() -> TaggedRelation:
    """Table 2: the same customers with the paper's exact quality tags."""
    relation = TaggedRelation(CUSTOMER_SCHEMA, customer_tag_schema())
    relation.insert(
        {
            "co_name": "Fruit Co",
            "address": QualityCell(
                "12 Jay St",
                [
                    IndicatorValue("creation_time", _dt.date(1991, 1, 2)),
                    IndicatorValue("source", "sales"),
                ],
            ),
            "employees": QualityCell(
                4004,
                [
                    IndicatorValue("creation_time", _dt.date(1991, 10, 3)),
                    IndicatorValue("source", "Nexis"),
                ],
            ),
        }
    )
    relation.insert(
        {
            "co_name": "Nut Co",
            "address": QualityCell(
                "62 Lois Av",
                [
                    IndicatorValue("creation_time", _dt.date(1991, 10, 24)),
                    IndicatorValue("source", "acct'g"),
                ],
            ),
            "employees": QualityCell(
                700,
                [
                    IndicatorValue("creation_time", _dt.date(1991, 10, 9)),
                    IndicatorValue("source", "estimate"),
                ],
            ),
        }
    )
    return relation


# ---------------------------------------------------------------------------
# Figure 3: the stock-trading application view
# ---------------------------------------------------------------------------


def trading_er_schema() -> ERSchema:
    """The Figure 3 ER schema: client, company stock, and trade."""
    er = ERSchema(
        "trading",
        doc=(
            "A stock trader keeps information about companies, and trades "
            "of company stocks by clients (§3.1)."
        ),
    )
    er.add_entity(
        Entity(
            "client",
            attributes=[
                ERAttribute("account_number", "STR", "client identifier"),
                ERAttribute("name", "STR"),
                ERAttribute("address", "STR"),
                ERAttribute("telephone", "STR"),
            ],
            key=["account_number"],
        )
    )
    er.add_entity(
        Entity(
            "company_stock",
            attributes=[
                ERAttribute(
                    "ticker_symbol",
                    "STR",
                    "short identifier used by the stock exchange",
                ),
                ERAttribute("share_price", "FLOAT"),
                ERAttribute("research_report", "STR"),
            ],
            key=["ticker_symbol"],
        )
    )
    er.add_relationship(
        Relationship(
            "trade",
            participants=[
                Participant("client", Cardinality.MANY),
                Participant("company_stock", Cardinality.MANY),
            ],
            attributes=[
                ERAttribute("date", "DATE"),
                ERAttribute("quantity", "INT"),
                ERAttribute("trade_price", "FLOAT"),
            ],
            doc="a buy/sell of company stock by a client",
        )
    )
    return er


#: Step 2 parameter requests for the trading example (Figure 4 content).
TRADING_PARAMETER_REQUESTS: tuple[tuple[tuple[str, ...], str, str], ...] = (
    (
        ("company_stock", "share_price"),
        "timeliness",
        "the user is concerned with how old the price data is",
    ),
    (
        ("company_stock", "research_report"),
        "credibility",
        "whose analysis is this?",
    ),
    (
        ("company_stock", "research_report"),
        "cost",
        "the user is concerned with the price of the data",
    ),
    (
        ("company_stock", "research_report"),
        "interpretability",
        "reports arrive in multiple stored formats",
    ),
    (
        ("client", "telephone"),
        "accuracy",
        "multiple collection mechanisms are used for telephone numbers",
    ),
    (
        ("trade",),
        "inspection",
        "trade records must be verifiable (the '√ inspection' requirement)",
    ),
)

#: Step 3 explicit operationalizations reproducing Figure 5 exactly.
def trading_indicator_decisions() -> dict[tuple[tuple[str, ...], str], list[Any]]:
    """The design team's Figure 5 choices, expressed as Step 3 decisions."""
    from repro.core.terminology import QualityIndicatorSpec

    return {
        (("company_stock", "share_price"), "timeliness"): [
            QualityIndicatorSpec(
                "age", "FLOAT", measure="days since quote", doc="age of the datum"
            )
        ],
        (("company_stock", "research_report"), "credibility"): [
            QualityIndicatorSpec(
                "analyst_name", "STR", doc="analyst credited for the report"
            )
        ],
        (("company_stock", "research_report"), "cost"): [
            QualityIndicatorSpec("price", "FLOAT", doc="monetary price of the data")
        ],
        (("company_stock", "research_report"), "interpretability"): [
            QualityIndicatorSpec(
                "media", "STR", doc="stored format: bitmap, ASCII, postscript"
            )
        ],
        (("client", "telephone"), "accuracy"): [
            QualityIndicatorSpec(
                "collection_method",
                "STR",
                doc="'over the phone' or 'from an information service'",
            )
        ],
        (("trade",), "inspection"): [
            QualityIndicatorSpec(
                "inspection",
                "STR",
                doc="inspection mechanism maintaining data reliability",
            )
        ],
    }


def run_trading_methodology() -> DataQualityModeling:
    """Run Steps 1-4 on the trading example; returns the loaded pipeline.

    The returned object carries the application view (Figure 3), the
    parameter view (Figure 4), the quality view (Figure 5), and the
    integrated quality schema.
    """
    modeling = DataQualityModeling()
    application_view = modeling.step1(
        trading_er_schema(),
        "Client is identified by an account number, and has a name, address "
        "and telephone number.  Company stock is identified by the ticker "
        "symbol, and has share price and research report.  A trade records "
        "date, quantity of shares, and trade price.",
    )
    parameter_view = modeling.step2(
        application_view, TRADING_PARAMETER_REQUESTS
    )
    quality_view = modeling.step3(
        parameter_view, decisions=trading_indicator_decisions(), auto=False
    )
    modeling.step4([quality_view])
    return modeling


# ---------------------------------------------------------------------------
# Scaled customer database (E2, heterogeneity)
# ---------------------------------------------------------------------------


def customer_database(
    n_companies: int = 200,
    seed: int = 11,
    simulated_days: int = 180,
) -> tuple[World, ManufacturingPipeline, TaggedRelation]:
    """A manufactured n-company customer database with mixed sources.

    Addresses come from the accurate, current accounting department;
    employee counts from a noisy, laggy estimation source — reproducing
    the §1.2 "disparate sources" situation at scale.
    """
    companies = make_companies(n_companies, seed=seed)
    address_pool = [values["address"] for values in companies.values()]
    world = World(
        _dt.date(1991, 1, 1),
        companies,
        specs=[
            AttributeSpec("employees", 0.01, integer_step(50)),
            AttributeSpec("address", 0.001, choice_replacement(address_pool)),
        ],
        seed=seed,
    )
    world.advance(simulated_days)
    methods = standard_methods(seed=seed)
    pipeline = ManufacturingPipeline(world, CUSTOMER_SCHEMA, "co_name")
    pipeline.assign(
        "address",
        DataSource("acct'g", world, error_rate=0.02, latency_days=3, seed=seed),
        methods["manual_entry"],
    )
    pipeline.assign(
        "employees",
        DataSource(
            "estimate", world, error_rate=0.30, latency_days=45, seed=seed + 1
        ),
        methods["over_the_phone"],
    )
    relation = pipeline.manufacture()
    return world, pipeline, relation


# ---------------------------------------------------------------------------
# §4: the address clearinghouse (E1)
# ---------------------------------------------------------------------------

ADDRESS_SCHEMA = schema(
    "address_book",
    [
        ("person_id", "STR"),
        ("name", "STR"),
        ("address", "STR"),
        ("city", "STR"),
    ],
    key=["person_id"],
    doc="An information clearinghouse for addresses of individuals (§4)",
)


def clearinghouse(
    n_people: int = 500,
    seed: int = 23,
    simulated_days: int = 365,
) -> tuple[World, ManufacturingPipeline, TaggedRelation, ProfileRegistry]:
    """The §4 clearinghouse: people, drifting addresses, graded profiles.

    Two sources feed addresses: a reliable postal feed and a cheap
    purchased list (higher error, long latency).  Two stored profiles
    reproduce §4's grades:

    - ``mass_mailing`` — no indicator constraints;
    - ``fund_raising`` — requires a reliable source and recent creation.
    """
    book = make_address_book(n_people, seed=seed)
    street_pool = sorted({values["address"] for values in book.values()})
    world = World(
        _dt.date(1990, 1, 1),
        book,
        specs=[
            AttributeSpec("address", 0.004, choice_replacement(street_pool)),
        ],
        seed=seed,
    )
    world.advance(simulated_days)
    methods = standard_methods(seed=seed)
    pipeline = ManufacturingPipeline(world, ADDRESS_SCHEMA, "person_id")
    rng = random.Random(seed)

    postal = DataSource(
        "postal_feed", world, error_rate=0.02, latency_days=7, seed=seed
    )
    purchased = DataSource(
        "purchased_list", world, error_rate=0.20, latency_days=180, seed=seed + 1
    )

    # Route name/city through the postal feed; addresses are split
    # between the two sources per person, mimicking a clearinghouse that
    # merged two acquisitions.  The split is realized by manufacturing
    # twice and interleaving rows.
    pipeline.assign("name", postal, methods["information_service"])
    pipeline.assign("city", postal, methods["information_service"])
    pipeline.assign("address", postal, methods["information_service"])
    relation_postal = pipeline.manufacture()

    pipeline_b = ManufacturingPipeline(
        world, ADDRESS_SCHEMA, "person_id", trail=pipeline.trail
    )
    pipeline_b.assign("name", purchased, methods["over_the_phone"])
    pipeline_b.assign("city", purchased, methods["over_the_phone"])
    pipeline_b.assign("address", purchased, methods["over_the_phone"])
    relation_purchased = pipeline_b.manufacture()
    pipeline.manufactured.extend(pipeline_b.manufactured)

    merged = TaggedRelation(ADDRESS_SCHEMA, relation_postal.tag_schema)
    for row_a, row_b in zip(relation_postal, relation_purchased):
        merged.insert(row_a if rng.random() < 0.5 else row_b)

    registry = ProfileRegistry()
    registry.register(
        ApplicationProfile(
            "mass_mailing",
            QualityFilter(name="mass_mailing"),
            "no need to reach the correct individual: no quality constraints",
        )
    )
    fresh_cutoff = world.today - _dt.timedelta(days=60)
    registry.register(
        ApplicationProfile(
            "fund_raising",
            QualityFilter(
                [
                    IndicatorConstraint("address", "source", "==", "postal_feed"),
                    IndicatorConstraint(
                        "address", "creation_time", ">=", fresh_cutoff
                    ),
                ],
                name="fund_raising",
            ),
            "sensitive application: constrain source and freshness",
        )
    )
    return world, pipeline, merged, registry


# ---------------------------------------------------------------------------
# Trading ticks with latency (E6)
# ---------------------------------------------------------------------------

TICK_SCHEMA = schema(
    "ticks",
    [("ticker", "STR"), ("price", "FLOAT")],
    doc="Share-price quotes with per-quote age tags",
)


def trading_ticks(n_ticks: int = 400, seed: int = 31) -> TaggedRelation:
    """Price quotes whose ``age`` tags span seconds to days.

    Ages are drawn from a long-tailed distribution (most quotes fresh,
    some stale) so different user standards accept visibly different
    fractions (Premise 2.2's investor vs. trader).
    """
    rng = random.Random(seed)
    tag_schema = TagSchema(
        indicators=[
            IndicatorDefinition("age", "FLOAT", "age of the quote in days"),
            IndicatorDefinition("source", "STR"),
        ],
        required={"price": ["age"]},
        allowed={"price": ["source"]},
    )
    relation = TaggedRelation(TICK_SCHEMA, tag_schema)
    tickers = [f"T{i:03d}" for i in range(25)]
    for _ in range(n_ticks):
        # Log-uniform ages from ~1 second to ~2 days (in days).
        age_days = 10 ** rng.uniform(-4.9, 0.3)
        relation.insert(
            {
                "ticker": rng.choice(tickers),
                "price": QualityCell(
                    round(rng.uniform(5, 500), 2),
                    [
                        IndicatorValue("age", age_days),
                        IndicatorValue(
                            "source",
                            rng.choice(["consolidated_feed", "delayed_feed"]),
                        ),
                    ],
                ),
            }
        )
    return relation


# ---------------------------------------------------------------------------
# Duplicated customers for record linkage (E7)
# ---------------------------------------------------------------------------


def duplicated_customers(
    n_base: int = 120,
    duplicate_fraction: float = 0.4,
    seed: int = 47,
) -> tuple[list[dict[str, Any]], int]:
    """Customer records with error-injected duplicates.

    Returns ``(records, n_duplicates)``; each record carries a hidden
    ``_entity`` field naming its true identity (used only by the
    evaluation, never by the linkage model).
    """
    from repro.manufacturing.errorsim import (
        dropped_character,
        transposition,
        typo,
    )

    rng = random.Random(seed)
    companies = make_companies(n_base, seed=seed)
    records: list[dict[str, Any]] = []
    for name, values in companies.items():
        records.append(
            {
                "_entity": name,
                "co_name": name,
                "address": values["address"],
                "employees": values["employees"],
            }
        )
    injectors = [typo, transposition, dropped_character]
    n_duplicates = int(n_base * duplicate_fraction)
    base_names = list(companies)
    for i in range(n_duplicates):
        original = companies[base_names[i % len(base_names)]]
        name = base_names[i % len(base_names)]
        # Name: one to three keying errors.
        corrupt_name = name
        for _ in range(rng.randint(1, 3)):
            corrupt_name = rng.choice(injectors)(rng, corrupt_name)
        # Address: usually a keying error; sometimes the person moved and
        # the duplicate record has a *different* address entirely.
        if rng.random() < 0.25:
            corrupt_address = f"{rng.randint(1, 999)} Relocated Av"
        elif rng.random() < 0.6:
            corrupt_address = rng.choice(injectors)(rng, original["address"])
        else:
            corrupt_address = original["address"]
        # Employees: small drift usually, occasionally a stale figure far
        # from the current one.
        if rng.random() < 0.2:
            employees = int(original["employees"] * rng.uniform(1.6, 2.5))
        elif rng.random() < 0.5:
            employees = original["employees"] + rng.randint(-5, 5)
        else:
            employees = original["employees"]
        records.append(
            {
                "_entity": name,
                "co_name": corrupt_name,
                "address": corrupt_address,
                "employees": employees,
            }
        )
    rng.shuffle(records)
    return records, n_duplicates


# ---------------------------------------------------------------------------
# Degraded federation (E4)
# ---------------------------------------------------------------------------


def degraded_federation(
    n_sources: int = 3,
    n_rows: int = 200,
    error_rate: float = 0.3,
    seed: int = 53,
    max_attempts: int = 3,
):
    """E4: a federation of unreliable quote feeds with injected faults.

    ``n_sources`` quote databases share a ticker universe (so the union
    corroborates overlapping values) and each is wrapped as an
    :class:`~repro.polygen.faults.UnreliableSource` with a seeded
    injector at ``error_rate``.  All time — injected latency, retry
    backoff, acquisition stamps — flows through one shared
    :class:`~repro.polygen.retry.ManualClock`, so runs are instantaneous
    and fully reproducible.

    Returns ``(federation, injectors, clock)`` where ``injectors`` maps
    source name to its :class:`~repro.polygen.faults.FaultInjector`.
    """
    from repro.polygen.faults import FaultInjector
    from repro.polygen.federation import Federation
    from repro.polygen.retry import CircuitBreaker, ManualClock, RetryPolicy
    from repro.relational.catalog import Database

    rng = random.Random(seed)
    quote_schema = schema(
        "quotes", [("ticker", "STR"), ("price", "FLOAT")], key=["ticker"]
    )
    tickers = [f"T{i:04d}" for i in range(n_rows)]
    clock = ManualClock(start=0.0)
    federation = Federation("markets")
    injectors = {}
    for index in range(n_sources):
        name = f"feed{index}"
        db = Database(name)
        db.create_relation(quote_schema)
        for position, ticker in enumerate(tickers):
            # Sources mostly agree; occasional per-source disagreement
            # exercises conflict rows in the union.
            price = round(100.0 + (position * 37 % 400) / 4.0, 2)
            if rng.random() < 0.05:
                price = round(price + rng.uniform(0.5, 3.0), 2)
            db.insert("quotes", {"ticker": ticker, "price": price})
        federation.register(db, credibility=1.0 - index * 0.1)
        injectors[name] = FaultInjector(
            error_rate=error_rate, seed=seed + index, sleep=clock.sleep
        )
        federation.wrap_unreliable(
            name,
            injector=injectors[name],
            retry=RetryPolicy(
                max_attempts=max_attempts,
                base_delay=0.05,
                sleep=clock.sleep,
                clock=clock,
            ),
            breaker=CircuitBreaker(
                failure_threshold=max_attempts + 1,
                recovery_time=30.0,
                clock=clock,
            ),
            wall_clock=clock,
        )
    return federation, injectors, clock
