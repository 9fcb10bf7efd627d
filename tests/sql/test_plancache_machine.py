"""State machine: cached plans and strict verdicts are never stale.

The plan cache and the strict-analysis memo reuse a cached decision
while every read it recorded still holds (``repro.sql.context``).  This
machine interleaves every kind of state change such a decision can
depend on — create/drop/recreate (structurally equal schemas included),
insert/delete, repartition (hash, range, none), profile
register/rebind/clear, swapping a tagged relation for its
``values_relation()`` under one name, and growth and shrinkage — and
after every step runs each statement through the planner, strict on
and off, checking:

- every result (or error) equals ``naive_execute``'s, and every strict
  verdict equals a fresh ``analyze_statement``'s;
- a planner call hits the cache whenever no read recorded by the entry
  it last used changed (an independent re-read, below);
- every cached plan equals a fresh plan of its statement against the
  live source, so a plan that merely happens to return the right rows
  (a stale access path, a stale score pushdown) is caught too.

It passes with and without ``REPRO_VERIFY_PLANS=1``; under the flag
every hit is additionally audited for DQ409.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.analysis.diagnostics import QueryAnalysisError
from repro.analysis.query import analyze_statement
from repro.experiments.naive import naive_execute
from repro.quality.materialize import (
    ScoringProfile,
    bind_profile,
    clear_profiles,
    profile_for,
    register_profile,
    registered_profiles,
)
from repro.quality.scoring import credibility_scorer, timeliness_scorer
from repro.relational import hash_partitions, range_partitions
from repro.relational.catalog import Database
from repro.relational.schema import schema
from repro.sql.parser import parse
from repro.sql.plancache import (
    PlanCache,
    clear_plan_cache,
    execute_planned,
    plan_statement,
)
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation

#: (statement, ordered result) over the mapping-held ``cust`` relation:
#: tag form, parameter form, and plain statements whose plans depend on
#: the partition layout.
CUST_STATEMENTS = [
    ("SELECT k, v FROM cust WHERE QUALITY(v.source) = 'audit'", False),
    ("SELECT k FROM cust WHERE QUALITY(credibility) > 0.5", False),
    (
        "SELECT k, QUALITY(credibility) AS c FROM cust "
        "ORDER BY QUALITY(credibility) DESC, k LIMIT 5",
        True,
    ),
    ("SELECT k FROM cust WHERE k >= 3 AND v = 'x'", False),
    ("SELECT v FROM cust WHERE k = 7", False),
    ("SELECT k FROM cust WHERE k < 15", False),
]

#: Statements over the Database-held plain ``events`` relation.
EVENTS_STATEMENTS = [
    ("SELECT id FROM events WHERE id >= 2", False),
    ("SELECT n FROM events WHERE id = 3", False),
    ("SELECT * FROM events", False),
]

LAYOUTS = {
    "none": None,
    "hash": hash_partitions("k", 4),
    "range": range_partitions("k", [10, 20, 30]),
}

RATINGS = [
    {"audit": 0.9, "phone": 0.3},
    {"audit": 0.4, "phone": 0.8},
]

TAGS = TagSchema(
    [IndicatorDefinition("source"), IndicatorDefinition("age", "FLOAT")],
    allowed={"v": ["source", "age"]},
)


def cust_schema(extra: bool):
    columns = [("k", "INT"), ("v", "STR")] + ([("w", "INT")] if extra else [])
    return schema("cust", columns)


def events_schema(extra: bool):
    columns = [("id", "INT"), ("n", "INT")] + ([("m", "INT")] if extra else [])
    return schema("events", columns)


def observe(source, fact, name):
    """One recorded fact, re-read here independently of the engine."""
    if fact == "catalog":
        return source.catalog_version if isinstance(source, Database) else None
    if isinstance(source, Database):
        relation = source.relation(name) if name in source else None
    else:
        relation = source.get(name)
    if relation is None:
        return None
    tagged = isinstance(relation, TaggedRelation)
    if fact == "kind":
        return "tagged" if tagged else "plain"
    if fact == "schema":
        return relation.schema
    if fact == "tag_schema":
        return relation.tag_schema if tagged else None
    if fact == "layout":
        return relation.partition_spec
    if fact == "profile":
        profile = profile_for(relation)
        return None if profile is None else (profile, profile.version)
    raise AssertionError(f"unexpected recorded fact {fact!r}")


def unchanged(source, reads) -> bool:
    for fact, name, value in reads:
        live = observe(source, fact, name)
        if fact in ("schema", "tag_schema"):
            if live is not value:
                return False
        elif live != value:
            return False
    return True


def error_codes(diagnostics):
    return sorted({d.code for d in diagnostics.errors()})


def outcome(run, ordered: bool):
    """A comparable summary of a call's result or failure."""
    try:
        result = run()
    except QueryAnalysisError as exc:
        return ("analysis", error_codes(exc.diagnostics))
    except Exception as exc:  # compared by class with the oracle's
        return ("error", type(exc).__name__)
    rows = [row.values_tuple() for row in result]
    return (
        "rows",
        isinstance(result, TaggedRelation),
        tuple(result.schema.column_names),
        rows if ordered else Counter(rows),
    )


class PlanCacheMachine(RuleBasedStateMachine):
    @initialize()
    def set_up(self):
        clear_profiles()
        clear_plan_cache()
        self.cache = PlanCache()
        self.next_key = 0
        self.tagged_view = None  # the tagged relation a plain view hides
        self.cust = {}
        self.recreate_cust(extra=False, rows=6)
        self.db = Database("db")
        self.db.create_relation(events_schema(False))
        self.insert_events(count=4)
        #: (source label, sql) → reads of the entry last used.
        self.last_reads: dict = {}

    def teardown(self):
        clear_profiles()
        clear_plan_cache()

    # -- helpers ---------------------------------------------------------------

    def keys(self, count):
        start = self.next_key
        self.next_key += count
        return range(start, start + count)

    def add_cust_rows(self, relation, count):
        for k in self.keys(count):
            v = "x" if k % 3 else "y"
            if isinstance(relation, TaggedRelation):
                tags = []
                if k % 4:
                    tags.append(IndicatorValue("source", ("audit", "phone")[k % 2]))
                if k % 5 == 0:
                    tags.append(IndicatorValue("age", float(k)))
                row = {"k": QualityCell(k), "v": QualityCell(v, tags)}
            else:
                row = {"k": k, "v": v}
            if "w" in relation.schema:
                row["w"] = QualityCell(k) if isinstance(relation, TaggedRelation) else k
            relation.insert(row)

    # -- the mapping-held relation ---------------------------------------------

    @rule(extra=st.booleans(), rows=st.integers(0, 12))
    def recreate_cust(self, extra, rows):
        """Drop and recreate: a fresh (possibly structurally equal)
        schema object."""
        relation = TaggedRelation(cust_schema(extra), TAGS)
        self.add_cust_rows(relation, rows)
        self.cust["cust"] = relation
        self.tagged_view = None

    @rule()
    def drop_cust(self):
        self.cust.pop("cust", None)
        self.tagged_view = None

    @rule(count=st.integers(1, 6))
    def insert_cust(self, count):
        if "cust" in self.cust:
            self.add_cust_rows(self.cust["cust"], count)

    @rule(modulus=st.integers(2, 4))
    def delete_cust(self, modulus):
        relation = self.cust.get("cust")
        if relation is None:
            return
        if isinstance(relation, TaggedRelation):
            relation.delete(lambda row: row["k"].value % modulus == 0)
        else:
            relation.delete(lambda row: row["k"] % modulus == 0)

    @rule(layout=st.sampled_from(sorted(LAYOUTS)))
    def repartition_cust(self, layout):
        if "cust" in self.cust:
            self.cust["cust"].repartition(LAYOUTS[layout])

    @rule()
    def swap_kind(self):
        """Swap the tagged relation and its values_relation() (which
        shares its schema object) under one name."""
        relation = self.cust.get("cust")
        if relation is None:
            return
        if isinstance(relation, TaggedRelation):
            self.tagged_view = relation
            self.cust["cust"] = relation.values_relation()
        elif self.tagged_view is not None:
            self.cust["cust"] = self.tagged_view
            self.tagged_view = None

    # -- the Database-held relation ------------------------------------------

    def insert_events(self, count):
        if "events" in self.db:
            relation = self.db.relation("events")
            for k in self.keys(count):
                row = {"id": k % 9, "n": k}
                if "m" in relation.schema:
                    row["m"] = -k
                relation.insert(row)

    @rule(count=st.integers(1, 6))
    def grow_events(self, count):
        self.insert_events(count)

    @rule(extra=st.booleans())
    def recreate_events(self, extra):
        if "events" in self.db:
            self.db.drop_relation("events")
        self.db.create_relation(events_schema(extra))
        self.insert_events(3)

    @rule()
    def drop_events(self):
        if "events" in self.db:
            self.db.drop_relation("events")

    @rule()
    def churn_catalog(self):
        """Create or drop an unrelated relation (a catalog version bump)."""
        if "other" in self.db:
            self.db.drop_relation("other")
        else:
            self.db.create_relation(schema("other", [("x", "INT")]))

    @rule(buckets=st.sampled_from([None, 2, 4]))
    def repartition_events(self, buckets):
        if "events" in self.db:
            spec = None if buckets is None else hash_partitions("id", buckets)
            self.db.repartition("events", spec)

    # -- scoring profiles ------------------------------------------------------

    @rule(variant=st.sampled_from([0, 1]), bind=st.booleans())
    def register(self, variant, bind):
        register_profile(
            ScoringProfile("grades", [credibility_scorer(RATINGS[variant])]),
            relations=["cust"] if bind else [],
        )

    @rule()
    def register_unrelated(self):
        """A registry mutation that binds nothing to ``cust``."""
        register_profile(
            ScoringProfile("timely", [timeliness_scorer(30.0)]),
            relations=["elsewhere"],
        )

    @rule(name=st.sampled_from(["grades", "timely"]))
    def rebind(self, name):
        if name in registered_profiles():
            bind_profile("cust", name)

    @rule()
    def clear_scoring(self):
        clear_profiles()

    # -- the check -------------------------------------------------------------

    @invariant()
    def cached_decisions_are_fresh(self):
        if not hasattr(self, "cache"):
            return
        for label, source, statements in (
            ("cust", self.cust, CUST_STATEMENTS),
            ("events", self.db, EVENTS_STATEMENTS),
        ):
            for sql, ordered in statements:
                self.check(label, source, sql, ordered)

    def check(self, label, source, sql, ordered):
        expected = outcome(lambda: naive_execute(sql, source), ordered)
        verdict = analyze_statement(parse(sql), source, sql=sql)
        rejected = ("analysis", error_codes(verdict))
        for strict in (False, True):
            want = rejected if strict and verdict.has_errors else expected
            key = (label, sql)
            reads = self.last_reads.get(key)
            expect_hit = reads is not None and unchanged(source, reads)
            hits = self.cache.hits
            got = outcome(
                lambda: execute_planned(
                    sql, source, strict=strict, cache=self.cache
                ),
                ordered,
            )
            assert got == want, (sql, strict, "planner")
            if expect_hit:
                assert self.cache.hits == hits + 1, (sql, "spurious miss")
            found = self.cache.lookup(sql, source)
            self.last_reads[key] = None if found is None else found[0].reads
            if found is not None:
                fresh, _, _ = plan_statement(found[0].statement, source)
                assert found[0].plan == fresh, (sql, "stale plan")


PlanCacheMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestPlanCacheMachine = PlanCacheMachine.TestCase
