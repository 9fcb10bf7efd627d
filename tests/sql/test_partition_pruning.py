"""Partition pruning: bucket derivation, plan shape, and equivalence.

Partitioning is a physical layout decision — it must never change what
a statement returns.  Three layers pin that down here:

- unit tests for :func:`derive_partition_buckets`, the single
  derivation shared by the optimizer rewrite and the DQ410 verifier;
- EXPLAIN shape tests that the ``prune_partitions`` rewrite bakes a
  ``partitions=k/N`` restriction into the scan while keeping the
  governing Filter in place;
- a Hypothesis property that a partitioned relation agrees with its
  flat twin and the naive oracle across cold/warm-cache and
  live/snapshot variations, including mutation-then-requery after a
  ``repartition()`` invalidates the cached plan.

Every shard is a subsequence of the flat row list, and a scan over
several shards merges them back into it, so partitioned results equal
the flat twin's row for row: the properties compare in order, with
ORDER BY ties and LIMIT.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.naive import naive_execute
from repro.relational import hash_partitions, range_partitions
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import clear_plan_cache, execute
from repro.sql.nodes import (
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
)
from repro.sql.optimizer import derive_partition_buckets

from tests.sql.test_planner_equivalence import (
    SCHEMA,
    canonical,
    order_clauses,
    predicates,
)


def col(name):
    return ColumnRef(name)


def lit(value):
    return Literal(value)


HASH_C = hash_partitions("c", 4)
RANGE_A = range_partitions("a", [2, 4])  # buckets: (<2), [2,4), (>=4)


class TestDeriveBuckets:
    def test_equality_pins_one_bucket(self):
        buckets = derive_partition_buckets(
            HASH_C, Comparison("=", col("c"), lit("x"))
        )
        assert buckets == frozenset({HASH_C.bucket_of("x")})

    def test_equality_is_symmetric(self):
        assert derive_partition_buckets(
            HASH_C, Comparison("=", lit("x"), col("c"))
        ) == frozenset({HASH_C.bucket_of("x")})

    def test_equality_with_null_matches_nothing(self):
        assert derive_partition_buckets(
            HASH_C, Comparison("=", col("c"), lit(None))
        ) == frozenset()

    def test_in_list_unions_options(self):
        buckets = derive_partition_buckets(
            HASH_C, InList(col("c"), ("x", "y", None))
        )
        assert buckets == frozenset(
            {HASH_C.bucket_of("x"), HASH_C.bucket_of("y")}
        )

    def test_not_in_derives_nothing(self):
        assert (
            derive_partition_buckets(
                HASH_C, InList(col("c"), ("x",), negated=True)
            )
            is None
        )

    def test_is_null_pins_the_null_bucket(self):
        assert derive_partition_buckets(
            HASH_C, IsNull(col("c"))
        ) == frozenset({HASH_C.bucket_of(None)})
        assert (
            derive_partition_buckets(HASH_C, IsNull(col("c"), negated=True))
            is None
        )

    def test_range_layout_prunes_inequalities(self):
        assert derive_partition_buckets(
            RANGE_A, Comparison("<", col("a"), lit(1))
        ) == frozenset({0})
        assert derive_partition_buckets(
            RANGE_A, Comparison(">=", col("a"), lit(4))
        ) == frozenset({2})
        assert derive_partition_buckets(
            RANGE_A, Comparison(">", col("a"), lit(2))
        ) == frozenset({1, 2})

    def test_hash_layout_ignores_inequalities(self):
        # Hash buckets carry no value order: a < comparison says
        # nothing about which buckets can match.
        assert (
            derive_partition_buckets(
                HASH_C, Comparison("<", col("c"), lit("x"))
            )
            is None
        )

    def test_and_intersects_or_unions(self):
        x_eq = Comparison("=", col("c"), lit("x"))
        y_eq = Comparison("=", col("c"), lit("y"))
        both = derive_partition_buckets(HASH_C, BoolOp("AND", x_eq, y_eq))
        assert both == frozenset(
            {HASH_C.bucket_of("x")} & {HASH_C.bucket_of("y")}
        )
        either = derive_partition_buckets(HASH_C, BoolOp("OR", x_eq, y_eq))
        assert either == frozenset(
            {HASH_C.bucket_of("x"), HASH_C.bucket_of("y")}
        )

    def test_and_keeps_derivable_side(self):
        pred = BoolOp(
            "AND",
            Comparison("=", col("c"), lit("x")),
            Comparison(">", col("b"), lit(1)),
        )
        assert derive_partition_buckets(HASH_C, pred) == frozenset(
            {HASH_C.bucket_of("x")}
        )

    def test_underivable_or_side_poisons_the_union(self):
        pred = BoolOp(
            "OR",
            Comparison("=", col("c"), lit("x")),
            Comparison(">", col("b"), lit(1)),
        )
        assert derive_partition_buckets(HASH_C, pred) is None

    def test_non_key_predicates_derive_nothing(self):
        assert (
            derive_partition_buckets(
                HASH_C, Comparison("=", col("b"), lit(1))
            )
            is None
        )
        assert (
            derive_partition_buckets(HASH_C, Comparison("=", col("c"), col("b")))
            is None
        )

    def test_boolean_literals(self):
        assert derive_partition_buckets(HASH_C, lit(True)) is None
        assert derive_partition_buckets(HASH_C, lit(False)) == frozenset()


# -- plan shape ---------------------------------------------------------------

EVENTS = RelationSchema(
    "events",
    [Column("id", "INT"), Column("region", "STR"), Column("n", "INT")],
)


def make_database(buckets=8):
    database = Database("pruning")
    relation = database.create_relation(
        EVENTS,
        enforce_key=False,
        partition_by=hash_partitions("region", buckets),
    )
    for i in range(60):
        relation.insert(
            {"id": i, "region": ["e", "w", "n", "s"][i % 4], "n": i % 7}
        )
    return database, relation


def explain(sql, source):
    clear_plan_cache()
    return "\n".join(row["plan"] for row in execute(f"EXPLAIN {sql}", source))


class TestPlanShape:
    def test_equality_scan_is_pruned(self):
        database, relation = make_database()
        plan = explain("SELECT id FROM events WHERE region = 'e'", database)
        assert "partitions=1/8" in plan
        # the Filter stays above the pruned scan: pruning only shrinks
        # the rows fed into it, it never replaces the predicate.
        assert "Filter" in plan

    def test_in_list_keeps_every_option_bucket(self):
        database, relation = make_database()
        spec = relation.partition_spec
        survivors = {spec.bucket_of("e"), spec.bucket_of("w")}
        plan = explain(
            "SELECT id FROM events WHERE region IN ('e', 'w')", database
        )
        assert f"partitions={len(survivors)}/8" in plan

    def test_contradiction_prunes_to_zero(self):
        database, _ = make_database()
        # 'e' and 's' hash into different buckets, so the AND of the
        # two equalities intersects to the empty bucket set.
        sql = (
            "SELECT id FROM events WHERE region = 'e' AND region = 's'"
        )
        assert "partitions=0/8" in explain(sql, database)
        clear_plan_cache()
        assert len(execute(sql, database)) == 0

    def test_non_key_predicate_scans_everything(self):
        database, _ = make_database()
        plan = explain("SELECT id FROM events WHERE n = 3", database)
        assert "partitions=" not in plan

    def test_flat_relation_never_prunes(self):
        database = Database("flat")
        relation = database.create_relation(EVENTS, enforce_key=False)
        relation.insert({"id": 1, "region": "e", "n": 0})
        plan = explain("SELECT id FROM events WHERE region = 'e'", database)
        assert "partitions=" not in plan

    def test_explain_analyze_reports_partition_rows(self):
        database, relation = make_database()
        clear_plan_cache()
        rendered = "\n".join(
            row["plan"]
            for row in execute(
                "EXPLAIN ANALYZE SELECT id FROM events WHERE region = 'e'",
                database,
            )
        )
        assert "partitions=1/8" in rendered
        assert "partition_rows=" in rendered


ORDERED = RelationSchema("t", [Column("k", "INT"), Column("v", "INT")])


def ordered_relation():
    """40 rows ``(i % 8, i)`` hash-partitioned four ways on ``k``."""
    relation = Relation.from_tuples(ORDERED, [(i % 8, i) for i in range(40)])
    relation.repartition(hash_partitions("k", 4))
    return relation


def rows_of(result):
    return [row.values_tuple() for row in result]


class TestFlatOrder:
    """Partitioned scans return rows in the flat relation's order."""

    def test_multi_shard_scan_merges_back_into_flat_order(self):
        relation = ordered_relation()
        sql = "SELECT k, v FROM t WHERE k IN (1, 2, 3, 5) LIMIT 3"
        assert "partitions=3/4" in explain(sql, relation)
        clear_plan_cache()
        assert rows_of(execute(sql, relation)) == [(1, 1), (2, 2), (3, 3)]
        assert rows_of(execute(sql, relation.read_snapshot())) == [
            (1, 1), (2, 2), (3, 3)
        ]
        assert rows_of(execute(sql, relation)) == rows_of(
            naive_execute(sql, relation)
        )

    def test_key_changing_update_keeps_the_row_in_place(self):
        relation = ordered_relation()
        assert relation.update(lambda row: row["v"] == 3, lambda row: {"k": 0})
        sql = "SELECT k, v FROM t WHERE k = 0 LIMIT 2"
        assert "partitions=1/4" in explain(sql, relation)
        clear_plan_cache()
        assert rows_of(execute(sql, relation)) == [(0, 0), (0, 3)]
        flat = relation.row_batch()
        for shard in relation.partitions():
            sequence = list(shard.row_sequence())
            assert sequence == sorted(sequence)
            assert [flat.index(row) for row in shard.row_batch()] == sorted(
                flat.index(row) for row in shard.row_batch()
            )


class TestRepartitionInvalidation:
    SQL = "SELECT id FROM events WHERE region = 'e'"

    def test_cached_plan_survives_relayout(self):
        database, relation = make_database(buckets=8)
        clear_plan_cache()
        baseline = sorted(r["id"] for r in execute(self.SQL, database))
        # The cached plan pins the 8-bucket layout; repartitioning must
        # miss it and replan against the 4-bucket layout.
        relation.repartition(hash_partitions("region", 4))
        assert sorted(r["id"] for r in execute(self.SQL, database)) == baseline
        assert "partitions=1/4" in explain(self.SQL, database)

    def test_mutation_then_requery_after_repartition(self):
        database, relation = make_database(buckets=8)
        clear_plan_cache()
        before = len(execute(self.SQL, database))
        relation.repartition(range_partitions("n", [3]))
        relation.insert({"id": 999, "region": "e", "n": 1})
        result = execute(self.SQL, database)
        assert len(result) == before + 1
        assert 999 in {r["id"] for r in result}

    def test_dropping_the_layout_falls_back_to_flat_scans(self):
        database, relation = make_database(buckets=8)
        clear_plan_cache()
        baseline = sorted(r["id"] for r in execute(self.SQL, database))
        relation.repartition(None)
        assert sorted(r["id"] for r in execute(self.SQL, database)) == baseline
        assert "partitions=" not in explain(self.SQL, database)


# -- equivalence property -----------------------------------------------------

LAYOUTS = [
    hash_partitions("c", 4),
    hash_partitions("c", 2),
    hash_partitions("a", 4),
    range_partitions("a", [2, 4]),
]

#: Conjuncts that pin the partition key, so the rewrite actually fires
#: (a purely random predicate rarely restricts the key column).
KEY_PINS = [
    "c = 'x'",
    "c = 'y'",
    "c IN ('x', 'z')",
    "c IS NULL",
    "a = 1",
    "a IN (0, 3)",
    "a < 3",
    "a >= 2",
]

#: Per layout, pins that keep several of its buckets: the surviving
#: shards must merge back into the flat order.
MULTI_SHARD_PINS = {
    LAYOUTS[0]: ["c IN ('x', 'y')", "c = 'y' OR c IS NULL"],
    LAYOUTS[1]: ["c = 'x' OR c IS NULL", "c IN ('y', 'z') OR c IS NULL"],
    LAYOUTS[2]: ["a IN (0, 3)", "a IN (1, 4, 5)"],
    LAYOUTS[3]: ["a < 3", "a >= 2", "a IN (0, 3)"],
}


@st.composite
def pruning_relations(draw):
    """Up to 30 rows over few values, so the rows one pin keeps
    usually span several shards and interleave in the flat order."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([None, 0, 1, 2, 3, 4, 5]),
                st.sampled_from([None, 0, 1, 2]),
                st.sampled_from([None, "x", "y", "z"]),
            ),
            max_size=30,
        )
    )
    return Relation.from_tuples(SCHEMA, rows)


@st.composite
def pruning_statements(draw, layout=None):
    """SELECTs whose WHERE usually restricts a partition key, with
    optional ORDER BY (ties included) and LIMIT.  Given the layout, half
    the pins keep several of its buckets."""
    pins = [None, *KEY_PINS]
    if layout is not None and draw(st.booleans()):
        pins = MULTI_SHARD_PINS[layout]
    pin = draw(st.sampled_from(pins))
    extra = draw(st.one_of(st.none(), st.none(), predicates(quality=False)))
    conjuncts = [f"({part})" for part in (pin, extra) if part]
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    tail = f" LIMIT {limit}" if limit is not None else ""
    if draw(st.booleans()):
        select = draw(
            st.sampled_from(
                ["*", "a", "a, c", "DISTINCT c", "b, a, c", "DISTINCT a, b"]
            )
        )
        order = draw(order_clauses(["a", "b", "c"]))
        return f"SELECT {select} FROM t{where}{order}{tail}"
    select, keys = draw(
        st.sampled_from(
            [
                ("COUNT(*) AS n", ["n"]),
                ("c, COUNT(*) AS n", ["c", "n"]),
                ("SUM(a) AS sa, MIN(b) AS mb", ["sa", "mb"]),
            ]
        )
    )
    group = " GROUP BY c" if select.startswith("c,") else ""
    order = draw(order_clauses(keys))
    return f"SELECT {select} FROM t{where}{group}{order}{tail}"


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPartitionEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(pruning_relations(), st.data())
    def test_partitioned_agrees_with_flat_and_naive(self, relation, data):
        layout = data.draw(st.sampled_from(LAYOUTS))
        sql = data.draw(pruning_statements(layout))
        partitioned = relation.copy()
        partitioned.repartition(layout)
        clear_plan_cache()
        cold = canonical(execute(sql, partitioned))
        cached = canonical(execute(sql, partitioned))
        snapshot = canonical(execute(sql, partitioned.read_snapshot()))
        flat = canonical(execute(sql, relation))
        naive = canonical(naive_execute(sql, relation))
        assert cold == cached
        assert cold == snapshot
        assert cold == flat
        assert cold == naive

    @settings(max_examples=40, deadline=None)
    @given(pruning_relations(), pruning_statements(LAYOUTS[3]))
    def test_repartition_then_requery_on_a_cached_plan(self, relation, sql):
        partitioned = relation.copy()
        partitioned.repartition(hash_partitions("c", 4))
        clear_plan_cache()
        first = canonical(execute(sql, partitioned))
        partitioned.repartition(range_partitions("a", [3]))
        after_relayout = canonical(execute(sql, partitioned))
        assert first == after_relayout
        for twin in (partitioned, relation):
            twin.insert({"a": 1, "b": 1, "c": "x"})
        requeried = canonical(execute(sql, partitioned))
        assert requeried == canonical(execute(sql, relation))
        # A key-changing update moves rows between range buckets; each
        # keeps its place in the flat order.
        for twin in (partitioned, relation):
            twin.update(lambda row: row["b"] == 1, lambda row: {"a": 4})
        moved = canonical(execute(sql, partitioned))
        assert moved == canonical(execute(sql, relation))
        assert moved == canonical(naive_execute(sql, relation))
