"""Unit tests for first-class partitioning (PartitionSpec + relations).

The bucket hash must be stable across processes (the on-disk
``key=<bucket>`` layout depends on it), routing must agree with the
flat canonical row list under every mutation, and dirty-partition
tracking must mark exactly the shards a mutation touched.
"""

import datetime as dt

import pytest

from repro.errors import SchemaError, SnapshotWriteError
from repro.relational.partition import (
    PartitionSpec,
    hash_partitions,
    range_partitions,
    stable_bucket_hash,
)
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.tagging.indicators import IndicatorDefinition, TagSchema
from repro.tagging.relation import TaggedRelation

EVENTS = schema("events", [("id", "INT"), ("region", "STR"), ("n", "INT")])


def make_events(count=40, spec=None):
    relation = Relation(EVENTS)
    if spec is not None:
        relation.repartition(spec)
    for i in range(count):
        relation.insert(
            {"id": i, "region": ["a", "b", "c", "d"][i % 4], "n": i % 7}
        )
    return relation


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_bucket_hash("north") == stable_bucket_hash("north")

    def test_known_anchors(self):
        # Pinned values: a change here silently reshuffles every
        # on-disk key=<bucket> directory written by earlier versions.
        assert stable_bucket_hash("north") % 64 == 28
        assert stable_bucket_hash(7) % 64 == 14
        assert stable_bucket_hash(None) % 64 == 49

    def test_numeric_unification(self):
        # 7, 7.0 and True/1 compare equal in predicates, so equality
        # pruning requires them to land in the same bucket.
        assert stable_bucket_hash(7) == stable_bucket_hash(7.0)
        assert stable_bucket_hash(1) == stable_bucket_hash(True)
        assert stable_bucket_hash(0) == stable_bucket_hash(False)

    def test_types_do_not_collide_with_their_reprs(self):
        assert stable_bucket_hash(7) != stable_bucket_hash("7")
        assert stable_bucket_hash(None) != stable_bucket_hash("None")

    def test_temporal_values(self):
        day = dt.date(2026, 8, 8)
        stamp = dt.datetime(2026, 8, 8, 12, 0)
        assert stable_bucket_hash(day) == stable_bucket_hash(day)
        assert stable_bucket_hash(day) != stable_bucket_hash(stamp)

    def test_non_finite_floats_hash(self):
        assert isinstance(stable_bucket_hash(float("inf")), int)
        assert isinstance(stable_bucket_hash(float("nan")), int)


class TestPartitionSpec:
    def test_hash_spec(self):
        spec = hash_partitions("region", 8)
        assert spec.kind == "hash"
        assert spec.count == 8
        assert 0 <= spec.bucket_of("x") < 8
        assert spec.describe() == "hash(region, 8)"

    def test_range_spec(self):
        spec = range_partitions("n", [10, 20])
        assert spec.count == 3
        assert spec.bucket_of(5) == 0
        assert spec.bucket_of(10) == 1  # bounds are exclusive upper
        assert spec.bucket_of(19) == 1
        assert spec.bucket_of(20) == 2
        assert spec.bucket_of(None) == 0
        assert spec.describe() == "range(n, bounds=[10, 20])"

    def test_validation(self):
        with pytest.raises(SchemaError):
            hash_partitions("region", 0)
        with pytest.raises(SchemaError):
            range_partitions("n", [])
        with pytest.raises(SchemaError):
            range_partitions("n", [20, 10])
        with pytest.raises(SchemaError):
            PartitionSpec("hash", "region", buckets=4, bounds=(1,))
        with pytest.raises(SchemaError):
            PartitionSpec("blorp", "region", buckets=4)

    def test_dict_round_trip(self):
        for spec in (hash_partitions("region", 8), range_partitions("n", [10])):
            assert PartitionSpec.from_dict(spec.to_dict()) == spec


class TestRelationPartitioning:
    def test_routing_covers_every_row(self):
        relation = make_events(spec=hash_partitions("region", 8))
        spec = relation.partition_spec
        assert sum(len(p) for p in relation.partitions()) == len(relation)
        for bucket, shard in enumerate(relation.partitions()):
            for row in shard.row_batch():
                assert spec.bucket_of(row["region"]) == bucket

    def test_repartition_existing_rows(self):
        relation = make_events()
        assert relation.partition_spec is None
        relation.repartition(range_partitions("n", [3]))
        assert relation.partition_spec.count == 2
        low, high = relation.partitions()
        assert all(r["n"] < 3 for r in low.row_batch())
        assert all(r["n"] >= 3 for r in high.row_batch())
        assert sorted(r["id"] for r in relation.rows) == list(range(40))

    def test_repartition_bumps_layout_version(self):
        relation = make_events(spec=hash_partitions("region", 8))
        version = relation.partition_layout_version
        relation.repartition(hash_partitions("region", 4))
        assert relation.partition_layout_version > version
        relation.repartition(None)
        assert relation.partition_spec is None
        assert relation.partitions() == []

    def test_insert_marks_only_target_dirty(self):
        relation = make_events(spec=hash_partitions("region", 8))
        relation.mark_partitions_clean()
        relation.insert({"id": 100, "region": "a", "n": 1})
        spec = relation.partition_spec
        assert relation.dirty_partitions == {spec.bucket_of("a")}

    def test_delete_touches_only_affected_buckets(self):
        relation = make_events(spec=hash_partitions("region", 8))
        relation.mark_partitions_clean()
        spec = relation.partition_spec
        removed = relation.delete(lambda r: r["region"] == "b")
        assert removed == 10
        assert len(relation) == 30
        assert relation.dirty_partitions == {spec.bucket_of("b")}
        assert sum(len(p) for p in relation.partitions()) == 30
        assert relation.delete(lambda r: False) == 0

    def test_update_moves_rows_between_buckets(self):
        relation = make_events(spec=hash_partitions("region", 8))
        relation.mark_partitions_clean()
        spec = relation.partition_spec
        count = relation.update(
            lambda r: r["region"] == "c",
            lambda r: {"region": "a"},
        )
        assert count == 10
        source, target = spec.bucket_of("c"), spec.bucket_of("a")
        assert len(relation.partition(source)) == 0
        assert {source, target} <= relation.dirty_partitions
        assert sum(len(p) for p in relation.partitions()) == len(relation)
        # flat canonical list agrees with the shards
        assert sorted(r["region"] for r in relation.rows).count("a") == 20

    def test_update_within_bucket_stays_put(self):
        relation = make_events(spec=hash_partitions("region", 8))
        relation.mark_partitions_clean()
        spec = relation.partition_spec
        relation.update(
            lambda r: r["region"] == "a", lambda r: {"n": 99}
        )
        assert relation.dirty_partitions == {spec.bucket_of("a")}
        shard = relation.partition(spec.bucket_of("a"))
        assert all(r["n"] == 99 for r in shard.row_batch())

    def test_copy_preserves_layout(self):
        relation = make_events(spec=hash_partitions("region", 8))
        clone = relation.copy()
        assert clone.partition_spec == relation.partition_spec
        assert [len(p) for p in clone.partitions()] == [
            len(p) for p in relation.partitions()
        ]
        clone.insert({"id": 500, "region": "a", "n": 0})
        assert len(relation) == 40  # independent storage

    def test_shards_share_schema_and_version_gate(self):
        relation = make_events(spec=hash_partitions("region", 8))
        shard = relation.partition(relation.partition_spec.bucket_of("a"))
        assert shard.schema is relation.schema
        values = shard.value_array(0)
        assert values is shard.value_array(0)  # cached while unchanged
        other = relation.partition(relation.partition_spec.bucket_of("b"))
        other_values = other.value_array(0)
        relation.insert({"id": 300, "region": "a", "n": 0})
        assert shard.value_array(0) is not values  # write invalidated it
        assert other.value_array(0) is other_values  # untouched shard kept


class TestTaggedRelationPartitioning:
    TAGS = TagSchema(indicators=[IndicatorDefinition("source")])

    def make(self, spec=None):
        relation = TaggedRelation(EVENTS, self.TAGS)
        if spec is not None:
            relation.repartition(spec)
        for i in range(20):
            relation.insert(
                {"id": i, "region": ["a", "b"][i % 2], "n": i % 5}
            )
        return relation

    def test_routing_and_dirty_tracking(self):
        relation = self.make(hash_partitions("region", 4))
        spec = relation.partition_spec
        assert sum(len(p) for p in relation.partitions()) == 20
        relation.mark_partitions_clean()
        relation.insert({"id": 100, "region": "b", "n": 1})
        assert relation.dirty_partitions == {spec.bucket_of("b")}

    def test_delete_patches_shards(self):
        relation = self.make(hash_partitions("region", 4))
        relation.mark_partitions_clean()
        spec = relation.partition_spec
        removed = relation.delete(lambda r: r.value("region") == "a")
        assert removed == 10
        assert len(relation.partition(spec.bucket_of("a"))) == 0
        assert relation.dirty_partitions == {spec.bucket_of("a")}

    def test_copy_preserves_layout(self):
        relation = self.make(hash_partitions("region", 4))
        clone = relation.copy()
        assert clone.partition_spec == relation.partition_spec
        assert sum(len(p) for p in clone.partitions()) == 20

    def test_repartition_key_must_exist(self):
        relation = self.make()
        with pytest.raises(Exception):
            relation.repartition(hash_partitions("nosuch", 4))


def _column(relation, position):
    """One column's values, read off the rows (either kind)."""
    return [row.values_tuple()[position] for row in relation.row_batch()]


def _check_value_arrays(relation):
    for segment in [relation, *relation.partitions()]:
        for position in range(len(EVENTS.column_names)):
            assert segment.value_array(position) == _column(segment, position)


def _events_of_kind(kind):
    """Twenty EVENTS rows in a plain or a tagged relation."""
    if kind == "plain":
        relation = Relation(EVENTS)
    else:
        relation = TaggedRelation(
            EVENTS, TagSchema(indicators=[IndicatorDefinition("source")])
        )
    for i in range(20):
        relation.insert({"id": i, "region": "abcd"[i % 4], "n": i % 5})
    return relation


@pytest.mark.parametrize("kind", ["plain", "tagged"])
def test_row_store_behaviour_on_both_kinds(kind):
    """Plain and tagged relations share one row store: partitioning,
    dirty tracking, per-shard value arrays, snapshots and copies behave
    the same on both."""
    relation = _events_of_kind(kind)
    layout = relation.partition_layout_version
    relation.repartition(hash_partitions("region", 4))
    assert relation.partition_layout_version > layout
    spec = relation.partition_spec
    home, away = spec.bucket_of("a"), spec.bucket_of("b")
    assert home != away

    # An insert dirties only its bucket, and keeps the other shards'
    # value arrays.
    relation.mark_partitions_clean()
    kept = relation.partition(away).value_array(0)
    relation.insert({"id": 100, "region": "a", "n": 1})
    assert relation.dirty_partitions == {home}
    assert relation.partition(away).value_array(0) is kept
    _check_value_arrays(relation)

    snapshot = relation.read_snapshot()
    assert type(snapshot) is type(relation) and snapshot.frozen
    assert snapshot.partition_spec == spec
    assert all(shard.frozen for shard in snapshot.partitions())
    with pytest.raises(SnapshotWriteError):
        snapshot.insert({"id": 101, "region": "a", "n": 1})

    before = [row.values_tuple() for row in relation.row_batch()]
    clone = relation.copy()
    assert type(clone) is type(relation) and clone.partition_spec == spec
    clone.insert({"id": 200, "region": "c", "n": 2})
    clone.delete(lambda row: row.values_tuple()[2] == 0)
    assert [row.values_tuple() for row in relation.row_batch()] == before
    assert len(snapshot) == len(relation) == 21

    relation.delete(lambda row: row.values_tuple()[2] == 3)
    _check_value_arrays(relation)
    relation.repartition(hash_partitions("n", 3))
    _check_value_arrays(relation)
    relation.insert({"id": 300, "region": "d", "n": 4})
    _check_value_arrays(relation)
    relation.repartition(None)
    _check_value_arrays(relation)


@pytest.mark.parametrize("layout", ["flat", "partitioned"])
@pytest.mark.parametrize(
    "kind, write",
    [
        pytest.param("plain", "delete", id="plain"),
        pytest.param("tagged", "delete", id="tagged"),
        # TaggedRelation has no update.
        pytest.param("plain", "update", id="plain-update"),
    ],
)
def test_delete_of_nothing_keeps_derived_state(kind, write, layout):
    """A delete or update that matches no row still counts as a mutation
    (the version moves) but rewrites nothing: the next read reuses every
    value array and the tag store instead of rebuilding them."""
    from repro.obs import metrics

    relation = _events_of_kind(kind)
    if layout == "partitioned":
        relation.repartition(hash_partitions("region", 4))
    positions = range(len(EVENTS.column_names))
    warm = [relation.value_array(position) for position in positions]
    store = relation.columnar_store() if kind == "tagged" else None
    version = relation.version
    with metrics.instrumented() as registry:
        counter = registry.counter("relation.value_array_rows")
        rows_before = counter.value
        if write == "delete":
            assert relation.delete(lambda row: False) == 0
        else:
            assert relation.update(lambda row: False, lambda row: {}) == 0
        again = [relation.value_array(position) for position in positions]
        if store is not None:
            assert relation.columnar_store() is store
        assert counter.value - rows_before == 0
    assert relation.version == version + 1
    assert all(new is old for new, old in zip(again, warm))
