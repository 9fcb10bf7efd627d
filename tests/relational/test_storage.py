"""Unit tests for JSON persistence."""

import datetime as dt

import pytest

from repro.errors import SchemaError
from repro.relational.storage import (
    database_from_dict,
    database_to_dict,
    decode_value,
    encode_value,
    load,
    relation_from_dict,
    relation_to_dict,
    save,
    tagged_relation_from_dict,
    tagged_relation_to_dict,
)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value", [None, True, 42, 3.14, "text", dt.date(1991, 10, 24),
                  dt.datetime(1991, 10, 24, 12, 30)]
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_date_marker_distinct_from_dict(self):
        encoded = encode_value(dt.date(1991, 1, 1))
        assert encoded == {"$type": "date", "value": "1991-01-01"}

    def test_unserializable_rejected(self):
        with pytest.raises(SchemaError):
            encode_value(object())

    def test_unknown_marker_rejected(self):
        with pytest.raises(SchemaError):
            decode_value({"$type": "alien", "value": 1})


class TestRelationRoundTrip:
    def test_round_trip(self, customer_relation):
        restored = relation_from_dict(relation_to_dict(customer_relation))
        assert restored == customer_relation
        assert restored.schema == customer_relation.schema

    def test_dates_survive(self):
        from repro.relational.relation import Relation
        from repro.relational.schema import schema

        rel = Relation.from_dicts(
            schema("t", [("d", "DATE")]), [{"d": dt.date(1991, 1, 2)}]
        )
        restored = relation_from_dict(relation_to_dict(rel))
        assert restored.rows[0]["d"] == dt.date(1991, 1, 2)

    def test_kind_checked(self, customer_relation):
        data = relation_to_dict(customer_relation)
        data["kind"] = "bogus"
        with pytest.raises(SchemaError):
            relation_from_dict(data)


class TestTaggedRoundTrip:
    def test_round_trip(self, tagged_customers):
        restored = tagged_relation_from_dict(
            tagged_relation_to_dict(tagged_customers)
        )
        assert len(restored) == len(tagged_customers)
        for original, copy in zip(tagged_customers, restored):
            assert original == copy

    def test_meta_tags_survive(self, customer_schema, customer_tag_schema):
        from repro.tagging.cell import QualityCell
        from repro.tagging.indicators import IndicatorValue
        from repro.tagging.meta import stamp_meta
        from repro.tagging.relation import TaggedRelation

        rel = TaggedRelation(customer_schema, customer_tag_schema)
        rel.insert(
            {
                "co_name": "X",
                "address": QualityCell(
                    "1 St",
                    [
                        stamp_meta(
                            IndicatorValue("source", "acct'g"),
                            recorded_by="etl",
                            confidence=0.8,
                        )
                    ],
                ),
                "employees": 1,
            }
        )
        restored = tagged_relation_from_dict(tagged_relation_to_dict(rel))
        tag = restored.rows[0]["address"].tag("source")
        assert tag.meta_dict() == {"confidence": 0.8, "recorded_by": "etl"}

    def test_tag_schema_survives(self, tagged_customers):
        restored = tagged_relation_from_dict(
            tagged_relation_to_dict(tagged_customers)
        )
        assert restored.tag_schema == tagged_customers.tag_schema


class TestDatabaseRoundTrip:
    def test_round_trip(self, customer_database):
        restored = database_from_dict(database_to_dict(customer_database))
        assert restored.name == customer_database.name
        assert restored.relation_names == customer_database.relation_names
        assert restored.relation("customer") == customer_database.relation(
            "customer"
        )

    def test_keys_reenforced(self, customer_database):
        from repro.errors import ConstraintViolation

        restored = database_from_dict(database_to_dict(customer_database))
        with pytest.raises(ConstraintViolation):
            restored.insert(
                "customer",
                {"co_name": "Fruit Co", "address": "x", "employees": 1},
            )


class TestFileHelpers:
    def test_save_load_relation(self, customer_relation, tmp_path):
        path = save(customer_relation, tmp_path / "rel.json")
        assert path.exists()
        restored = load(path)
        assert restored == customer_relation

    def test_save_load_tagged(self, tagged_customers, tmp_path):
        path = save(tagged_customers, tmp_path / "tagged.json")
        restored = load(path)
        assert restored.rows[1]["address"].tag_value("source") == "acct'g"

    def test_save_load_database(self, customer_database, tmp_path):
        path = save(customer_database, tmp_path / "db.json")
        restored = load(path)
        assert len(restored.relation("customer")) == 2

    def test_save_rejects_unknown(self, tmp_path):
        with pytest.raises(SchemaError):
            save({"not": "supported"}, tmp_path / "x.json")

    def test_load_rejects_unknown_kind(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text('{"kind": "mystery"}')
        with pytest.raises(SchemaError):
            load(target)


class TestAtomicSave:
    """Regression: save() used to write the target in place, so a crash
    mid-write left a torn snapshot."""

    def test_failure_mid_write_preserves_previous_snapshot(
        self, customer_relation, tmp_path, monkeypatch
    ):
        target = tmp_path / "snap.json"
        save(customer_relation, target)
        before = target.read_text()

        import json as json_module

        def exploding_dump(*args, **kwargs):
            handle = args[1]
            handle.write('{"kind": "relation", "rows": [{"truncat')
            raise OSError("disk full")

        monkeypatch.setattr(json_module, "dump", exploding_dump)
        with pytest.raises(OSError):
            save(customer_relation, target)
        # The old snapshot survived byte-for-byte and still loads.
        assert target.read_text() == before
        assert load(target) == customer_relation

    def test_failure_leaves_no_stray_temp_files(
        self, customer_relation, tmp_path, monkeypatch
    ):
        target = tmp_path / "snap.json"

        import json as json_module

        monkeypatch.setattr(
            json_module,
            "dump",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            save(customer_relation, target)
        assert list(tmp_path.iterdir()) == []

    def test_encode_error_before_any_write_leaves_target_absent(
        self, tmp_path
    ):
        target = tmp_path / "snap.json"
        with pytest.raises(SchemaError):
            save({"not": "supported"}, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_into_current_directory(self, customer_relation, tmp_path, monkeypatch):
        # A bare filename has an empty parent; the temp file must still
        # land next to it.
        monkeypatch.chdir(tmp_path)
        path = save(customer_relation, "rel.json")
        assert load(path) == customer_relation


class TestPartitionedStorage:
    def _events(self, buckets=8, count=40):
        from repro.relational import hash_partitions
        from repro.relational.relation import Relation
        from repro.relational.schema import schema

        relation = Relation(
            schema("events", [("id", "INT"), ("region", "STR")])
        )
        relation.repartition(hash_partitions("region", buckets))
        for i in range(count):
            relation.insert({"id": i, "region": ["a", "b", "c", "d"][i % 4]})
        return relation

    def test_directory_per_partition_layout(self, tmp_path):
        relation = self._events()
        target = tmp_path / "events"
        save(relation, target)
        assert target.is_dir()
        assert (target / "_meta.json").is_file()
        buckets = sorted(target.glob("key=*"))
        assert buckets  # only non-empty buckets are written
        for bucket_dir in buckets:
            assert (bucket_dir / "part.json").is_file()

    def test_round_trip_preserves_layout_and_rows(self, tmp_path):
        relation = self._events()
        target = tmp_path / "events"
        save(relation, target)
        restored = load(target)
        assert restored.partition_spec == relation.partition_spec
        assert sorted(r.values_tuple() for r in restored.rows) == sorted(
            r.values_tuple() for r in relation.rows
        )
        assert [len(p) for p in restored.partitions()] == [
            len(p) for p in relation.partitions()
        ]
        assert not restored.dirty_partitions

    def test_incremental_save_rewrites_only_dirty(self, tmp_path):
        relation = self._events()
        target = tmp_path / "events"
        save(relation, target)
        assert not relation.dirty_partitions
        spec = relation.partition_spec
        bucket = spec.bucket_of("a")
        before = {
            p: (p / "part.json").stat().st_mtime_ns
            for p in target.glob("key=*")
        }
        relation.insert({"id": 1000, "region": "a"})
        save(relation, target)
        after = {
            p: (p / "part.json").stat().st_mtime_ns
            for p in target.glob("key=*")
        }
        changed = {p.name for p in before if before[p] != after[p]}
        assert changed == {f"key={bucket}"}
        assert sorted(r.values_tuple() for r in load(target).rows) == sorted(
            r.values_tuple() for r in relation.rows
        )

    def test_narrower_relayout_drops_stale_bucket_dirs(self, tmp_path):
        from repro.relational import hash_partitions

        relation = self._events(buckets=8)
        target = tmp_path / "events"
        save(relation, target)
        relation.repartition(hash_partitions("region", 2))
        save(relation, target)
        stale = [
            int(p.name.split("=")[1])
            for p in target.glob("key=*")
        ]
        assert all(bucket < 2 for bucket in stale)
        restored = load(target)
        assert restored.partition_spec.count == 2
        assert len(restored) == len(relation)

    def test_tagged_partitioned_round_trip(self, tmp_path):
        from repro.relational import hash_partitions
        from repro.relational.schema import schema
        from repro.tagging.indicators import IndicatorDefinition, TagSchema
        from repro.tagging.relation import TaggedRelation

        relation = TaggedRelation(
            schema("t", [("id", "INT"), ("g", "STR")]),
            TagSchema(indicators=[IndicatorDefinition("source")]),
        )
        relation.repartition(hash_partitions("g", 4))
        for i in range(12):
            relation.insert({"id": i, "g": ["x", "y"][i % 2]})
        target = tmp_path / "t"
        save(relation, target)
        restored = load(target)
        assert restored.partition_spec == relation.partition_spec
        assert len(restored) == 12
        assert restored.tag_schema.indicator_names == ("source",)

    @staticmethod
    def _keyed(kind):
        """12 rows in key order, hash-partitioned 4 ways on ``k``."""
        from repro.relational import hash_partitions
        from repro.relational.relation import Relation
        from repro.relational.schema import schema
        from repro.tagging.indicators import IndicatorDefinition, TagSchema
        from repro.tagging.relation import TaggedRelation

        columns = schema("t", [("k", "INT"), ("v", "STR")])
        if kind == "plain":
            relation = Relation(columns)
        else:
            relation = TaggedRelation(
                columns, TagSchema(indicators=[IndicatorDefinition("source")])
            )
        relation.repartition(hash_partitions("k", 4))
        for i in range(12):
            relation.insert({"k": i, "v": f"v{i}"})
        return relation

    @staticmethod
    def _order(relation):
        return [row.values_tuple() for row in relation.row_batch()]

    @pytest.mark.parametrize("kind", ["plain", "tagged"])
    def test_round_trip_keeps_flat_row_order(self, kind, tmp_path):
        from repro.sql import execute

        relation = self._keyed(kind)
        save(relation, tmp_path / "t")
        restored = load(tmp_path / "t")
        assert self._order(restored) == self._order(relation)
        limited = execute("SELECT k FROM t LIMIT 4", restored)
        assert [row.values_tuple() for row in limited] == [
            (0,), (1,), (2,), (3,)
        ]

    @pytest.mark.parametrize("kind", ["plain", "tagged"])
    def test_incremental_save_of_loaded_relation_keeps_order(
        self, kind, tmp_path
    ):
        # The delete leaves gaps in the sequence numbers; the loaded
        # relation keeps them, so the one rewritten partition file and
        # the untouched ones still merge into the flat order.
        relation = self._keyed(kind)
        relation.delete(lambda row: row.values_tuple()[0] in (2, 7))
        save(relation, tmp_path / "t")
        restored = load(tmp_path / "t")
        restored.insert({"k": 100, "v": "v100"})
        save(restored, tmp_path / "t")
        assert self._order(load(tmp_path / "t")) == self._order(restored)

    def test_partition_files_without_sequence_numbers_load(self, tmp_path):
        import json

        relation = self._keyed("plain")
        save(relation, tmp_path / "t")
        for part in (tmp_path / "t").glob("key=*/part.json"):
            data = json.loads(part.read_text())
            data.pop("seqs", None)
            part.write_text(json.dumps(data))
        restored = load(tmp_path / "t")
        by_bucket = [
            row.values_tuple()
            for shard in relation.partitions()
            for row in shard.row_batch()
        ]
        assert self._order(restored) == by_bucket

    def test_database_round_trip_keeps_partitioning(self, tmp_path):
        from repro.relational import hash_partitions
        from repro.relational.catalog import Database
        from repro.relational.schema import schema

        database = Database("d")
        relation = database.create_relation(
            schema("events", [("id", "INT"), ("region", "STR")]),
            enforce_key=False,
            partition_by=hash_partitions("region", 4),
        )
        for i in range(10):
            relation.insert({"id": i, "region": ["a", "b"][i % 2]})
        restored = database_from_dict(database_to_dict(database))
        live = restored.relation("events")
        assert live.partition_spec == relation.partition_spec
        assert sum(len(p) for p in live.partitions()) == 10
