"""Value arrays: the per-column arrays a relation's row store derives."""

import pytest

from repro.errors import UnknownColumnError
from repro.obs import metrics
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema

SCHEMA = RelationSchema(
    "t", [Column("a", "INT"), Column("b", "STR"), Column("c", "FLOAT")]
)


def sample_relation():
    return Relation.from_tuples(
        SCHEMA,
        [(1, "x", 1.5), (2, None, 2.5), (None, "z", None), (4, "x", 0.0)],
    )


def arrays(relation):
    """Every column's value array, in schema order."""
    return [
        relation.value_array(position)
        for position in range(len(relation.schema.column_names))
    ]


def rows_read():
    """Rows read into value arrays so far (the registry is process-wide)."""
    counter = metrics.global_registry().get("relation.value_array_rows")
    return 0 if counter is None else counter.value


class TestBuild:
    def test_transpose_matches_column_values(self):
        relation = sample_relation()
        assert relation.value_array(0) == [1, 2, None, 4]
        assert relation.value_array(1) == ["x", None, "z", "x"]
        assert relation.value_array(2) == [1.5, 2.5, None, 0.0]

    def test_column_arrays_in_schema_order(self):
        relation = sample_relation()
        assert arrays(relation) == [
            relation.column_values(name) for name in SCHEMA.column_names
        ]

    def test_empty_relation(self):
        relation = Relation(SCHEMA)
        assert len(relation) == 0
        assert arrays(relation) == [[], [], []]

    def test_unknown_column_raises(self):
        # Value arrays are addressed by position, resolved by name
        # through the schema.
        relation = sample_relation()
        with pytest.raises(UnknownColumnError):
            relation.value_array(relation.schema.index_of("nope"))


class TestVersionGatedCache:
    def test_store_cached_until_mutation(self):
        relation = sample_relation()
        first = relation.value_array(0)
        assert relation.value_array(0) is first

    def test_insert_invalidates(self):
        relation = sample_relation()
        first = relation.value_array(0)
        relation.insert({"a": 9, "b": "q", "c": 9.0})
        second = relation.value_array(0)
        assert second is not first
        assert second == [1, 2, None, 4, 9]

    def test_delete_invalidates(self):
        relation = sample_relation()
        first = relation.value_array(0)
        relation.delete(lambda row: row["a"] == 1)
        second = relation.value_array(0)
        assert second is not first
        assert second == [2, None, 4]

    def test_update_invalidates(self):
        relation = sample_relation()
        first = relation.value_array(1)
        relation.update(lambda row: row["a"] == 4, lambda row: {"b": "w"})
        second = relation.value_array(1)
        assert second is not first
        assert second == ["x", None, "z", "w"]

    def test_clear_invalidates(self):
        relation = sample_relation()
        arrays(relation)
        relation.clear()
        assert arrays(relation) == [[], [], []]

    def test_version_counts_every_mutation(self):
        relation = Relation(SCHEMA)
        v0 = relation.version
        relation.insert({"a": 1, "b": "x", "c": 1.0})
        relation.delete(lambda row: False)
        relation.clear()
        assert relation.version == v0 + 3


class TestStoreMediatedMutation:
    """Writes through the row store keep every value array aligned with
    its rows; the store is the only way to change them."""

    def test_append_keeps_arrays_aligned(self):
        relation = sample_relation()
        arrays(relation)
        relation.insert({"a": 7, "b": "y", "c": 7.5})
        assert arrays(relation) == [
            relation.column_values(name) for name in SCHEMA.column_names
        ]
        assert relation.value_array(0) == [1, 2, None, 4, 7]
        assert len(relation) == 5

    def test_append_keeps_cache_valid(self):
        # After an append the cached arrays are extended: only the
        # appended row is read, once per column.
        relation = sample_relation()
        with metrics.instrumented():
            arrays(relation)
            before = rows_read()
            relation.insert({"a": 7, "b": "y", "c": 7.5})
            arrays(relation)
            assert rows_read() - before == 3

    def test_delete_compacts_every_array(self):
        relation = sample_relation()
        arrays(relation)
        removed = relation.delete(lambda row: row["b"] == "x")
        assert removed == 2
        assert arrays(relation) == [[2, None], [None, "z"], [2.5, None]]
        assert len(relation) == 2

    def test_delete_nothing_is_a_noop(self):
        relation = sample_relation()
        before = arrays(relation)
        assert relation.delete(lambda row: False) == 0
        assert len(relation) == 4
        assert arrays(relation) == before

    def test_behind_the_back_mutation_detected(self):
        # An array handed out before a write is never changed by it (a
        # pinned reader keeps its length); the next read sees the write.
        relation = sample_relation()
        held = relation.value_array(0)
        relation.insert({"a": 9, "b": "q", "c": 9.0})
        assert held == [1, 2, None, 4]
        assert relation.value_array(0) == [1, 2, None, 4, 9]

    def test_store_delete_bumps_relation_version(self):
        # Deletes must be visible to *other* caches keyed on the
        # relation's version (e.g. the plan cache's cost band).
        relation = sample_relation()
        before = relation.version
        relation.delete(lambda row: row["a"] == 1)
        assert relation.version > before
