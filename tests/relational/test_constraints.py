"""Unit tests for integrity constraints via the database catalog."""

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.relational.catalog import Database
from repro.relational.constraints import (
    CheckConstraint,
    ForeignKeyConstraint,
    NotNullConstraint,
    UniqueConstraint,
)
from repro.relational.schema import schema


@pytest.fixture
def db():
    database = Database("test")
    database.create_relation(
        schema("dept", [("name", "STR"), ("floor", "INT")], key=["name"])
    )
    database.create_relation(
        schema(
            "emp",
            [("emp_id", "INT"), ("name", "STR"), ("dept", "STR")],
            key=["emp_id"],
        )
    )
    return database


class TestPrimaryKey:
    def test_auto_registered(self, db):
        db.insert("dept", {"name": "sales", "floor": 1})
        with pytest.raises(ConstraintViolation):
            db.insert("dept", {"name": "sales", "floor": 2})

    def test_rejects_null_key(self, db):
        with pytest.raises(ConstraintViolation):
            db.insert("dept", {"name": None, "floor": 1})


class TestNotNull:
    def test_rejects_null(self, db):
        db.add_constraint(NotNullConstraint("nn_floor", "dept", ["floor"]))
        with pytest.raises(ConstraintViolation):
            db.insert("dept", {"name": "ops", "floor": None})

    def test_accepts_value(self, db):
        db.add_constraint(NotNullConstraint("nn_floor", "dept", ["floor"]))
        db.insert("dept", {"name": "ops", "floor": 3})

    def test_requires_columns(self):
        with pytest.raises(SchemaError):
            NotNullConstraint("nn", "t", [])


class TestUnique:
    def test_rejects_duplicates(self, db):
        db.add_constraint(UniqueConstraint("u_floor", "dept", ["floor"]))
        db.insert("dept", {"name": "a", "floor": 1})
        with pytest.raises(ConstraintViolation):
            db.insert("dept", {"name": "b", "floor": 1})

    def test_nulls_exempt(self, db):
        db.add_constraint(UniqueConstraint("u_floor", "dept", ["floor"]))
        db.insert("dept", {"name": "a", "floor": None})
        db.insert("dept", {"name": "b", "floor": None})

    def test_existing_data_validated_on_registration(self, db):
        db.insert("dept", {"name": "a", "floor": 1})
        db.insert("dept", {"name": "b", "floor": 1})
        with pytest.raises(ConstraintViolation):
            db.add_constraint(UniqueConstraint("u_floor", "dept", ["floor"]))

    def test_registration_passes_clean_data(self, db):
        db.insert("dept", {"name": "a", "floor": 1})
        db.insert("dept", {"name": "b", "floor": 2})
        db.add_constraint(UniqueConstraint("u_floor", "dept", ["floor"]))


class TestForeignKey:
    def _wire(self, db):
        db.add_constraint(
            ForeignKeyConstraint("fk_emp_dept", "emp", ["dept"], "dept", ["name"])
        )

    def test_rejects_dangling(self, db):
        self._wire(db)
        with pytest.raises(ConstraintViolation):
            db.insert("emp", {"emp_id": 1, "name": "ann", "dept": "ghost"})

    def test_accepts_match(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept": "sales"})

    def test_null_fk_allowed(self, db):
        self._wire(db)
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept": None})

    def test_restrict_on_delete(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept": "sales"})
        with pytest.raises(ConstraintViolation):
            db.delete("dept", lambda r: r["name"] == "sales")

    def test_delete_unreferenced_ok(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        assert db.delete("dept", lambda r: r["name"] == "sales") == 1

    def test_restrict_on_key_update(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept": "sales"})
        with pytest.raises(ConstraintViolation):
            db.update(
                "dept", lambda r: r["name"] == "sales", {"name": "renamed"}
            )

    def test_non_key_update_of_referenced_row_ok(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept": "sales"})
        assert (
            db.update("dept", lambda r: r["name"] == "sales", {"floor": 9})
            == 1
        )

    def test_key_update_of_unreferenced_row_ok(self, db):
        self._wire(db)
        db.insert("dept", {"name": "sales", "floor": 1})
        assert (
            db.update(
                "dept", lambda r: r["name"] == "sales", {"name": "renamed"}
            )
            == 1
        )

    def test_mismatched_columns(self):
        with pytest.raises(SchemaError):
            ForeignKeyConstraint("fk", "emp", ["a", "b"], "dept", ["x"])


class TestCheck:
    def test_rejects_failing_predicate(self, db):
        db.add_constraint(
            CheckConstraint(
                "floor_positive",
                "dept",
                lambda r: r["floor"] is None or r["floor"] > 0,
                "floor must be positive",
            )
        )
        with pytest.raises(ConstraintViolation) as excinfo:
            db.insert("dept", {"name": "base", "floor": -1})
        assert "floor must be positive" in str(excinfo.value)

    def test_value_error_becomes_violation(self, db):
        def raising(row):
            raise ValueError("boom")

        db.add_constraint(CheckConstraint("boom", "dept", raising))
        with pytest.raises(ConstraintViolation):
            db.insert("dept", {"name": "x", "floor": 1})


class TestUpdateEnforcement:
    def test_update_checks_constraints(self, db):
        db.insert("dept", {"name": "a", "floor": 1})
        db.insert("dept", {"name": "b", "floor": 2})
        with pytest.raises(ConstraintViolation):
            db.update(
                "dept",
                lambda r: r["name"] == "b",
                {"name": "a"},
            )

    def test_update_to_own_key_allowed(self, db):
        db.insert("dept", {"name": "a", "floor": 1})
        count = db.update("dept", lambda r: r["name"] == "a", {"floor": 9})
        assert count == 1
