"""Integrity constraints for catalog-managed relations.

The paper (§1.1) points to integrity constraints and transaction
management as the classical database tools that *prevent* bad data from
entering a database — necessary but insufficient for data quality.  This
module provides that classical layer; the quality layers build on top.

Constraints are checked by :class:`~repro.relational.catalog.Database`
on every insert/update.  Each constraint implements
:meth:`Constraint.check_insert` and may implement
:meth:`Constraint.check_delete` for referential actions.
"""

from __future__ import annotations

from typing import Callable, Sequence, TYPE_CHECKING

from repro.errors import ConstraintViolation, SchemaError
from repro.relational.relation import Relation, Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.catalog import Database


class Constraint:
    """Base class for integrity constraints.

    Parameters
    ----------
    name:
        Unique constraint name (used in violation messages).
    relation_name:
        The relation the constraint applies to.
    """

    def __init__(self, name: str, relation_name: str) -> None:
        if not name:
            raise SchemaError("constraint must have a name")
        self.name = name
        self.relation_name = relation_name

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        """Validate an insert of ``row`` into ``relation``.

        Raise :class:`ConstraintViolation` to reject the modification.
        ``row`` is *not yet present* in the relation when this is called.
        """

    def check_delete(self, database: "Database", relation: Relation, row: Row) -> None:
        """Validate a delete of ``row`` from ``relation``."""

    def check_update(
        self,
        database: "Database",
        relation: Relation,
        old_row: Row,
        new_row: Row,
    ) -> None:
        """Validate replacing ``old_row`` with ``new_row``.

        The default is a no-op: value-level validity of ``new_row`` is
        covered by the catalog's re-run of :meth:`check_insert`.
        Referential constraints override this to enforce RESTRICT when a
        *referenced key* changes.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r} on {self.relation_name!r})"


class NotNullConstraint(Constraint):
    """Reject NULL values in the given columns."""

    def __init__(self, name: str, relation_name: str, columns: Sequence[str]) -> None:
        super().__init__(name, relation_name)
        if not columns:
            raise SchemaError("NotNullConstraint requires at least one column")
        self.columns = tuple(columns)

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        for column in self.columns:
            if row[column] is None:
                raise ConstraintViolation(
                    self.name,
                    f"column {column!r} of {self.relation_name!r} must not be NULL",
                )


class UniqueConstraint(Constraint):
    """Reject duplicate values over a column tuple (NULLs are exempt)."""

    def __init__(self, name: str, relation_name: str, columns: Sequence[str]) -> None:
        super().__init__(name, relation_name)
        if not columns:
            raise SchemaError("UniqueConstraint requires at least one column")
        self.columns = tuple(columns)

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        key = tuple(row[c] for c in self.columns)
        if any(v is None for v in key):
            return
        for existing in relation:
            if tuple(existing[c] for c in self.columns) == key:
                raise ConstraintViolation(
                    self.name,
                    f"duplicate value {key!r} for unique columns "
                    f"{list(self.columns)} in {self.relation_name!r}",
                )


class PrimaryKeyConstraint(Constraint):
    """NOT NULL + UNIQUE over the key columns."""

    def __init__(self, name: str, relation_name: str, columns: Sequence[str]) -> None:
        super().__init__(name, relation_name)
        self._not_null = NotNullConstraint(name, relation_name, columns)
        self._unique = UniqueConstraint(name, relation_name, columns)
        self.columns = tuple(columns)

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        self._not_null.check_insert(database, relation, row)
        self._unique.check_insert(database, relation, row)


class ForeignKeyConstraint(Constraint):
    """Values in ``columns`` must exist in ``target`` relation's columns.

    Deleting a referenced row is rejected (RESTRICT semantics).
    """

    def __init__(
        self,
        name: str,
        relation_name: str,
        columns: Sequence[str],
        target_relation: str,
        target_columns: Sequence[str],
    ) -> None:
        super().__init__(name, relation_name)
        if len(columns) != len(target_columns) or not columns:
            raise SchemaError(
                "ForeignKeyConstraint requires matching non-empty column lists"
            )
        self.columns = tuple(columns)
        self.target_relation = target_relation
        self.target_columns = tuple(target_columns)

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        key = tuple(row[c] for c in self.columns)
        if any(v is None for v in key):
            return  # SQL MATCH SIMPLE: NULLs satisfy the FK.
        target = database.relation(self.target_relation)
        for candidate in target:
            if tuple(candidate[c] for c in self.target_columns) == key:
                return
        raise ConstraintViolation(
            self.name,
            f"value {key!r} in {self.relation_name!r}.{list(self.columns)} has no "
            f"match in {self.target_relation!r}.{list(self.target_columns)}",
        )

    def check_delete(self, database: "Database", relation: Relation, row: Row) -> None:
        # Called when a row of the *target* relation is deleted.
        if relation.schema.name != self.target_relation:
            return
        self._require_unreferenced(database, row, "delete")

    def check_update(
        self,
        database: "Database",
        relation: Relation,
        old_row: Row,
        new_row: Row,
    ) -> None:
        # Changing a referenced key is a delete of the old key value
        # from this constraint's perspective: RESTRICT on update too.
        if relation.schema.name != self.target_relation:
            return
        old_key = tuple(old_row[c] for c in self.target_columns)
        new_key = tuple(new_row[c] for c in self.target_columns)
        if old_key != new_key:
            self._require_unreferenced(database, old_row, "update key of")

    def _require_unreferenced(
        self, database: "Database", row: Row, action: str
    ) -> None:
        key = tuple(row[c] for c in self.target_columns)
        referencing = database.relation(self.relation_name)
        for candidate in referencing:
            if tuple(candidate[c] for c in self.columns) == key:
                raise ConstraintViolation(
                    self.name,
                    f"cannot {action} {key!r} in {self.target_relation!r}: "
                    f"still referenced by {self.relation_name!r}",
                )


class CheckConstraint(Constraint):
    """A row-level predicate that must hold for every row.

    Parameters
    ----------
    predicate:
        Callable Row → bool; False (or a raised ValueError) rejects.
    description:
        Human-readable statement of the rule, used in messages and in the
        quality-requirements specification document.
    """

    def __init__(
        self,
        name: str,
        relation_name: str,
        predicate: Callable[[Row], bool],
        description: str = "",
    ) -> None:
        super().__init__(name, relation_name)
        self.predicate = predicate
        self.description = description

    def check_insert(self, database: "Database", relation: Relation, row: Row) -> None:
        try:
            ok = self.predicate(row)
        except ValueError as exc:
            raise ConstraintViolation(self.name, str(exc)) from exc
        if not ok:
            detail = self.description or "row failed CHECK predicate"
            raise ConstraintViolation(
                self.name, f"{detail} (row: {row.to_dict()!r})"
            )


def key_constraint_for(relation_name: str, key: Sequence[str]) -> PrimaryKeyConstraint:
    """Build the standard primary-key constraint for a schema's key."""
    return PrimaryKeyConstraint(f"pk_{relation_name}", relation_name, key)
