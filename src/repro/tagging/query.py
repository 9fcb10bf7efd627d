"""Quality-constrained retrieval: querying over indicator values.

This module makes the paper's core proposal executable:

    "Given such tags, and the ability to query over them, users can
     filter out data having undesirable characteristics."

An :class:`IndicatorConstraint` restricts one indicator on one column
(e.g. *the address's creation_time must be on/after 1991-01-01*, or
*the employee count's source must not be "estimate"*).  A
:class:`QualityFilter` conjoins constraints, and :class:`QualityQuery`
is the fluent pipeline combining value predicates with quality filters
(the "grade"-based retrieval of §4).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Optional

from repro.errors import QueryError
from repro.relational.schema import RelationSchema
from repro.tagging import algebra
from repro.tagging.relation import TaggedRelation, TaggedRow

#: Comparison operators accepted by IndicatorConstraint, by symbol.
OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda value, options: value in options,
    "not in": lambda value, options: value not in options,
}


class IndicatorConstraint:
    """A constraint over one indicator of one column.

    Parameters
    ----------
    column:
        The application column whose cells are constrained.
    indicator:
        The quality indicator to test.
    op:
        One of the symbols in :data:`OPERATORS`.
    operand:
        The comparison operand (a collection for ``in`` / ``not in``).
    missing_ok:
        What to do when a cell lacks the indicator: if False (default),
        the cell *fails* the constraint — untagged data is conservatively
        treated as not meeting the quality requirement; if True, untagged
        cells pass.

    >>> c = IndicatorConstraint("address", "source", "!=", "estimate")
    >>> c.describe()
    "address.source != 'estimate' [missing fails]"
    """

    def __init__(
        self,
        column: str,
        indicator: str,
        op: str,
        operand: Any,
        missing_ok: bool = False,
    ) -> None:
        if op not in OPERATORS:
            raise QueryError(
                f"unknown operator {op!r} (known: {sorted(OPERATORS)})"
            )
        self.column = column
        self.indicator = indicator
        self.op = op
        self.operand = operand
        self.missing_ok = missing_ok

    def test(self, row: TaggedRow) -> bool:
        """Evaluate the constraint against one row."""
        cell = row[self.column]
        if not cell.has_tag(self.indicator):
            return self.missing_ok
        tag_value = cell.tag_value(self.indicator)
        if tag_value is None:
            return self.missing_ok
        try:
            return OPERATORS[self.op](tag_value, self.operand)
        except TypeError:
            # Incomparable tag value (wrong type) — treat as not meeting
            # the requirement rather than erroring the whole query.
            return False

    def compile(self, schema: RelationSchema) -> Callable[[TaggedRow], bool]:
        """Bind the constraint to a schema for per-row evaluation.

        Resolves the column position once (raising UnknownColumnError
        for bad columns, as :meth:`QualityFilter.apply` always did) and
        returns a closure evaluating the constraint against the cell
        directly — the scan-time pushdown path.
        """
        position = schema.position(self.column)
        indicator = self.indicator
        compare = OPERATORS[self.op]
        operand = self.operand
        missing_ok = self.missing_ok

        def test(row: TaggedRow) -> bool:
            tag_value = row.cells[position].tag_value(indicator)
            if tag_value is None:
                # Absent tag or NULL tag value: same outcome either way.
                return missing_ok
            try:
                return compare(tag_value, operand)
            except TypeError:
                return False

        return test

    def describe(self) -> str:
        """Human-readable form for specifications and reports."""
        missing = "missing passes" if self.missing_ok else "missing fails"
        return f"{self.column}.{self.indicator} {self.op} {self.operand!r} [{missing}]"

    def __repr__(self) -> str:
        return f"IndicatorConstraint({self.describe()})"


class QualityFilter:
    """A conjunction of indicator constraints (one quality "grade").

    §4's information-clearinghouse example: the *mass mailing* grade has
    no constraints; the *fund raising* grade constrains accuracy-related
    indicators.  Filters are reusable, nameable objects so applications
    can store quality profiles (see :mod:`repro.quality.profiles`).
    """

    def __init__(
        self,
        constraints: Iterable[IndicatorConstraint] = (),
        name: str = "",
    ) -> None:
        self.constraints: tuple[IndicatorConstraint, ...] = tuple(constraints)
        self.name = name

    def test(self, row: TaggedRow) -> bool:
        """True if the row satisfies every constraint."""
        return all(c.test(row) for c in self.constraints)

    def compile(self, schema: RelationSchema) -> Callable[[TaggedRow], bool]:
        """Compile the conjunction into one schema-bound predicate.

        Column positions resolve once, and evaluation short-circuits at
        the first failing constraint.
        """
        tests = [c.compile(schema) for c in self.constraints]
        if not tests:
            return lambda row: True
        if len(tests) == 1:
            return tests[0]

        def conjunction(row: TaggedRow) -> bool:
            for test in tests:
                if not test(row):
                    return False
            return True

        return conjunction

    def apply(self, relation: TaggedRelation) -> TaggedRelation:
        """Filter a tagged relation down to rows meeting the grade."""
        return algebra.select(relation, self.compile(relation.schema))

    def apply_columnar(self, relation: TaggedRelation) -> TaggedRelation:
        """Filter through the relation's columnar tag store.

        Semantically identical to :meth:`apply` — same rows, same
        order, same tags — but the conjunction is evaluated over
        contiguous per-(column, indicator) tag arrays via
        :meth:`~repro.tagging.columnar.ColumnarTagStore.scan`, and
        survivor rows are gathered from the original relation (tags
        intact).  Falls back to the per-cell path when a constraint
        names an indicator the tag schema does not allow on its column:
        the per-cell path reads such an indicator as *missing*, and the
        store has no array to scan for it.
        """
        for constraint in self.constraints:
            # Same eager column check as compile(); raises for bad columns.
            relation.schema.position(constraint.column)
        allowed = relation.tag_schema.allowed_for
        if any(
            c.indicator not in allowed(c.column) for c in self.constraints
        ):
            return self.apply(relation)
        indices = relation.columnar_store().scan(
            [
                (c.column, c.indicator, c.op, c.operand, c.missing_ok)
                for c in self.constraints
            ]
        )
        rows = relation.row_batch()
        return TaggedRelation.from_rows(
            relation.schema,
            relation.tag_schema,
            (rows[index] for index in indices),
        )

    def with_constraint(self, constraint: IndicatorConstraint) -> "QualityFilter":
        """A copy with one more constraint."""
        return QualityFilter(self.constraints + (constraint,), self.name)

    def describe(self) -> str:
        """Multi-line description, used in specification documents."""
        header = f"QualityFilter {self.name or '(anonymous)'}"
        if not self.constraints:
            return f"{header}: no constraints (all data acceptable)"
        lines = [f"{header}:"]
        lines.extend(f"  - {c.describe()}" for c in self.constraints)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QualityFilter({self.name!r}, {len(self.constraints)} constraints)"

    def __len__(self) -> int:
        return len(self.constraints)


class QualityQuery:
    """Fluent retrieval over tagged relations: values + quality together.

    >>> # QualityQuery(rel).where_value("employees", ">", 100)\\
    >>> #     .require("employees", "source", "!=", "estimate")\\
    >>> #     .select("co_name").run()
    """

    def __init__(
        self,
        source: TaggedRelation,
        _steps: tuple[Callable[[TaggedRelation], TaggedRelation], ...] = (),
    ) -> None:
        self._source = source
        self._steps = _steps

    def _extend(
        self, step: Callable[[TaggedRelation], TaggedRelation]
    ) -> "QualityQuery":
        return QualityQuery(self._source, self._steps + (step,))

    # -- value-side operations -------------------------------------------------

    def where(self, predicate: Callable[[TaggedRow], bool]) -> "QualityQuery":
        """Filter with an arbitrary tagged-row predicate."""
        return self._extend(lambda rel: algebra.select(rel, predicate))

    def where_value(self, column: str, op: str, operand: Any) -> "QualityQuery":
        """Filter on an application value with an operator symbol."""
        if op not in OPERATORS:
            raise QueryError(f"unknown operator {op!r}")
        compare = OPERATORS[op]

        def predicate(row: TaggedRow) -> bool:
            value = row.value(column)
            if value is None:
                return False
            try:
                return compare(value, operand)
            except TypeError:
                return False

        return self.where(predicate)

    def select(self, *columns: str) -> "QualityQuery":
        """Project to the named columns (tags kept)."""
        return self._extend(lambda rel: algebra.project(rel, list(columns)))

    def order_by(
        self,
        *columns: str,
        descending: bool = False,
        by_indicator: Optional[str] = None,
    ) -> "QualityQuery":
        """Sort by values, or by a tag when ``by_indicator`` is given."""
        return self._extend(
            lambda rel: algebra.sort(
                rel, list(columns), descending=descending, key_indicator=by_indicator
            )
        )

    def limit(self, n: int) -> "QualityQuery":
        """Keep the first ``n`` rows."""
        return self._extend(lambda rel: algebra.limit(rel, n))

    # -- quality-side operations ----------------------------------------------------

    def require(
        self,
        column: str,
        indicator: str,
        op: str,
        operand: Any,
        missing_ok: bool = False,
    ) -> "QualityQuery":
        """Add one indicator constraint (untagged cells fail by default)."""
        constraint = IndicatorConstraint(column, indicator, op, operand, missing_ok)
        return self._extend(
            lambda rel: algebra.select(rel, constraint.compile(rel.schema))
        )

    def require_tagged(self, column: str, indicator: str) -> "QualityQuery":
        """Keep only rows whose ``column`` cell carries ``indicator``."""
        return self.where(lambda row: row[column].has_tag(indicator))

    def grade(self, quality_filter: QualityFilter) -> "QualityQuery":
        """Apply a named quality filter (a stored grade/profile)."""
        return self._extend(quality_filter.apply)

    # -- execution ---------------------------------------------------------------------

    def run(self) -> TaggedRelation:
        """Execute the pipeline."""
        result = self._source
        for step in self._steps:
            result = step(result)
        return result

    def count(self) -> int:
        """Execute and return the row count."""
        return len(self.run())

    def values(self) -> list[dict[str, Any]]:
        """Execute and return application values as dicts (no tags)."""
        return [row.values_dict() for row in self.run()]

    def __repr__(self) -> str:
        return f"QualityQuery({self._source.schema.name!r}, {len(self._steps)} steps)"
