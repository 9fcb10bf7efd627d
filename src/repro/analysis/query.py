"""The QSQL semantic analyzer: plan-time checks before execution.

``analyze_query(sql, source)`` parses and resolves a statement against
a relation/catalog *without executing it*, returning the full
:class:`~repro.analysis.diagnostics.Diagnostics` list:

- name resolution (unknown relations, columns, indicators; QUALITY on
  untagged sources) — the errors that today surface mid-execution as
  ``UnknownColumnError``/``SQLError``;
- plan-time typechecking of comparisons, IN lists, and aggregates
  against column/indicator domains;
- indicator-coverage gaps (paper Step 3): QUALITY refs on columns where
  the indicator is neither required nor allowed, so the tag can never
  be present;
- conjunction satisfiability (``source = 'A' AND source = 'B'``),
  tautologies, dead predicates, and style lints.

A statement is *accepted* when the diagnostics contain no
error-severity finding; accepted statements execute without
``UnknownColumnError``/``SQLError`` on schema-conforming data (the
property the test suite enforces).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Mapping, Optional

from repro.analysis.diagnostics import Diagnostics
from repro.relational.catalog import Database
from repro.relational.relation import RowStore
from repro.relational.schema import RelationSchema
from repro.sql.context import PlanContext
from repro.sql.errors import SQLError
from repro.sql.executor import _FLIPPED, _sql_compare
from repro.sql.nodes import (
    AggregateCall,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
    SelectStatement,
)
from repro.sql.parser import parse
from repro.tagging.indicators import TagSchema

#: Domain names that compare freely with one another.
_NUMERIC = frozenset({"INT", "FLOAT"})

_ORDER_OPS = frozenset({"<", "<=", ">", ">="})


def _domain_class(domain_name: str) -> str:
    """Collapse domains into comparability classes."""
    if domain_name in _NUMERIC:
        return "numeric"
    return domain_name


def _literal_class(value: Any) -> str:
    """The comparability class of a Python literal value."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "BOOL"
    if isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, _dt.datetime):
        return "DATETIME"
    if isinstance(value, _dt.date):
        return "DATE"
    return "STR"


def _describe_operand(operand: Any) -> str:
    if isinstance(operand, ColumnRef):
        return operand.column
    if isinstance(operand, QualityRef):
        return f"QUALITY({operand.column}.{operand.indicator})"
    if isinstance(operand, QualityScoreRef):
        return f"QUALITY({operand.parameter})"
    return repr(getattr(operand, "value", operand))


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _disjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BoolOp) and expr.op == "OR":
        return _disjuncts(expr.left) + _disjuncts(expr.right)
    return [expr]


def _walk_exprs(expr: Expr):
    """Yield every node of a WHERE tree, top-down."""
    yield expr
    if isinstance(expr, BoolOp):
        yield from _walk_exprs(expr.left)
        yield from _walk_exprs(expr.right)
    elif isinstance(expr, NotOp):
        yield from _walk_exprs(expr.operand)


class _Analyzer:
    """One analysis run over one parsed statement."""

    def __init__(
        self,
        statement: SelectStatement,
        source: Any,
        sql: Optional[str],
        context: str,
    ) -> None:
        #: Every catalog fact the verdict depends on is read through
        #: this recorder (see :mod:`repro.sql.context`).
        self.facts = (
            source if isinstance(source, PlanContext) else PlanContext(source)
        )
        self.statement = statement
        self.source = self.facts.source
        self.sql = sql
        self.context = context
        self.diagnostics = Diagnostics()
        self.schema: Optional[RelationSchema] = None
        self.tag_schema: Optional[TagSchema] = None
        self.tagged = False

    # -- plumbing ------------------------------------------------------------

    def add(self, code: str, message: str, span=None, **kwargs: Any) -> None:
        self.diagnostics.add(
            code,
            message,
            span=span,
            source=self.sql,
            context=self.context,
            **kwargs,
        )

    # -- resolution ----------------------------------------------------------

    def resolve(self) -> bool:
        """Resolve the FROM relation; False when analysis cannot continue."""
        statement, facts = self.statement, self.facts
        if self.source is None:
            return False
        name = statement.relation
        kind = facts.kind(name)
        if kind is None:
            self.add(
                "DQ201", self._unresolved(name), span=statement.relation_span
            )
            return False
        self.schema = facts.schema(name)
        self.tagged = kind == "tagged"
        self.tag_schema = facts.tag_schema(name) if self.tagged else None
        return True

    def _unresolved(self, name: str) -> str:
        """Why ``name`` does not resolve in the source (DQ201 text)."""
        source = self.source
        if isinstance(source, RowStore):
            return (
                f"FROM {name!r} does not match the supplied relation "
                f"{source.schema.name!r}"
            )
        if isinstance(source, Database):
            return (
                f"database {source.name!r} has no relation {name!r} "
                f"(relations: {list(source.relation_names)})"
            )
        if isinstance(source, Mapping):
            return f"unknown relation {name!r} (available: {sorted(source)})"
        if hasattr(source, "relation") and hasattr(source, "relation_names"):
            return (
                f"unknown relation {name!r} "
                f"(available: {list(source.relation_names)})"
            )
        return f"cannot execute against source of type {type(source).__name__}"

    # -- reference checks ----------------------------------------------------

    def check_column_ref(self, ref: ColumnRef) -> bool:
        assert self.schema is not None
        if ref.column not in self.schema:
            self.add(
                "DQ202",
                f"relation {self.schema.name!r} has no column "
                f"{ref.column!r} (columns: {list(self.schema.column_names)})",
                span=ref.span,
            )
            return False
        return True

    def check_quality_ref(self, ref: QualityRef) -> bool:
        assert self.schema is not None
        ok = True
        if not self.tagged:
            self.add(
                "DQ205",
                f"QUALITY({ref.column}.{ref.indicator}) requires a tagged "
                f"relation; {self.schema.name!r} is untagged",
                span=ref.span,
            )
            ok = False
        if ref.column not in self.schema:
            self.add(
                "DQ202",
                f"relation {self.schema.name!r} has no column "
                f"{ref.column!r} (columns: {list(self.schema.column_names)})",
                span=ref.span,
            )
            return False
        if self.tag_schema is None:
            return ok
        if ref.indicator not in self.tag_schema.indicator_names:
            self.add(
                "DQ203",
                f"tag schema of {self.schema.name!r} defines no indicator "
                f"{ref.indicator!r} "
                f"(defined: {list(self.tag_schema.indicator_names)})",
                span=ref.span,
            )
            return False
        if ref.indicator not in self.tag_schema.allowed_for(ref.column):
            allowed = sorted(self.tag_schema.allowed_for(ref.column))
            self.add(
                "DQ204",
                f"indicator {ref.indicator!r} is neither required nor "
                f"allowed on column {ref.column!r} (allowed: {allowed}); "
                f"the tag can never be present there",
                span=ref.span,
            )
        return ok

    def check_operand(self, operand: Any) -> None:
        if isinstance(operand, ColumnRef):
            self.check_column_ref(operand)
        elif isinstance(operand, QualityRef):
            self.check_quality_ref(operand)
        elif isinstance(operand, QualityScoreRef):
            self.check_quality_score_ref(operand)

    def check_quality_score_ref(self, ref: QualityScoreRef) -> bool:
        assert self.schema is not None
        if not self.tagged:
            self.add(
                "DQ205",
                f"QUALITY({ref.parameter}) requires a tagged relation; "
                f"{self.schema.name!r} is untagged",
                span=ref.span,
            )
            return False
        profile = self.facts.profile(self.statement.relation)
        if profile is None:
            self.add(
                "DQ212",
                f"QUALITY({ref.parameter}): no scoring profile is bound "
                f"to relation {self.schema.name!r}; executing would "
                f"raise instead of scoring",
                span=ref.span,
            )
            return False
        if not profile.defines(ref.parameter):
            self.add(
                "DQ212",
                f"QUALITY({ref.parameter}): the bound scoring profile "
                f"{profile.name!r} defines no parameter "
                f"{ref.parameter!r} "
                f"(defined: {list(profile.parameters)})",
                span=ref.span,
            )
            return False
        return True

    def check_references(self) -> None:
        """Resolve every column/indicator reference (DQ202-DQ205).

        This is the single implementation of reference resolution: the
        full analysis run and the executor's fail-fast pre-checks (via
        :func:`reference_diagnostics`) both route through it, so their
        messages cannot drift.  Clause order matches the executor's
        historical checking order: select list, GROUP BY, WHERE, then
        ORDER BY (aggregate ORDER BY names *output* columns and is
        validated separately by :meth:`check_group_order`).
        """
        statement = self.statement
        for item in statement.select_items or ():
            expr = item.expr
            if isinstance(expr, AggregateCall):
                if expr.operand is not None:
                    self.check_operand(expr.operand)
            else:
                self.check_operand(expr)
        for key in statement.group_by:
            self.check_operand(key)
        if statement.where is not None:
            for node in _walk_exprs(statement.where):
                if isinstance(node, Comparison):
                    self.check_operand(node.left)
                    self.check_operand(node.right)
                elif isinstance(node, (InList, IsNull)):
                    self.check_operand(node.operand)
        if not statement.has_aggregates:
            for item in statement.order_by:
                self.check_operand(item.key)

    # -- typechecking --------------------------------------------------------

    def operand_class(self, operand: Any) -> Optional[str]:
        """Comparability class, or None when unresolvable."""
        if isinstance(operand, Literal):
            return _literal_class(operand.value)
        if self.schema is None:
            return None
        if isinstance(operand, ColumnRef):
            if operand.column not in self.schema:
                return None
            return _domain_class(self.schema.column(operand.column).domain.name)
        if isinstance(operand, QualityRef):
            if self.tag_schema is None:
                return None
            if operand.indicator not in self.tag_schema.indicator_names:
                return None
            return _domain_class(
                self.tag_schema.definition(operand.indicator).domain.name
            )
        if isinstance(operand, QualityScoreRef):
            return "numeric"  # parameter scores are floats in [0, 1]
        return None

    def check_comparison_types(self, node: Comparison) -> None:
        left = self.operand_class(node.left)
        right = self.operand_class(node.right)
        if left is None or right is None:
            return
        if "NULL" in (left, right):
            self.add(
                "DQ211",
                f"comparison with NULL is never true; use "
                f"{_describe_operand(node.left)} IS [NOT] NULL",
                span=node.span,
            )
            return
        if left != right:
            hint = ""
            if {left, right} == {"DATE", "STR"} or {left, right} == {
                "DATETIME",
                "STR",
            }:
                hint = " (dates must be written as DATE '...')"
            self.add(
                "DQ210",
                f"cannot compare {_describe_operand(node.left)} "
                f"({left}) with {_describe_operand(node.right)} "
                f"({right}){hint}; the predicate can never be true",
                span=node.span,
            )

    def check_in_types(self, node: InList) -> None:
        operand = self.operand_class(node.operand)
        if operand is None:
            return
        if any(option is None for option in node.options):
            self.add(
                "DQ211",
                f"NULL in the IN list never matches; use "
                f"{_describe_operand(node.operand)} IS NULL",
                span=node.span,
            )
        mismatched = sorted(
            {
                _literal_class(option)
                for option in node.options
                if option is not None and _literal_class(option) != operand
            }
        )
        if mismatched:
            self.add(
                "DQ210",
                f"IN list mixes {_describe_operand(node.operand)} "
                f"({operand}) with {', '.join(mismatched)} options; "
                f"those options can never match",
                span=node.span,
            )

    # -- select list / aggregates -------------------------------------------

    def check_select_items(self) -> None:
        items = self.statement.select_items or ()
        seen_names: dict[str, int] = {}
        for item in items:
            name = item.output_name
            seen_names[name] = seen_names.get(name, 0) + 1
            if seen_names[name] == 2:
                self.add(
                    "DQ208",
                    f"duplicate output column {name!r} in the select list",
                    span=item.span,
                )
            expr = item.expr
            if isinstance(expr, AggregateCall):
                if expr.func in ("SUM", "AVG") and expr.operand is not None:
                    klass = self.operand_class(expr.operand)
                    if klass is not None and klass != "numeric":
                        self.add(
                            "DQ207",
                            f"{expr.func} requires a numeric operand; "
                            f"{_describe_operand(expr.operand)} is {klass}",
                            span=expr.span,
                        )

    def check_group_order(self) -> None:
        statement = self.statement
        if statement.has_aggregates:
            output_names = [
                item.output_name for item in statement.select_items or ()
            ]
            for item in statement.order_by:
                if isinstance(item.key, (QualityRef, QualityScoreRef)):
                    self.add(
                        "DQ206",
                        "ORDER BY QUALITY(...) cannot follow aggregation",
                        span=item.span,
                    )
                elif item.key.column not in output_names:
                    self.add(
                        "DQ206",
                        f"ORDER BY {item.key.column!r} must name an output "
                        f"column of the aggregation "
                        f"(outputs: {output_names})",
                        span=item.span,
                    )
        seen_keys: dict[Any, int] = {}
        for item in statement.order_by:
            seen_keys[item.key] = seen_keys.get(item.key, 0) + 1
            if seen_keys[item.key] == 2:
                self.add(
                    "DQ307",
                    f"duplicate ORDER BY key "
                    f"{_describe_operand(item.key)}; later occurrences "
                    f"never affect the ordering",
                    span=item.span,
                )

    # -- predicate semantics -------------------------------------------------

    def check_where(self) -> None:
        where = self.statement.where
        if where is None:
            return
        for node in _walk_exprs(where):
            if isinstance(node, Comparison):
                self.check_comparison_types(node)
                self.check_degenerate_comparison(node)
            elif isinstance(node, InList):
                self.check_in_types(node)
                self.check_in_duplicates(node)
        self.check_conjunction(where)
        self.check_tautologies(where)
        self.check_duplicate_conjuncts(where)

    def check_degenerate_comparison(self, node: Comparison) -> None:
        if isinstance(node.left, Literal) and isinstance(node.right, Literal):
            truth = _constant_truth(node)
            verdict = "always true" if truth else "never true"
            self.add(
                "DQ305",
                f"both comparison operands are literals; the predicate is "
                f"constant ({verdict})",
                span=node.span,
            )
            return
        if node.left == node.right and not isinstance(node.left, Literal):
            always = node.op in ("=", "<=", ">=")
            verdict = (
                "always true for non-null values"
                if always
                else "never true"
            )
            self.add(
                "DQ304",
                f"{_describe_operand(node.left)} is compared with itself "
                f"({verdict})",
                span=node.span,
            )

    def check_in_duplicates(self, node: InList) -> None:
        seen: list[Any] = []
        duplicates: list[Any] = []
        for option in node.options:
            if option in seen and option not in duplicates:
                duplicates.append(option)
            seen.append(option)
        if duplicates:
            self.add(
                "DQ302",
                f"IN list contains duplicate option(s): "
                f"{', '.join(repr(d) for d in duplicates)}",
                span=node.span,
            )

    def check_duplicate_conjuncts(self, where: Expr) -> None:
        conjuncts = _conjuncts(where)
        seen: list[Expr] = []
        for conjunct in conjuncts:
            if conjunct in seen:
                self.add(
                    "DQ301",
                    "the same conjunct appears more than once in WHERE",
                    span=conjunct.span,
                )
            seen.append(conjunct)

    def check_tautologies(self, where: Expr) -> None:
        for node in _walk_exprs(where):
            if not (isinstance(node, BoolOp) and node.op == "OR"):
                continue
            disjuncts = _disjuncts(node)
            if self._or_is_tautology(disjuncts):
                self.add(
                    "DQ221",
                    "this disjunction is always true; the predicate does "
                    "not filter",
                    span=node.span,
                )
                return  # one report per WHERE is enough

    @staticmethod
    def _or_is_tautology(disjuncts: list[Expr]) -> bool:
        for i, a in enumerate(disjuncts):
            for b in disjuncts[i + 1 :]:
                if isinstance(b, NotOp) and b.operand == a:
                    return True
                if isinstance(a, NotOp) and a.operand == b:
                    return True
                if (
                    isinstance(a, Comparison)
                    and isinstance(b, Comparison)
                    and a.left == b.left
                    and a.right == b.right
                    and {a.op, b.op}
                    in ({"=", "<>"}, {"=", "!="}, {"<", ">="}, {">", "<="})
                ):
                    return True
        return False

    def check_conjunction(self, where: Expr) -> None:
        """Satisfiability of the top-level AND conjunction (DQ220)."""
        facts: dict[Any, _OperandFacts] = {}
        for conjunct in _conjuncts(where):
            key = None
            if isinstance(conjunct, Comparison):
                key, op, value, _ = _normalize_comparison(conjunct)
                if key is None:
                    continue
                fact = facts.setdefault(key, _OperandFacts())
                fact.add_comparison(op, value, conjunct)
            elif isinstance(conjunct, InList):
                key = _operand_key(conjunct.operand)
                if key is None:
                    continue
                fact = facts.setdefault(key, _OperandFacts())
                fact.add_in(conjunct)
            elif isinstance(conjunct, IsNull):
                key = _operand_key(conjunct.operand)
                if key is None:
                    continue
                fact = facts.setdefault(key, _OperandFacts())
                fact.add_is_null(conjunct)
        for key, fact in facts.items():
            conflict = fact.find_conflict()
            if conflict is not None:
                message, node = conflict
                if key[0] == "col":
                    name = key[1]
                elif key[0] == "qs":
                    name = f"QUALITY({key[1]})"
                else:
                    name = f"QUALITY({key[1]}.{key[2]})"
                self.add(
                    "DQ220",
                    f"contradictory constraints on {name}: {message}; "
                    f"the query provably returns no rows",
                    span=node.span,
                )

    # -- statement-level style ----------------------------------------------

    def check_statement_style(self) -> None:
        statement = self.statement
        if statement.limit == 0:
            self.add("DQ303", "LIMIT 0 returns no rows")
        if (
            statement.distinct
            and self.schema is not None
            and self.schema.key
        ):
            if statement.select_items is None:
                projected = set(self.schema.column_names)
            elif all(
                isinstance(item.expr, ColumnRef)
                for item in statement.select_items
            ):
                projected = {
                    item.expr.column for item in statement.select_items
                }
            else:
                projected = set()
            if projected and set(self.schema.key) <= projected:
                self.add(
                    "DQ306",
                    f"DISTINCT is redundant: the projection contains the "
                    f"key {list(self.schema.key)} of "
                    f"{self.schema.name!r}, so rows are already unique",
                )

    # -- driver --------------------------------------------------------------

    def run(self) -> Diagnostics:
        resolved = self.resolve()
        if resolved:
            self.check_references()
            self.check_select_items()
            self.check_group_order()
        if self.statement.where is not None:
            if resolved:
                self.check_where()
            else:
                # No catalog: still run the catalog-independent checks.
                for node in _walk_exprs(self.statement.where):
                    if isinstance(node, Comparison):
                        self.check_degenerate_comparison(node)
                    elif isinstance(node, InList):
                        self.check_in_duplicates(node)
                self.check_conjunction(self.statement.where)
                self.check_tautologies(self.statement.where)
                self.check_duplicate_conjuncts(self.statement.where)
        self.check_statement_style()
        return self.diagnostics


class _OperandFacts:
    """Accumulated constraints on one column/indicator inside an AND."""

    def __init__(self) -> None:
        self.equals: list[tuple[Any, Any]] = []  # (value, node)
        self.not_equals: list[tuple[Any, Any]] = []
        self.lower: Optional[tuple[Any, bool, Any]] = None  # value, strict, node
        self.upper: Optional[tuple[Any, bool, Any]] = None
        self.in_sets: list[tuple[tuple[Any, ...], Any]] = []
        self.not_in: list[tuple[tuple[Any, ...], Any]] = []
        self.is_null: Optional[Any] = None
        self.is_not_null: Optional[Any] = None

    def add_comparison(self, op: str, value: Any, node: Comparison) -> None:
        if value is None:
            return  # NULL comparisons are reported separately (DQ211)
        if op == "=":
            self.equals.append((value, node))
        elif op in ("<>", "!="):
            self.not_equals.append((value, node))
        elif op == "<":
            self._tighten_upper(value, True, node)
        elif op == "<=":
            self._tighten_upper(value, False, node)
        elif op == ">":
            self._tighten_lower(value, True, node)
        elif op == ">=":
            self._tighten_lower(value, False, node)

    def _tighten_lower(self, value: Any, strict: bool, node: Any) -> None:
        current = self.lower
        if current is None:
            self.lower = (value, strict, node)
            return
        try:
            if value > current[0] or (value == current[0] and strict):
                self.lower = (value, strict, node)
        except TypeError:
            pass

    def _tighten_upper(self, value: Any, strict: bool, node: Any) -> None:
        current = self.upper
        if current is None:
            self.upper = (value, strict, node)
            return
        try:
            if value < current[0] or (value == current[0] and strict):
                self.upper = (value, strict, node)
        except TypeError:
            pass

    def add_in(self, node: InList) -> None:
        options = tuple(o for o in node.options if o is not None)
        if node.negated:
            self.not_in.append((options, node))
        else:
            self.in_sets.append((options, node))

    def add_is_null(self, node: IsNull) -> None:
        if node.negated:
            self.is_not_null = node
        else:
            self.is_null = node

    def find_conflict(self) -> Optional[tuple[str, Any]]:
        """The first contradiction found, as (message, anchoring node)."""
        # IS NULL excludes every comparison/IN constraint and IS NOT NULL.
        if self.is_null is not None:
            if self.is_not_null is not None:
                return ("IS NULL conflicts with IS NOT NULL", self.is_null)
            for _, node in self.equals + self.not_equals:
                return (
                    "IS NULL excludes any comparison (comparisons with "
                    "NULL are never true)",
                    node,
                )
            for bound in (self.lower, self.upper):
                if bound is not None:
                    return (
                        "IS NULL excludes any comparison (comparisons "
                        "with NULL are never true)",
                        bound[2],
                    )
            for _, node in self.in_sets:
                return ("IS NULL excludes IN (NULL never matches)", node)
        # Distinct equality constraints.
        for i, (a, _) in enumerate(self.equals):
            for b, node in self.equals[i + 1 :]:
                if _safe_ne(a, b):
                    return (f"= {a!r} conflicts with = {b!r}", node)
        for value, node_eq in self.equals:
            for other, node in self.not_equals:
                if _safe_eq(value, other):
                    return (f"= {value!r} conflicts with <> {other!r}", node)
            if self.lower is not None:
                low, strict, node = self.lower
                if _safe_lt(value, low) or (strict and _safe_eq(value, low)):
                    op = ">" if strict else ">="
                    return (f"= {value!r} conflicts with {op} {low!r}", node)
            if self.upper is not None:
                high, strict, node = self.upper
                if _safe_lt(high, value) or (strict and _safe_eq(value, high)):
                    op = "<" if strict else "<="
                    return (f"= {value!r} conflicts with {op} {high!r}", node)
            for options, node in self.in_sets:
                if all(_safe_ne(value, option) for option in options):
                    return (
                        f"= {value!r} conflicts with IN {options!r}",
                        node,
                    )
            for options, node in self.not_in:
                if any(_safe_eq(value, option) for option in options):
                    return (
                        f"= {value!r} conflicts with NOT IN {options!r}",
                        node,
                    )
        # Bounds excluding each other.
        if self.lower is not None and self.upper is not None:
            low, low_strict, node = self.lower
            high, high_strict, _ = self.upper
            if _safe_lt(high, low) or (
                (low_strict or high_strict) and _safe_eq(low, high)
            ):
                low_op = ">" if low_strict else ">="
                high_op = "<" if high_strict else "<="
                return (
                    f"{low_op} {low!r} conflicts with {high_op} {high!r}",
                    node,
                )
        # Disjoint IN sets.
        for i, (options_a, _) in enumerate(self.in_sets):
            for options_b, node in self.in_sets[i + 1 :]:
                if options_a and options_b and not _intersect(
                    options_a, options_b
                ):
                    return (
                        f"IN {options_a!r} conflicts with IN {options_b!r}",
                        node,
                    )
        return None


def _safe_eq(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except TypeError:  # pragma: no cover - defensive
        return False


def _safe_ne(a: Any, b: Any) -> bool:
    try:
        return bool(a != b)
    except TypeError:  # pragma: no cover - defensive
        return True


def _safe_lt(a: Any, b: Any) -> bool:
    try:
        return bool(a < b)
    except TypeError:
        return False


def _intersect(a: tuple[Any, ...], b: tuple[Any, ...]) -> bool:
    return any(_safe_eq(x, y) for x in a for y in b)


def _operand_key(operand: Any) -> Optional[tuple]:
    if isinstance(operand, ColumnRef):
        return ("col", operand.column)
    if isinstance(operand, QualityRef):
        return ("q", operand.column, operand.indicator)
    if isinstance(operand, QualityScoreRef):
        return ("qs", operand.parameter)
    return None


def _normalize_comparison(
    node: Comparison,
) -> tuple[Optional[tuple], str, Any, bool]:
    """Normalize to (key, op, literal value, was_reversed)."""
    if isinstance(node.right, Literal) and not isinstance(node.left, Literal):
        key = _operand_key(node.left)
        return key, node.op, node.right.value, False
    if isinstance(node.left, Literal) and not isinstance(node.right, Literal):
        key = _operand_key(node.right)
        return key, _FLIPPED[node.op], node.left.value, True
    return None, node.op, None, False


def _constant_truth(node: Comparison) -> bool:
    """Evaluate a literal-vs-literal comparison with executor semantics."""
    return bool(_sql_compare(node.op, node.left.value, node.right.value))


def analyze_statement(
    statement: SelectStatement,
    source: Any = None,
    *,
    sql: Optional[str] = None,
    context: str = "",
) -> Diagnostics:
    """Analyze a parsed statement against ``source`` (see module doc).

    ``source`` may be a :class:`~repro.sql.context.PlanContext`: every
    catalog fact the verdict depends on is then recorded there, which
    is how strict-mode verdicts are memoized and revalidated.
    """
    return _Analyzer(statement, source, sql, context).run()


def reference_diagnostics(
    statement: SelectStatement,
    source: Any,
    *,
    sql: Optional[str] = None,
) -> Diagnostics:
    """Reference-resolution diagnostics only (DQ201-DQ205).

    The executor's fail-fast pre-checks call this instead of
    re-implementing column lookup, so an unknown column produces the
    same message whether it surfaces as an
    :class:`~repro.errors.UnknownColumnError` at execution time or as a
    DQ202 diagnostic from :func:`analyze_query`.
    """
    analyzer = _Analyzer(statement, source, sql, "")
    if analyzer.resolve():
        analyzer.check_references()
    return analyzer.diagnostics


def analyze_query(
    sql: str,
    source: Any = None,
    *,
    context: str = "",
) -> Diagnostics:
    """Parse and analyze one QSQL string; parse failures become DQ200."""
    try:
        statement = parse(sql)
    except SQLError as exc:
        diagnostics = Diagnostics()
        diagnostics.add(
            "DQ200",
            exc.raw_message,
            span=exc.span,
            source=sql,
            context=context,
        )
        return diagnostics
    return analyze_statement(statement, source, sql=sql, context=context)
