"""QSQL abstract syntax tree nodes.

Every expression-level node carries an optional ``span`` — ``(start,
end)`` character offsets into the query text, populated by the parser.
Spans are excluded from equality/hashing (``compare=False``) so node
identity stays purely structural; they exist for error reporting and
the static analyzer's caret diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

#: A (start, end) character-offset range into the query source text.
Span = tuple[int, int]


def _span_field() -> Any:
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Literal:
    """A constant value (number, string, bool, None, date)."""

    value: Any
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ColumnRef:
    """A reference to an application column's value."""

    column: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class QualityRef:
    """``QUALITY(column.indicator)`` — a tag-value reference."""

    column: str
    indicator: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class QualityScoreRef:
    """``QUALITY(parameter)`` — a materialized parameter-score reference.

    Distinct from :class:`QualityRef` (the ``column.indicator`` tag
    form): the parameter form resolves through the relation's bound
    :class:`~repro.quality.materialize.ScoringProfile` and reads the
    row's mean parameter score over its scorable tagged cells.
    """

    parameter: str
    span: Optional[Span] = _span_field()


Expr = Union["Comparison", "InList", "IsNull", "BoolOp", "NotOp"]
Operand = Union[Literal, ColumnRef, QualityRef, QualityScoreRef]


@dataclass(frozen=True)
class Comparison:
    """``left OP right`` with OP in =, <>, !=, <, <=, >, >=."""

    op: str
    left: Operand
    right: Operand
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class InList:
    """``operand [NOT] IN (literal, ...)``."""

    operand: Operand
    options: tuple[Any, ...]
    negated: bool = False
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class IsNull:
    """``operand IS [NOT] NULL``."""

    operand: Operand
    negated: bool = False
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BoolOp:
    """``left AND/OR right``."""

    op: str  # "AND" | "OR"
    left: Expr
    right: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class NotOp:
    """``NOT expr``."""

    operand: Expr
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class AggregateCall:
    """``FUNC(operand)`` in the select list; operand None = COUNT(*)."""

    func: str  # COUNT | SUM | AVG | MIN | MAX
    operand: Optional[Union[ColumnRef, QualityRef, QualityScoreRef]]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: a column, a quality ref, or an aggregate."""

    expr: Union[ColumnRef, QualityRef, QualityScoreRef, AggregateCall]
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        if isinstance(self.expr, QualityRef):
            return f"{self.expr.column}.{self.expr.indicator}"
        if isinstance(self.expr, QualityScoreRef):
            return self.expr.parameter
        operand = self.expr.operand
        if operand is None:
            return f"{self.expr.func.lower()}_all"
        if isinstance(operand, ColumnRef):
            inner = operand.column
        elif isinstance(operand, QualityScoreRef):
            inner = operand.parameter
        else:
            inner = f"{operand.column}.{operand.indicator}"
        return f"{self.expr.func.lower()}_{inner}".replace(".", "_")

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expr, AggregateCall)

    @property
    def span(self) -> Optional[Span]:
        """The source span of the underlying expression."""
        return self.expr.span


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY item: a column or quality reference + direction."""

    key: Union[ColumnRef, QualityRef, QualityScoreRef]
    descending: bool = False

    @property
    def span(self) -> Optional[Span]:
        """The source span of the order key."""
        return self.key.span


@dataclass(frozen=True)
class SelectStatement:
    """A full parsed SELECT."""

    columns: Optional[tuple[str, ...]]  # None means '*'
    relation: str
    where: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    #: Full select-list entries; None for ``*``.  ``columns`` stays the
    #: plain-projection view for simple statements (back-compat).
    select_items: Optional[tuple[SelectItem, ...]] = None
    #: Grouping keys: column refs or QUALITY(...) tag/score refs.
    group_by: tuple[Union[ColumnRef, QualityRef, QualityScoreRef], ...] = ()
    #: True for ``EXPLAIN SELECT ...`` — execute() returns the rendered
    #: optimized plan instead of running the query.
    explain: bool = False
    #: True for ``EXPLAIN ANALYZE SELECT ...`` — the statement *runs*
    #: and execute() returns the plan annotated with per-operator rows
    #: and timings (implies ``explain``).
    analyze: bool = False
    #: Source span of the FROM relation name.
    relation_span: Optional[Span] = _span_field()

    @property
    def has_aggregates(self) -> bool:
        return bool(self.select_items) and any(
            item.is_aggregate for item in self.select_items
        )

    def uses_quality(self) -> bool:
        """True when the statement references any QUALITY(...) form
        (tag references or parameter-score references)."""
        quality_refs = (QualityRef, QualityScoreRef)

        def walk(expr: Any) -> bool:
            if isinstance(expr, quality_refs):
                return True
            if isinstance(expr, Comparison):
                return walk(expr.left) or walk(expr.right)
            if isinstance(expr, (InList, IsNull)):
                return walk(expr.operand)
            if isinstance(expr, BoolOp):
                return walk(expr.left) or walk(expr.right)
            if isinstance(expr, NotOp):
                return walk(expr.operand)
            return False

        if self.where is not None and walk(self.where):
            return True
        if any(isinstance(item.key, quality_refs) for item in self.order_by):
            return True
        if any(isinstance(key, quality_refs) for key in self.group_by):
            return True
        for item in self.select_items or ():
            expr = item.expr
            if isinstance(expr, quality_refs):
                return True
            if isinstance(expr, AggregateCall) and isinstance(
                expr.operand, quality_refs
            ):
                return True
        return False
