"""QSQL logical plan IR.

The planner lowers a parsed :class:`~repro.sql.nodes.SelectStatement`
into a tree of plan nodes, which the optimizer
(:mod:`repro.sql.optimizer`) rewrites and the physical executor
(:mod:`repro.sql.physical`) compiles into batch operators.  Plan nodes
are plain immutable dataclasses; rewriting builds new trees.

Node vocabulary:

- :class:`Scan` — read every row of the FROM relation (or, once
  pruned, of its surviving partitions);
- :class:`Filter` — the WHERE predicate, ``QUALITY(...)`` leaves
  included (compiled into selection functions over the scan's value,
  tag and score arrays);
- :class:`Project` — projection/renaming, including materialized
  ``QUALITY(...)`` value columns;
- :class:`HashJoin` — equi-join with an explicit build side (built by
  the programmatic :func:`join_plan` API — QSQL's grammar is
  single-relation);
- :class:`Aggregate` — GROUP BY + aggregate evaluation;
- :class:`Sort` / :class:`TopK` — full ordering vs. fused
  ORDER BY + LIMIT via a bounded heap;
- :class:`Distinct`, :class:`Limit` — duplicate elimination, row cap.

``render_plan`` produces the tree text that ``EXPLAIN SELECT ...``
returns.

Every node also derives its output schema: ``output_columns(inputs)``
maps the children's column-name tuples to the node's own (``None``
propagates "unknown" — e.g. a scan of a relation the context cannot
resolve).  :func:`derive_plan_columns` runs the derivation bottom-up
over a whole tree; the optimizer's join annotations and the plan-IR
static verifier (:mod:`repro.analysis.verifier`) both consume it, so
there is exactly one definition of what each operator produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.sql.nodes import (
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    NotOp,
    OrderItem,
    QualityRef,
    QualityScoreRef,
    SelectItem,
    SelectStatement,
)

PlanNode = Union[
    "Scan",
    "Filter",
    "Project",
    "HashJoin",
    "Aggregate",
    "Sort",
    "TopK",
    "Distinct",
    "Limit",
]

#: Derived column names of a subtree, or None when underivable (an
#: unresolvable base relation somewhere below).
Columns = Optional[tuple[str, ...]]


@dataclass(frozen=True)
class Scan:
    """Read all rows of one named relation.

    ``partitions`` (set by the optimizer's ``prune_partitions``
    rewrite) statically restricts the scan to the named buckets of a
    partitioned relation: ``partitions`` is the ascending tuple of
    surviving bucket ids, ``partition_total`` the layout's bucket
    count, and ``partition_key`` the declared partition column.  A
    ``None`` partitions field means "scan everything" (the only legal
    state for unpartitioned relations).
    """

    relation: str
    tagged: bool = False
    partitions: Optional[tuple[int, ...]] = None
    partition_total: int = 0
    partition_key: Optional[str] = None

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def label(self) -> str:
        flavor = "tagged" if self.tagged else "plain"
        if self.partitions is not None:
            flavor += (
                f", partitions={len(self.partitions)}/{self.partition_total}"
            )
        return f"Scan [{self.relation} ({flavor})]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return tuple(base) if base is not None else None


@dataclass(frozen=True)
class Filter:
    """A row predicate: the WHERE clause, or a conjunct of it."""

    child: PlanNode
    predicate: Union[Expr, Literal]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter [{render_expr(self.predicate)}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return inputs[0]


@dataclass(frozen=True)
class Project:
    """Projection (and renaming); may materialize QUALITY(...) columns."""

    child: PlanNode
    items: tuple[SelectItem, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        for item in self.items:
            text = render_operand(item.expr)
            if item.alias:
                text = f"{text} AS {item.alias}"
            parts.append(text)
        return f"Project [{', '.join(parts)}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return tuple(item.output_name for item in self.items)


@dataclass(frozen=True)
class HashJoin:
    """Equi-join: build a hash index on one side, probe with the other.

    ``build_side`` is chosen by the optimizer (smaller estimated
    cardinality); ``left_columns``/``right_columns`` record each input's
    column names so predicate pushdown can classify conjuncts.
    """

    left: PlanNode
    right: PlanNode
    on: tuple[tuple[str, str], ...]
    build_side: Optional[str] = None  # "left" | "right" | None (undecided)
    left_columns: tuple[str, ...] = ()
    right_columns: tuple[str, ...] = ()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(f"{lcol} = {rcol}" for lcol, rcol in self.on)
        side = self.build_side or "undecided"
        return f"HashJoin [{keys}, build={side}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        left, right = inputs
        if left is None or right is None:
            return None
        return left + right


@dataclass(frozen=True)
class Aggregate:
    """GROUP BY + aggregate evaluation (always yields a plain output)."""

    child: PlanNode
    group_by: tuple[Union[ColumnRef, QualityRef], ...]
    items: tuple[SelectItem, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        rendered = ", ".join(render_operand(item.expr) for item in self.items)
        if self.group_by:
            keys = ", ".join(render_operand(key) for key in self.group_by)
            return f"Aggregate [{rendered} GROUP BY {keys}]"
        return f"Aggregate [{rendered}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return tuple(item.output_name for item in self.items)


@dataclass(frozen=True)
class Sort:
    """Full stable multi-key sort."""

    child: PlanNode
    order_by: tuple[OrderItem, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Sort [{_render_order(self.order_by)}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return inputs[0]


@dataclass(frozen=True)
class TopK:
    """Fused ORDER BY + LIMIT: a bounded heap instead of a full sort."""

    child: PlanNode
    order_by: tuple[OrderItem, ...]
    count: int

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"TopK [{_render_order(self.order_by)}, k={self.count}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return inputs[0]


@dataclass(frozen=True)
class Distinct:
    """Duplicate elimination (tag-merging on tagged inputs)."""

    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return inputs[0]


@dataclass(frozen=True)
class Limit:
    """Keep the first ``count`` rows."""

    child: PlanNode
    count: int

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit [{self.count}]"

    def output_columns(self, inputs: tuple[Columns, ...], base: Columns = None) -> Columns:
        return inputs[0]


# -- schema derivation -------------------------------------------------------


def derive_plan_columns(
    plan: PlanNode, resolve: Callable[[str], Columns]
) -> Columns:
    """Bottom-up output-column derivation over a whole plan tree.

    ``resolve(name)`` supplies base-relation column names for each
    :class:`Scan` (return None for relations the context cannot see);
    unknowns propagate upward as None, except through operators whose
    output is fixed by their own items (Project, Aggregate).
    """
    inputs = tuple(
        derive_plan_columns(child, resolve) for child in plan.children()
    )
    if isinstance(plan, Scan):
        return plan.output_columns(inputs, resolve(plan.relation))
    return plan.output_columns(inputs)


# -- statement lowering ------------------------------------------------------


def logical_plan(statement: SelectStatement, tagged: bool) -> PlanNode:
    """Lower a parsed statement into the unoptimized logical plan.

    The pipeline follows QSQL's clause order (the one the test oracle,
    :func:`repro.experiments.naive.naive_execute`, interprets):
    scan → filter → (aggregate | sort) → project → distinct → limit,
    with ORDER BY evaluated *before* projection so order keys may name
    non-projected columns.
    """
    plan: PlanNode = Scan(statement.relation, tagged)
    if statement.where is not None:
        plan = Filter(plan, statement.where)
    if statement.has_aggregates:
        items = statement.select_items or ()
        plan = Aggregate(plan, statement.group_by, items)
        if statement.order_by:
            plan = Sort(plan, statement.order_by)
        if statement.limit is not None:
            plan = Limit(plan, statement.limit)
        return plan
    if statement.order_by:
        plan = Sort(plan, statement.order_by)
    if statement.select_items is not None:
        plan = Project(plan, statement.select_items)
    if statement.distinct:
        plan = Distinct(plan)
    if statement.limit is not None:
        plan = Limit(plan, statement.limit)
    return plan


# -- rendering ---------------------------------------------------------------


def render_operand(operand: Any) -> str:
    """Source-like text for an operand/select expression."""
    if isinstance(operand, Literal):
        value = operand.value
        return "NULL" if value is None else repr(value)
    if isinstance(operand, ColumnRef):
        return operand.column
    if isinstance(operand, QualityRef):
        return f"QUALITY({operand.column}.{operand.indicator})"
    if isinstance(operand, QualityScoreRef):
        return f"QUALITY({operand.parameter})"
    # AggregateCall
    if operand.operand is None:
        return f"{operand.func}(*)"
    return f"{operand.func}({render_operand(operand.operand)})"


def render_expr(expr: Any) -> str:
    """Source-like text for a WHERE subtree."""
    if isinstance(expr, Literal):
        return render_operand(expr)
    if isinstance(expr, Comparison):
        return (
            f"{render_operand(expr.left)} {expr.op} "
            f"{render_operand(expr.right)}"
        )
    if isinstance(expr, InList):
        options = ", ".join(
            "NULL" if option is None else repr(option)
            for option in expr.options
        )
        keyword = "NOT IN" if expr.negated else "IN"
        return f"{render_operand(expr.operand)} {keyword} ({options})"
    if isinstance(expr, IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{render_operand(expr.operand)} {keyword}"
    if isinstance(expr, BoolOp):
        return (
            f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
        )
    if isinstance(expr, NotOp):
        return f"NOT ({render_expr(expr.operand)})"
    return repr(expr)


def _render_order(order_by: tuple[OrderItem, ...]) -> str:
    return ", ".join(
        f"{render_operand(item.key)} {'DESC' if item.descending else 'ASC'}"
        for item in order_by
    )


def render_plan(plan: PlanNode) -> list[str]:
    """The plan tree as indented text lines (the EXPLAIN output)."""
    lines: list[str] = []

    def walk(node: PlanNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(node.label())
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(f"{prefix}{connector}{node.label()}")
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = node.children()
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1, False)

    walk(plan, "", True, True)
    return lines
