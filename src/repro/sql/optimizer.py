"""QSQL plan optimizer: rewrite rules over the logical plan IR.

Each rule is a standalone function ``rule(plan, ...) -> plan`` so tests
can exercise one rewrite at a time; :func:`optimize` chains them in a
fixed order.  All rules preserve QSQL semantics, as the test oracle
(:func:`repro.experiments.naive.naive_execute`) defines them:

- :func:`fold_constants` — evaluate constant predicates at plan time
  using the engine's exact comparison semantics (NULL never matches,
  ``TypeError`` → false) and simplify AND/OR/NOT around the results;
- :func:`prune_partitions` — turn equality/range/IN conjuncts on a
  partitioned relation's declared partition key into static partition
  elimination: the :class:`~repro.sql.plan.Scan` records the surviving
  bucket set (EXPLAIN shows ``partitions=k/N``) and the physical
  executor feeds only those shards.  The predicate itself is kept, so
  pruning is purely an access-path restriction;
- :func:`annotate_join_columns` / :func:`push_value_predicates` — move
  single-side conjuncts of a filter above a :class:`HashJoin` below
  the join, shrinking both build and probe inputs;
- :func:`prune_projections` — narrow join inputs to the columns the
  query actually consumes (projected + join keys + filtered);
- :func:`choose_build_side` — build the hash index on the side with
  the smaller estimated cardinality;
- :func:`fuse_topk` — rewrite LIMIT over ORDER BY into a bounded-heap
  :class:`~repro.sql.plan.TopK` (``heapq.nsmallest`` instead of a
  full sort).

``QUALITY(...)`` predicates are not rewritten: they stay leaves of the
Filter over the Scan, and the physical executor reads them from the tag
and score arrays (:func:`repro.sql.physical._operand`), so no rule reads
the scoring profile.

Rules never see relation objects: every fact they consult (relation
kind, schemas, partition layout, cardinality) is read through a
:class:`~repro.sql.context.PlanContext`, which records it — those
recorded reads are what the plan cache revalidates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from repro.sql.nodes import (
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
    SelectItem,
)
from repro.sql.context import PlanContext
from repro.sql.executor import _FLIPPED, _sql_compare
from repro.sql.plan import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    TopK,
    derive_plan_columns,
)

def _transform(plan: PlanNode, visit: Callable[[PlanNode], PlanNode]) -> PlanNode:
    """Apply ``visit`` bottom-up over the plan tree."""
    if isinstance(plan, HashJoin):
        plan = replace(
            plan,
            left=_transform(plan.left, visit),
            right=_transform(plan.right, visit),
        )
    elif plan.children():
        plan = replace(plan, child=_transform(plan.child, visit))
    return visit(plan)


# -- constant folding --------------------------------------------------------


def fold_expr(expr: Any) -> Any:
    """Fold constant subtrees of a WHERE expression to boolean literals."""
    if isinstance(expr, Comparison):
        if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
            return Literal(
                _sql_compare(expr.op, expr.left.value, expr.right.value)
            )
        return expr
    if isinstance(expr, InList):
        if isinstance(expr.operand, Literal):
            value = expr.operand.value
            if value is None:
                return Literal(False)
            result = value in expr.options
            return Literal((not result) if expr.negated else result)
        return expr
    if isinstance(expr, IsNull):
        if isinstance(expr.operand, Literal):
            is_null = expr.operand.value is None
            return Literal((not is_null) if expr.negated else is_null)
        return expr
    if isinstance(expr, BoolOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if expr.op == "AND":
            if isinstance(left, Literal):
                return right if left.value else Literal(False)
            if isinstance(right, Literal):
                return left if right.value else Literal(False)
        else:  # OR
            if isinstance(left, Literal):
                return Literal(True) if left.value else right
            if isinstance(right, Literal):
                return Literal(True) if right.value else left
        if left is expr.left and right is expr.right:
            return expr
        return BoolOp(expr.op, left, right, span=expr.span)
    if isinstance(expr, NotOp):
        inner = fold_expr(expr.operand)
        if isinstance(inner, Literal):
            return Literal(not inner.value)
        if inner is expr.operand:
            return expr
        return NotOp(inner, span=expr.span)
    return expr


def fold_constants(plan: PlanNode) -> PlanNode:
    """Fold every Filter predicate; drop filters that become TRUE."""

    def visit(node: PlanNode) -> PlanNode:
        if not isinstance(node, Filter):
            return node
        predicate = fold_expr(node.predicate)
        if isinstance(predicate, Literal) and predicate.value:
            return node.child
        if predicate is node.predicate:
            return node
        return Filter(node.child, predicate)

    return _transform(plan, visit)


# -- conjuncts ---------------------------------------------------------------


def split_conjuncts(expr: Any) -> list[Any]:
    """Top-level AND conjuncts of an expression, left to right."""
    if isinstance(expr, BoolOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def join_conjuncts(conjuncts: list[Any]) -> Any:
    """Re-AND conjuncts (left-associative, like the parser)."""
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BoolOp("AND", result, conjunct)
    return result


# -- partition pruning -------------------------------------------------------


def derive_partition_buckets(spec, predicate: Any) -> Optional[frozenset]:
    """Buckets of ``spec`` that can hold predicate-matching rows.

    Returns ``None`` when the predicate implies no restriction (the
    scan must read every bucket) and a — possibly empty — frozenset of
    bucket ids otherwise.  The derivation is deliberately conservative:
    a surviving superset is always sound because the row predicate is
    still applied above the scan.  Per-conjunct rules:

    - ``key = literal`` → the literal's bucket (NULL → match nothing);
    - ``key IN (...)`` → union over non-NULL options;
    - ``key < / <= / > / >= literal`` → a bucket prefix/suffix, range
      layouts only (hash buckets carry no order);
    - ``key IS NULL`` → the NULL bucket;
    - ``AND`` intersects, ``OR`` unions (underivable OR sides poison
      the union); anything else derives no restriction.

    The same function backs both the optimizer rewrite and the DQ410
    legality check in :mod:`repro.analysis.verifier`, so "what the
    planner may prune" and "what the verifier accepts" cannot drift.
    """

    def column_literal(comparison: Comparison) -> Optional[tuple[str, Any]]:
        left, right, op = comparison.left, comparison.right, comparison.op
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            left, right = right, left
            op = _FLIPPED[op]
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return None
        if left.column != spec.column:
            return None
        return op, right.value

    def derive(expr: Any) -> Optional[frozenset]:
        if isinstance(expr, Literal):
            return None if expr.value else frozenset()
        if isinstance(expr, Comparison):
            normalized = column_literal(expr)
            if normalized is None:
                return None
            op, value = normalized
            if value is None:
                return frozenset()  # comparisons with NULL never match
            if op == "=":
                try:
                    return frozenset({spec.bucket_of(value)})
                except TypeError:
                    return None
            if spec.kind == "range" and op in ("<", "<=", ">", ">="):
                try:
                    pivot = spec.bucket_of(value)
                except TypeError:
                    return None
                if op in ("<", "<="):
                    return frozenset(range(pivot + 1))
                return frozenset(range(pivot, spec.count))
            return None
        if isinstance(expr, InList):
            if expr.negated:
                return None
            operand = expr.operand
            if not (
                isinstance(operand, ColumnRef)
                and operand.column == spec.column
            ):
                return None
            buckets: set[int] = set()
            try:
                for option in expr.options:
                    if option is None:
                        continue  # NULL options never match
                    buckets.add(spec.bucket_of(option))
            except TypeError:
                return None
            return frozenset(buckets)
        if isinstance(expr, IsNull):
            if expr.negated:
                return None
            operand = expr.operand
            if not (
                isinstance(operand, ColumnRef)
                and operand.column == spec.column
            ):
                return None
            return frozenset({spec.bucket_of(None)})
        if isinstance(expr, BoolOp):
            left = derive(expr.left)
            right = derive(expr.right)
            if expr.op == "AND":
                if left is None:
                    return right
                if right is None:
                    return left
                return left & right
            if left is None or right is None:
                return None
            return left | right
        return None

    return derive(predicate)


def prune_partitions(plan: PlanNode, context: PlanContext) -> PlanNode:
    """Statically eliminate partitions a Filter predicate cannot reach.

    Fires on ``Filter(Scan)`` when the base relation declares a
    partition layout.  The scan records the surviving bucket tuple plus
    the layout's total and key; the Filter stays in place, so the
    rewrite can only shrink the rows fed to it.
    """

    def visit(node: PlanNode) -> PlanNode:
        if not (isinstance(node, Filter) and isinstance(node.child, Scan)):
            return node
        scan = node.child
        if scan.partitions is not None:
            return node
        spec = context.partition_spec(scan.relation)
        if spec is None:
            return node
        buckets = derive_partition_buckets(spec, node.predicate)
        if buckets is None or len(buckets) == spec.count:
            return node
        pruned = replace(
            scan,
            partitions=tuple(sorted(buckets)),
            partition_total=spec.count,
            partition_key=spec.column,
        )
        return replace(node, child=pruned)

    return _transform(plan, visit)


# -- join rules --------------------------------------------------------------


def _output_columns(node: PlanNode, context: PlanContext) -> tuple[str, ...]:
    """Column names a plan subtree produces (unknowns collapse to ())."""

    def resolve(name: str):
        schema = context.schema(name)
        return tuple(schema.column_names) if schema is not None else None

    derived = derive_plan_columns(node, resolve)
    return derived if derived is not None else ()


def annotate_join_columns(plan: PlanNode, context: PlanContext) -> PlanNode:
    """Record each join input's column names on the HashJoin node (the
    information :func:`push_value_predicates` and
    :func:`prune_projections` classify conjuncts with)."""

    def visit(node: PlanNode) -> PlanNode:
        if not isinstance(node, HashJoin):
            return node
        return replace(
            node,
            left_columns=_output_columns(node.left, context),
            right_columns=_output_columns(node.right, context),
        )

    return _transform(plan, visit)


def _expr_columns(expr: Any) -> Optional[set[str]]:
    """Columns a predicate subtree reads; None when it has a part
    (e.g. a QUALITY reference) that cannot be relocated."""
    if isinstance(expr, Literal):
        return set()
    if isinstance(expr, ColumnRef):
        return {expr.column}
    if isinstance(expr, (QualityRef, QualityScoreRef)):
        return None
    if isinstance(expr, Comparison):
        left = _expr_columns(expr.left)
        right = _expr_columns(expr.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(expr, (InList, IsNull)):
        return _expr_columns(expr.operand)
    if isinstance(expr, BoolOp):
        left = _expr_columns(expr.left)
        right = _expr_columns(expr.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(expr, NotOp):
        return _expr_columns(expr.operand)
    return None


def push_value_predicates(plan: PlanNode) -> PlanNode:
    """Push single-side conjuncts of Filter(HashJoin) below the join.

    Requires the join's ``left_columns``/``right_columns`` annotations
    (see :func:`annotate_join_columns`).
    """

    def visit(node: PlanNode) -> PlanNode:
        if not (isinstance(node, Filter) and isinstance(node.child, HashJoin)):
            return node
        join = node.child
        if not join.left_columns or not join.right_columns:
            return node
        left_cols = set(join.left_columns)
        right_cols = set(join.right_columns)
        to_left: list[Any] = []
        to_right: list[Any] = []
        residual: list[Any] = []
        for conjunct in split_conjuncts(node.predicate):
            used = _expr_columns(conjunct)
            if used is not None and used <= left_cols:
                to_left.append(conjunct)
            elif used is not None and used <= right_cols:
                to_right.append(conjunct)
            else:
                residual.append(conjunct)
        if not to_left and not to_right:
            return node
        left = join.left
        right = join.right
        if to_left:
            left = Filter(left, join_conjuncts(to_left))
        if to_right:
            right = Filter(right, join_conjuncts(to_right))
        rewritten: PlanNode = replace(join, left=left, right=right)
        if residual:
            rewritten = Filter(rewritten, join_conjuncts(residual))
        return rewritten

    return _transform(plan, visit)


def prune_projections(plan: PlanNode, context: PlanContext) -> PlanNode:
    """Narrow join inputs to the columns the plan above consumes.

    Fires on Project(HashJoin) (optionally with filters already pushed
    below the join): each side keeps only projected columns, join keys,
    and columns its own pushed filters read.
    """

    def side_filter_columns(node: PlanNode) -> set[str]:
        used: set[str] = set()
        while isinstance(node, (Filter, Limit, Distinct)):
            if isinstance(node, Filter):
                columns = _expr_columns(node.predicate)
                if columns is None:
                    return used  # conservatively keep what we saw
                used |= columns
            node = node.children()[0]
        return used

    def prune_side(
        side: PlanNode, columns: tuple[str, ...], needed: set[str]
    ) -> tuple[PlanNode, tuple[str, ...]]:
        keep = tuple(name for name in columns if name in needed)
        if not keep or keep == columns:
            return side, columns
        items = tuple(SelectItem(ColumnRef(name)) for name in keep)
        return Project(side, items), keep

    def visit(node: PlanNode) -> PlanNode:
        if not (isinstance(node, Project) and isinstance(node.child, HashJoin)):
            return node
        join = node.child
        if not join.left_columns or not join.right_columns:
            return node
        needed: set[str] = set()
        for item in node.items:
            if not isinstance(item.expr, ColumnRef):
                return node
            needed.add(item.expr.column)
        for lcol, rcol in join.on:
            needed.add(lcol)
            needed.add(rcol)
        left_needed = needed | side_filter_columns(join.left)
        right_needed = needed | side_filter_columns(join.right)
        left, left_columns = prune_side(
            join.left, join.left_columns, left_needed
        )
        right, right_columns = prune_side(
            join.right, join.right_columns, right_needed
        )
        if left is join.left and right is join.right:
            return node
        return replace(
            node,
            child=replace(
                join,
                left=left,
                right=right,
                left_columns=left_columns,
                right_columns=right_columns,
            ),
        )

    return _transform(plan, visit)


def _estimate(node: PlanNode, context: PlanContext) -> int:
    """A coarse cardinality estimate (base-relation sizes, limit caps)."""
    if isinstance(node, Scan):
        return context.cardinality(node.relation)
    if isinstance(node, (Limit, TopK)):
        return min(node.count, _estimate(node.children()[0], context))
    if isinstance(node, HashJoin):
        return max(
            _estimate(node.left, context), _estimate(node.right, context)
        )
    children = node.children()
    return _estimate(children[0], context) if children else 0


def choose_build_side(plan: PlanNode, context: PlanContext) -> PlanNode:
    """Build each hash index on the smaller estimated input."""

    def visit(node: PlanNode) -> PlanNode:
        if not isinstance(node, HashJoin) or node.build_side is not None:
            return node
        left = _estimate(node.left, context)
        right = _estimate(node.right, context)
        return replace(
            node, build_side="left" if left < right else "right"
        )

    return _transform(plan, visit)


# -- limit/sort fusion -------------------------------------------------------


def fuse_topk(plan: PlanNode) -> PlanNode:
    """LIMIT over ORDER BY → bounded heap (through 1:1 projections)."""

    def visit(node: PlanNode) -> PlanNode:
        if not isinstance(node, Limit):
            return node
        child = node.child
        if isinstance(child, Sort):
            return TopK(child.child, child.order_by, node.count)
        if isinstance(child, Project) and isinstance(child.child, Sort):
            sort = child.child
            return Project(
                TopK(sort.child, sort.order_by, node.count), child.items
            )
        return node

    return _transform(plan, visit)


# -- the pipeline ------------------------------------------------------------


def optimize(
    plan: PlanNode,
    context: PlanContext,
    *,
    verify: Optional[bool] = None,
) -> PlanNode:
    """Apply every rewrite rule in its fixed order.

    ``verify=True`` runs the plan-IR static verifier
    (:mod:`repro.analysis.verifier`) over the rewritten tree and raises
    :class:`~repro.analysis.verifier.PlanVerificationError` on any
    error-severity finding; ``verify=None`` (the default) defers to the
    ``REPRO_VERIFY_PLANS`` environment flag.
    """
    plan = fold_constants(plan)
    plan = prune_partitions(plan, context)
    plan = annotate_join_columns(plan, context)
    plan = push_value_predicates(plan)
    plan = prune_projections(plan, context)
    plan = choose_build_side(plan, context)
    plan = fuse_topk(plan)
    if verify is None:
        from repro.analysis.verifier import verify_plans_enabled

        verify = verify_plans_enabled()
    if verify:
        from repro.analysis.verifier import assert_plan_verifies

        assert_plan_verifies(plan, context)
    return plan
