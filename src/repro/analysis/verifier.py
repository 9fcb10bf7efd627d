"""The plan-IR static verifier: structural soundness of optimized plans.

The optimizer's rewrites (:mod:`repro.sql.optimizer`) and the plan
cache (:mod:`repro.sql.plancache`) are trusted with the correctness of
every planner-path answer: a wrong pushdown or a stale cache entry
silently returns wrong rows.  This module makes those invariants
checkable — the paper's "quality requirements verified before data is
consumed" applied to the engine's own plans.

:func:`verify_plan` walks an optimized logical plan bottom-up, deriving
each operator's output shape via the plan IR's own
:func:`~repro.sql.plan.derive_plan_columns` methods, and reports
violations through the diagnostics engine as the DQ40x family:

- **column resolution** (DQ401) — every column an operator reads is
  provided by its input subtree;
- **schema consistency** (DQ402) — no duplicate output names, join
  inputs disjoint, join column annotations fresh, scan flags matching
  the catalog;
- **QUALITY placement** (DQ404) — QUALITY references only appear over
  tag-carrying subtrees;
- **fusion legality** (DQ407/DQ408) — TopK/Limit/Sort parameters are
  legal and LIMIT-over-ORDER-BY was fused;
- **partition-pruning legality** (DQ410) — a pruned ``Scan`` (one
  carrying a static surviving-bucket set) is governed by a Filter
  predicate that actually restricts the partition key, its layout
  metadata matches the live :class:`~repro.relational.partition.PartitionSpec`,
  and the surviving set is a superset of the buckets the predicate can
  reach (re-derived via the optimizer's own
  :func:`~repro.sql.optimizer.derive_partition_buckets`, so verifier
  and rewrite cannot drift).  Pruning justified by a predicate that
  does not constrain the partition key is a hard error.

:func:`verify_cache_entry` audits one plan-cache entry (DQ409)
mechanically: it re-plans the entry's statement against the live
source with a fresh :class:`~repro.sql.context.PlanContext` and reports
any read the fresh planning made that the entry did not record (a
dependency its validity check cannot see), and any difference between
the fresh plan and the cached one (a stale plan being served).

Unknown base relations (a context that cannot resolve a scan) degrade
gracefully: shape-dependent checks are skipped rather than reported,
so the verifier can run over partially-bound plans in tests.

Wiring: ``optimize(..., verify=True)``, the ``REPRO_VERIFY_PLANS=1``
environment flag (which also arms the batch sanitizer in
:mod:`repro.sql.physical`), and the plan cache's install/hit paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.diagnostics import Diagnostics, QueryAnalysisError
from repro.obs import metrics as _obs_metrics
from repro.sql.context import same_read
from repro.sql.nodes import (
    AggregateCall,
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    NotOp,
    QualityRef,
    QualityScoreRef,
)
from repro.sql.plan import (
    Aggregate,
    Columns,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    TopK,
    render_expr,
)
from repro.sql.physical import sanitize_enabled as verify_plans_enabled

__all__ = [
    "PlanVerificationError",
    "assert_plan_verifies",
    "verify_cache_entry",
    "verify_plan",
    "verify_plans_enabled",
]

class PlanVerificationError(QueryAnalysisError):
    """An optimized plan (or cache entry) failed static verification.

    Carries the full :class:`Diagnostics` list like its parent; raised
    by ``optimize(..., verify=True)`` and the plan cache's verified
    install/hit paths.
    """


@dataclass
class _Shape:
    """Derived facts about one plan subtree's output."""

    columns: Columns  # output column names, None when underivable
    tagged: bool  # rows carry per-cell quality tags
    tag_schema: Any  # TagSchema when known, else None
    known: bool  # the base relation(s) below resolved in the context


def _expr_refs(expr: Any) -> tuple[set[str], set[tuple[str, str]], set[str]]:
    """(column names, QUALITY (column, indicator) pairs, QUALITY score
    parameters) a WHERE subtree reads."""
    columns: set[str] = set()
    quality: set[tuple[str, str]] = set()
    scores: set[str] = set()

    def walk(node: Any) -> None:
        if isinstance(node, Literal):
            return
        if isinstance(node, ColumnRef):
            columns.add(node.column)
        elif isinstance(node, QualityRef):
            columns.add(node.column)
            quality.add((node.column, node.indicator))
        elif isinstance(node, QualityScoreRef):
            scores.add(node.parameter)
        elif isinstance(node, Comparison):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (InList, IsNull)):
            walk(node.operand)
        elif isinstance(node, BoolOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, NotOp):
            walk(node.operand)

    walk(expr)
    return columns, quality, scores


class _PlanVerifier:
    """One verification run over one optimized plan tree."""

    def __init__(
        self,
        context: Any,
        sql: Optional[str],
        context_label: str,
        diagnostics: Diagnostics,
    ) -> None:
        self.context = context
        self.sql = sql
        self.context_label = context_label
        self.diagnostics = diagnostics

    def add(self, code: str, message: str, span: Any = None) -> None:
        self.diagnostics.add(
            code,
            message,
            span=span,
            source=self.sql,
            context=self.context_label,
        )

    # -- per-node checks -----------------------------------------------------

    def visit(self, node: PlanNode) -> _Shape:
        if isinstance(node, Scan):
            return self.visit_scan(node)
        if isinstance(node, Filter):
            return self.visit_filter(node)
        if isinstance(node, Project):
            return self.visit_project(node)
        if isinstance(node, HashJoin):
            return self.visit_hash_join(node)
        if isinstance(node, Aggregate):
            return self.visit_aggregate(node)
        if isinstance(node, (Sort, TopK)):
            return self.visit_order(node)
        if isinstance(node, Distinct):
            return self.visit(node.child)
        if isinstance(node, Limit):
            return self.visit_limit(node)
        self.add("DQ402", f"unknown plan node {node!r}")  # pragma: no cover
        return _Shape(None, False, None, False)  # pragma: no cover

    def visit_scan(self, node: Scan) -> _Shape:
        context = self.context
        kind = context.kind(node.relation) if context else None
        if kind is None:
            return _Shape(None, node.tagged, None, False)
        tagged = kind == "tagged"
        if tagged != node.tagged:
            self.add(
                "DQ402",
                f"Scan of {node.relation!r} is marked "
                f"{'tagged' if node.tagged else 'plain'} but the catalog "
                f"relation is {'tagged' if tagged else 'plain'}",
            )
        return _Shape(
            tuple(context.schema(node.relation).column_names),
            tagged,
            context.tag_schema(node.relation) if tagged else None,
            True,
        )

    def visit_filter(self, node: Filter) -> _Shape:
        shape = self.visit(node.child)
        predicate = node.predicate
        if isinstance(predicate, Literal):
            return shape
        columns, quality, scores = _expr_refs(predicate)
        span = getattr(predicate, "span", None)
        if shape.known and shape.columns is not None:
            for column in sorted(columns - set(shape.columns)):
                self.add(
                    "DQ401",
                    f"Filter predicate references column {column!r}, "
                    f"which its input does not provide "
                    f"(columns: {list(shape.columns)})",
                    span=span,
                )
        if (quality or scores) and shape.known and not shape.tagged:
            pairs = ", ".join(
                [f"QUALITY({c}.{i})" for c, i in sorted(quality)]
                + [f"QUALITY({p})" for p in sorted(scores)]
            )
            self.add(
                "DQ404",
                f"Filter evaluates {pairs} over an untagged subtree; "
                f"no per-cell tags exist there",
                span=span,
            )
        return shape

    def visit_project(self, node: Project) -> _Shape:
        shape = self.visit(node.child)
        seen: dict[str, int] = {}
        materializes_quality = False
        for item in node.items:
            name = item.output_name
            seen[name] = seen.get(name, 0) + 1
            if seen[name] == 2:
                self.add(
                    "DQ402",
                    f"Project emits duplicate output column {name!r}",
                    span=item.span,
                )
            expr = item.expr
            if isinstance(expr, AggregateCall):
                self.add(
                    "DQ402",
                    f"Project contains aggregate call "
                    f"{expr.func}(...); aggregates belong in an "
                    f"Aggregate operator",
                    span=item.span,
                )
                continue
            if isinstance(expr, QualityScoreRef):
                materializes_quality = True
                if shape.known and not shape.tagged:
                    self.add(
                        "DQ404",
                        f"Project materializes QUALITY({expr.parameter}) "
                        f"over an untagged subtree",
                        span=item.span,
                    )
                continue  # score refs read tags, not an input column
            if isinstance(expr, QualityRef):
                materializes_quality = True
                if shape.known and not shape.tagged:
                    self.add(
                        "DQ404",
                        f"Project materializes QUALITY({expr.column}."
                        f"{expr.indicator}) over an untagged subtree",
                        span=item.span,
                    )
            if (
                shape.known
                and shape.columns is not None
                and expr.column not in shape.columns
            ):
                self.add(
                    "DQ401",
                    f"Project references column {expr.column!r}, which "
                    f"its input does not provide "
                    f"(columns: {list(shape.columns)})",
                    span=item.span,
                )
        return _Shape(
            tuple(item.output_name for item in node.items),
            shape.tagged and not materializes_quality,
            shape.tag_schema if shape.tagged and not materializes_quality else None,
            shape.known,
        )

    def visit_hash_join(self, node: HashJoin) -> _Shape:
        left = self.visit(node.left)
        right = self.visit(node.right)
        if left.columns is not None and right.columns is not None:
            overlap = set(left.columns) & set(right.columns)
            if overlap:
                self.add(
                    "DQ402",
                    f"HashJoin inputs share column names "
                    f"{sorted(overlap)}; the concatenated output schema "
                    f"would be ambiguous",
                )
        for annotation, derived, side in (
            (node.left_columns, left.columns, "left"),
            (node.right_columns, right.columns, "right"),
        ):
            if annotation and derived is not None and tuple(annotation) != derived:
                self.add(
                    "DQ402",
                    f"HashJoin {side}_columns annotation "
                    f"{list(annotation)} is stale; the {side} subtree "
                    f"derives {list(derived)}",
                )
        for lcol, rcol in node.on:
            if left.known and left.columns is not None and lcol not in left.columns:
                self.add(
                    "DQ401",
                    f"HashJoin key {lcol!r} is not provided by the left "
                    f"input (columns: {list(left.columns)})",
                )
            if right.known and right.columns is not None and rcol not in right.columns:
                self.add(
                    "DQ401",
                    f"HashJoin key {rcol!r} is not provided by the "
                    f"right input (columns: {list(right.columns)})",
                )
        columns = (
            left.columns + right.columns
            if left.columns is not None and right.columns is not None
            else None
        )
        return _Shape(columns, False, None, left.known and right.known)

    def _check_operand(
        self, operand: Any, shape: _Shape, where: str, span: Any
    ) -> None:
        """Resolve one ColumnRef/QualityRef against the input shape."""
        if isinstance(operand, QualityScoreRef):
            if shape.known and not shape.tagged:
                self.add(
                    "DQ404",
                    f"{where} evaluates QUALITY({operand.parameter}) "
                    f"over an untagged subtree",
                    span=span,
                )
            return  # score refs read tags, not an input column
        if isinstance(operand, QualityRef):
            if shape.known and not shape.tagged:
                self.add(
                    "DQ404",
                    f"{where} evaluates QUALITY({operand.column}."
                    f"{operand.indicator}) over an untagged subtree",
                    span=span,
                )
        if (
            shape.known
            and shape.columns is not None
            and operand.column not in shape.columns
        ):
            self.add(
                "DQ401",
                f"{where} references column {operand.column!r}, which "
                f"its input does not provide "
                f"(columns: {list(shape.columns)})",
                span=span,
            )

    def visit_aggregate(self, node: Aggregate) -> _Shape:
        shape = self.visit(node.child)
        for key in node.group_by:
            self._check_operand(key, shape, "Aggregate GROUP BY", key.span)
        seen: dict[str, int] = {}
        for item in node.items:
            name = item.output_name
            seen[name] = seen.get(name, 0) + 1
            if seen[name] == 2:
                self.add(
                    "DQ402",
                    f"Aggregate emits duplicate output column {name!r}",
                    span=item.span,
                )
            expr = item.expr
            if isinstance(expr, AggregateCall):
                if expr.operand is not None:
                    self._check_operand(
                        expr.operand, shape, f"Aggregate {expr.func}",
                        expr.span,
                    )
            else:
                self._check_operand(expr, shape, "Aggregate key", item.span)
        return _Shape(
            tuple(item.output_name for item in node.items),
            False,
            None,
            shape.known,
        )

    def visit_order(self, node: "Sort | TopK") -> _Shape:
        shape = self.visit(node.child)
        kind = type(node).__name__
        if not node.order_by:
            self.add(
                "DQ407",
                f"{kind} with no order keys; no rewrite sequence "
                f"produces an unkeyed {kind}",
            )
        if isinstance(node, TopK) and node.count < 0:
            self.add(
                "DQ407",
                f"TopK with negative count {node.count}; limits are "
                f"validated non-negative at parse time",
            )
        for item in node.order_by:
            self._check_operand(item.key, shape, f"{kind} key", item.span)
        return shape

    def visit_limit(self, node: Limit) -> _Shape:
        shape = self.visit(node.child)
        if node.count < 0:
            self.add(
                "DQ407",
                f"Limit with negative count {node.count}; limits are "
                f"validated non-negative at parse time",
            )
        child = node.child
        if isinstance(child, Sort) or (
            isinstance(child, Project) and isinstance(child.child, Sort)
        ):
            self.add(
                "DQ408",
                "Limit directly above Sort survived optimization; "
                "fuse_topk should have rewritten this into a "
                "bounded-heap TopK",
            )
        return shape

    # -- partition-pruning legality (DQ410) -----------------------------------

    def check_partition_pruning(self, plan: PlanNode) -> None:
        """Pre-pass: every pruned Scan's bucket set is justified.

        The *governing* predicate of a pruned scan is that of the Filter
        directly above it (the shape the optimizer's
        ``prune_partitions`` rewrite produces).  Any other parent
        leaves it ungoverned: nothing justifies the dropped buckets,
        and that is a hard error.
        """

        def walk(node: PlanNode, governing: Any) -> None:
            if isinstance(node, Scan):
                if node.partitions is not None:
                    self._check_pruned_scan(node, governing)
                return
            if isinstance(node, Filter):
                walk(node.child, node.predicate)
                return
            for child in node.children():
                walk(child, None)

        walk(plan, None)

    def _check_pruned_scan(self, node: Scan, predicate: Any) -> None:
        from repro.sql.optimizer import derive_partition_buckets

        label = (
            f"pruned Scan of {node.relation!r} "
            f"({len(node.partitions)}/{node.partition_total})"
        )
        out_of_range = sorted(
            bucket
            for bucket in node.partitions
            if not 0 <= bucket < node.partition_total
        )
        if out_of_range:
            self.add(
                "DQ410",
                f"{label} lists bucket(s) {out_of_range} outside "
                f"[0, {node.partition_total})",
            )
        if predicate is None:
            self.add(
                "DQ410",
                f"{label} has no governing Filter predicate; nothing "
                f"justifies eliminating the dropped partitions",
            )
            return
        if not self.context or self.context.kind(node.relation) is None:
            return  # unknown base relation: degrade gracefully
        spec = self.context.partition_spec(node.relation)
        if spec is None:
            self.add(
                "DQ410",
                f"{label} but the catalog relation is not partitioned; "
                f"executing it would silently drop rows",
            )
            return
        if (
            spec.count != node.partition_total
            or spec.column != node.partition_key
        ):
            self.add(
                "DQ410",
                f"{label} pins layout key={node.partition_key!r} "
                f"total={node.partition_total} but the live layout is "
                f"{spec.describe()}; stale pruning may drop live buckets",
            )
            return
        derived = derive_partition_buckets(spec, predicate)
        if derived is None:
            self.add(
                "DQ410",
                f"{label}: governing predicate "
                f"{render_expr(predicate)} does not restrict partition "
                f"key {spec.column!r}; pruning over a non-partition-key "
                f"predicate is unsound",
                span=getattr(predicate, "span", None),
            )
            return
        missing = sorted(derived - set(node.partitions))
        if missing:
            self.add(
                "DQ410",
                f"{label} drops bucket(s) {missing} that predicate "
                f"{render_expr(predicate)} can still reach",
                span=getattr(predicate, "span", None),
            )


def verify_plan(
    plan: PlanNode,
    context: Any = None,
    *,
    sql: Optional[str] = None,
    context_label: str = "",
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Statically verify one optimized plan tree.

    ``context`` is the :class:`~repro.sql.context.PlanContext` the
    plan was optimized against (None: every base relation unknown);
    ``sql`` anchors diagnostics back to the source statement via the
    AST spans the plan nodes carry.  Returns the diagnostics collected
    (never raises — see :func:`assert_plan_verifies`).
    """
    if diagnostics is None:
        diagnostics = Diagnostics()
    before = len(diagnostics)
    verifier = _PlanVerifier(context, sql, context_label, diagnostics)
    verifier.visit(plan)
    verifier.check_partition_pruning(plan)
    if _obs_metrics.enabled():
        registry = _obs_metrics.global_registry()
        registry.counter(
            "qsql.verifier.plans", "optimized plans statically verified"
        ).inc()
        found = len(diagnostics) - before
        if found:
            registry.counter(
                "qsql.verifier.violations",
                "plan-verifier diagnostics emitted",
            ).inc(found)
    return diagnostics


def assert_plan_verifies(
    plan: PlanNode,
    context: Any = None,
    *,
    sql: Optional[str] = None,
    context_label: str = "",
) -> None:
    """Run :func:`verify_plan`; raise on error-severity findings."""
    diagnostics = verify_plan(
        plan, context, sql=sql, context_label=context_label
    )
    if diagnostics.has_errors:
        raise PlanVerificationError(diagnostics, sql)


# -- plan-cache entry audit ---------------------------------------------------


def verify_cache_entry(
    entry: Any,
    source: Any,
    *,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Audit one plan-cache entry against the live ``source`` (DQ409).

    ``entry`` is a :class:`~repro.sql.plancache.PreparedStatement` the
    cache just validated for ``source``.  Its statement is re-planned
    with a fresh recorder; DQ409 fires when that planning read a fact
    the entry did not record with the same value (the entry's validity
    check is blind to it), or produced a different plan (the cache is
    serving a stale one).
    """
    from repro.sql.plancache import plan_statement

    if diagnostics is None:
        diagnostics = Diagnostics()
    sql = entry.sql
    plan, _, context = plan_statement(entry.statement, source)
    recorded = {(fact, name): value for fact, name, value in entry.reads}
    unrecorded = [
        f"{fact}({name})" if name is not None else fact
        for fact, name, value in context.reads
        if (fact, name) not in recorded
        or not same_read(fact, recorded[(fact, name)], value)
    ]
    if unrecorded:
        diagnostics.add(
            "DQ409",
            f"planning read {', '.join(unrecorded)}, which the entry "
            f"does not record as read; a change there would not "
            f"invalidate it",
            source=sql,
            context=entry.statement.relation,
        )
    if plan != entry.plan:
        diagnostics.add(
            "DQ409",
            "the cached plan differs from a fresh plan of its statement "
            "against the live source; the cache is serving a stale plan",
            source=sql,
            context=entry.statement.relation,
        )
    return diagnostics
