"""QSQL physical executor: optimized plans → batch operators.

:func:`compile_plan` lowers an (optimized) logical plan into a tree of
closures that each map a *binding* (relation name → live relation) to a
list of rows.  Compilation resolves every column position, output
schema, and predicate closure once; execution then runs over whole row
batches with no per-row name resolution.

Semantics are the reference executor's, by construction: filters and
sort keys reuse :func:`repro.sql.executor._compile_predicate` /
``_sort_key_function``, aggregation and QUALITY-materializing
projections call the executor's own implementations over a trusted
batch relation, and DISTINCT delegates to the algebra modules.  The
planner-only operators are:

- ``QualityFilter`` — asks the scanned relation for its lazily cached
  :meth:`~repro.tagging.relation.TaggedRelation.columnar_store` and
  scans contiguous tag arrays instead of evaluating per-cell closures;
- ``TopK`` — ``heapq.nsmallest`` over a composite sort key (equivalent
  to the executor's repeated stable sorts followed by LIMIT);
- ``HashJoin`` — build-side hash index chosen by the optimizer;
- ``Materialize`` + columnar ``Scan``/``Filter``/``Project``/``TopK``/
  ``Limit`` — the vectorized fragment the optimizer's
  :func:`~repro.sql.optimizer.choose_access_paths` emits.  Inside the
  fragment, operators pass ``(column arrays, selection vector)``
  batches: predicates run over whole arrays (same NULL/TypeError
  semantics as the row closures), projection reorders array references,
  TopK/Limit shrink the selection vector, and ``Materialize`` builds
  ``Row`` objects late, only for the surviving positions.

Compiled plans close over *names and schemas only*, never over relation
instances: the binding supplies relations at run time, which is what
makes cached plans safe to re-execute after data mutations (the plan
cache revalidates the facts planning read, not data).

Instrumentation (:mod:`repro.obs`): every compiled operator's batch
function takes ``(binding, stats)``.  With ``stats=None`` — the default
— the only cost is one ``None`` check per *operator* per execution
(never per row).  With an :class:`~repro.obs.stats.ExecutionStats`, a
thin per-operator wrapper (installed at compile time, shared by every
execution of a cached plan) records rows out and inclusive wall time
into the preorder-numbered stats tree; that tree is what
``EXPLAIN ANALYZE`` renders.  ``compile_plan(..., instrument=False)``
omits the wrappers entirely — the baseline the observability-overhead
benchmark measures against.

Sanitizer mode (``compile_plan(..., sanitize=True)``, defaulted from
``REPRO_VERIFY_PLANS``): debug wrappers validate every columnar batch
at every fragment operator — arrays match the operator's schema and
share one length, the selection vector is in-bounds, duplicate-free,
and ascending wherever the operator preserves row order (TopK emits
key order, so order checks stop above it) — plus array↔row alignment
at the Materialize boundary and bounds/monotonicity of tag-store scan
indices.  This is the dynamic cross-check of the plan verifier's
static columnar claims (:mod:`repro.analysis.verifier`); violations
raise :class:`ColumnarSanitizerError`.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter
from typing import Any, Callable, Mapping, Optional

from repro.errors import QueryError
from repro.obs import metrics as _obs_metrics
from repro.obs.stats import ExecutionStats
from repro.relational import algebra as plain_algebra
from repro.relational.relation import Relation, Row
from repro.relational.schema import Column, RelationSchema
from repro.sql.errors import SQLError
from repro.sql.executor import (
    _COMPARATORS,
    _FLIPPED,
    _compile_predicate,
    _computed_projection,
    _execute_aggregate,
    _item_output_domain,
    _sort_key_function,
    _sql_compare,
)
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
    SelectStatement,
)
from repro.sql.plan import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    Materialize,
    PlanNode,
    Project,
    QualityFilter,
    Scan,
    ScoreFilter,
    Sort,
    TopK,
)
from repro.tagging import algebra as tagged_algebra
from repro.tagging.indicators import TagSchema
from repro.tagging.relation import TaggedRelation, TaggedRow

#: A runtime binding: relation name → live relation instance.
Binding = Mapping[str, Any]

#: Preorder op-id assignment: id(plan node) → op id.  None disables
#: instrumentation wrappers (see ``compile_plan(instrument=False)``).
OpIds = Optional[dict[int, int]]


#: The environment flag that turns on plan verification (optimizer +
#: plan cache) and the columnar batch sanitizer.  Any value other than
#: empty/"0" arms both.
ENV_FLAG = "REPRO_VERIFY_PLANS"


def sanitize_enabled() -> bool:
    """Whether ``REPRO_VERIFY_PLANS`` is set: the one reader of the flag.

    Plan verification and the columnar sanitizer arm together, so the
    verifier re-exports this as ``verify_plans_enabled``.
    """
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class ColumnarSanitizerError(SQLError):
    """A columnar batch (or tag-store scan) violated the selection-
    vector / array invariants the executor relies on.

    Only raised in sanitizer mode; in normal operation these
    invariants hold by construction and are never checked.
    """


class _Reversed:
    """Inverts comparison order, for DESC keys inside one composite key."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


class CompiledNode:
    """One compiled operator: a batch function plus output-shape facts."""

    __slots__ = ("run", "schema", "tagged", "tag_schema")

    def __init__(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], list],
        schema: RelationSchema,
        tagged: bool,
        tag_schema: Optional[TagSchema],
    ) -> None:
        self.run = run
        self.schema = schema
        self.tagged = tagged
        self.tag_schema = tag_schema


class CompiledPlan:
    """A fully compiled plan, executable against any schema-identical
    binding of the relations it was compiled for."""

    __slots__ = ("_root", "_skeleton")

    def __init__(
        self,
        root: CompiledNode,
        skeleton: tuple[tuple[str, tuple[int, ...]], ...] = (),
    ) -> None:
        self._root = root
        self._skeleton = skeleton

    @property
    def schema(self) -> RelationSchema:
        return self._root.schema

    @property
    def tagged(self) -> bool:
        return self._root.tagged

    def new_stats(self) -> ExecutionStats:
        """A fresh stats tree matching this plan's operators.

        Compiled plans are cached and reused across executions, so the
        per-execution state lives here, never in the closures: pass the
        returned tree to :meth:`execute` and read it afterwards.
        """
        return ExecutionStats.from_skeleton(self._skeleton)

    def execute(
        self, binding: Binding, stats: Optional[ExecutionStats] = None
    ) -> Any:
        rows = self._root.run(binding, stats)
        if self._root.tagged:
            return TaggedRelation.from_rows(
                self._root.schema, self._root.tag_schema, rows
            )
        return Relation.from_rows(self._root.schema, rows)


def _materialize(node: CompiledNode, rows: list) -> Any:
    """Wrap a row batch back into a relation (trusted constructors)."""
    if node.tagged:
        return TaggedRelation.from_rows(node.schema, node.tag_schema, rows)
    return Relation.from_rows(node.schema, rows)


def _assign_op_ids(
    plan: PlanNode,
) -> tuple[dict[int, int], tuple[tuple[str, tuple[int, ...]], ...]]:
    """Preorder-number the plan; returns (ids, stats skeleton)."""
    ids: dict[int, int] = {}
    skeleton: list[tuple[str, list[int]]] = []

    def walk(node: PlanNode) -> int:
        op_id = len(skeleton)
        ids[id(node)] = op_id
        entry: tuple[str, list[int]] = (node.label(), [])
        skeleton.append(entry)
        for child in node.children():
            entry[1].append(walk(child))
        return op_id

    walk(plan)
    return ids, tuple(
        (label, tuple(children)) for label, children in skeleton
    )


def compile_plan(
    plan: PlanNode,
    relations: Binding,
    *,
    instrument: bool = True,
    sanitize: Optional[bool] = None,
) -> CompiledPlan:
    """Compile an optimized plan against the relations' schemas.

    ``instrument=False`` skips the per-operator stats wrappers (the
    plan can no longer report into an ``ExecutionStats`` tree); it
    exists so the overhead benchmark has an uninstrumented baseline.
    ``sanitize`` installs the columnar batch sanitizer wrappers; the
    default follows the ``REPRO_VERIFY_PLANS`` environment flag.
    """
    if sanitize is None:
        sanitize = sanitize_enabled()
    ids, skeleton = _assign_op_ids(plan)
    root = _compile(plan, relations, ids if instrument else None, sanitize)
    return CompiledPlan(root, skeleton if instrument else ())


def execute_plan(plan: PlanNode, relations: Binding) -> Any:
    """Convenience: compile and immediately run against ``relations``."""
    return compile_plan(plan, relations).execute(relations)


def _record_partition_scan(rows_scanned: int, pruned: int) -> None:
    """Obs counters for one pruned-scan execution (enabled() guarded)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "partition.scanned",
        "rows fed from surviving partitions by pruned scans",
    ).inc(rows_scanned)
    registry.counter(
        "partition.pruned",
        "partitions statically eliminated by pruned scans",
    ).inc(pruned)


def _surviving_partitions(plan: Scan, relation: Any) -> Optional[list]:
    """The shards a pruned scan reads, or None to fall back to a full
    scan (unpartitioned binding, or a layout that no longer matches the
    plan's metadata — the Filter above makes the superset scan safe)."""
    spec = getattr(relation, "partition_spec", None)
    if (
        spec is None
        or spec.count != plan.partition_total
        or spec.column != plan.partition_key
    ):
        return None
    return [relation.partition(bucket) for bucket in plan.partitions]


def _compile(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    if isinstance(plan, Scan):
        node = _compile_scan(plan, relations, ids)
    elif isinstance(plan, QualityFilter):
        node = _compile_quality_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, ScoreFilter):
        node = _compile_score_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, Filter):
        node = _compile_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, Project):
        node = _compile_project(plan, relations, ids, sanitize)
    elif isinstance(plan, HashJoin):
        node = _compile_hash_join(plan, relations, ids, sanitize)
    elif isinstance(plan, Aggregate):
        node = _compile_aggregate(plan, relations, ids, sanitize)
    elif isinstance(plan, Sort):
        node = _compile_sort(plan, relations, ids, sanitize)
    elif isinstance(plan, TopK):
        node = _compile_topk(plan, relations, ids, sanitize)
    elif isinstance(plan, Distinct):
        node = _compile_distinct(plan, relations, ids, sanitize)
    elif isinstance(plan, Limit):
        node = _compile_limit(plan, relations, ids, sanitize)
    elif isinstance(plan, Materialize):
        node = _compile_materialize(plan, relations, ids, sanitize)
    else:
        raise SQLError(f"cannot compile plan node {plan!r}")
    if ids is None:
        return node
    op_id = ids[id(plan)]
    inner = node.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        if stats is None:
            return inner(binding, None)
        start = perf_counter()
        out = inner(binding, stats)
        stats.record(op_id, len(out), perf_counter() - start)
        return out

    return CompiledNode(run, node.schema, node.tagged, node.tag_schema)


def _compile_scan(
    plan: Scan, relations: Binding, ids: OpIds = None
) -> CompiledNode:
    name = plan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None
    tagged = isinstance(relation, TaggedRelation)

    if plan.partitions is None:

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            return binding[name].row_batch()

    else:
        op_id = None if ids is None else ids[id(plan)]
        pruned_count = plan.partition_total - len(plan.partitions)
        note = f"{len(plan.partitions)}/{plan.partition_total}"

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            live = binding[name]
            shards = _surviving_partitions(plan, live)
            if shards is None:
                return live.row_batch()
            out: list = []
            rows_by_partition: list[int] = []
            for shard in shards:
                batch = shard.row_batch()
                rows_by_partition.append(len(batch))
                out.extend(batch)
            if _obs_metrics.enabled():
                _record_partition_scan(len(out), pruned_count)
            if stats is not None and op_id is not None:
                stats.annotate(
                    op_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return out

    return CompiledNode(
        run,
        relation.schema,
        tagged,
        relation.tag_schema if tagged else None,
    )


def _compile_quality_filter(
    plan: QualityFilter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    scan = plan.child
    if not (isinstance(scan, Scan) and scan.tagged):
        raise SQLError(
            "QualityFilter must sit directly above a tagged Scan"
        )
    child = _compile_scan(scan, relations)
    name = scan.relation
    constraints = list(plan.constraints)
    # The columnar scan reads tag arrays + row batch directly, so the
    # child Scan's closure never runs; credit its row count here (the
    # scan's rows are exactly the relation's) so the annotated tree
    # still shows the filter's input size — and thus its selectivity.
    scan_id = None if ids is None else ids[id(scan)]
    label = plan.label()

    if scan.partitions is None:

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            relation = binding[name]
            indices = relation.columnar_store().scan(constraints)
            rows = relation.row_batch()
            if stats is not None and scan_id is not None:
                stats.record(scan_id, len(rows), 0.0)
            if sanitize:
                _check_scan_indices(label, indices, len(rows))
            return [rows[index] for index in indices]

    else:
        pruned_count = scan.partition_total - len(scan.partitions)
        note = f"{len(scan.partitions)}/{scan.partition_total}"

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            relation = binding[name]
            shards = _surviving_partitions(scan, relation)
            if shards is None:
                indices = relation.columnar_store().scan(constraints)
                rows = relation.row_batch()
                if stats is not None and scan_id is not None:
                    stats.record(scan_id, len(rows), 0.0)
                if sanitize:
                    _check_scan_indices(label, indices, len(rows))
                return [rows[index] for index in indices]
            out: list = []
            fed = 0
            rows_by_partition: list[int] = []
            for shard in shards:
                indices = shard.columnar_store().scan(constraints)
                rows = shard.row_batch()
                fed += len(rows)
                rows_by_partition.append(len(rows))
                if sanitize:
                    _check_scan_indices(label, indices, len(rows))
                out.extend(rows[index] for index in indices)
            if _obs_metrics.enabled():
                _record_partition_scan(fed, pruned_count)
            if stats is not None and scan_id is not None:
                stats.record(scan_id, fed, 0.0)
                stats.annotate(
                    scan_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return out

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_score_filter(
    plan: ScoreFilter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    inner = plan.child
    if isinstance(inner, Scan):
        scan = inner
        tag_constraints: Optional[list] = None
    elif isinstance(inner, QualityFilter) and isinstance(inner.child, Scan):
        scan = inner.child
        tag_constraints = list(inner.constraints)
    else:
        raise SQLError(
            "ScoreFilter must sit directly above a tagged Scan or a "
            "QualityFilter over one"
        )
    if not scan.tagged:
        raise SQLError("ScoreFilter requires a tagged Scan")
    child = _compile_scan(scan, relations)
    name = scan.relation
    constraints = list(plan.constraints)
    # Like QualityFilter, this operator reads storage (score arrays +
    # row batch) directly; credit the swallowed Scan's row count so the
    # annotated tree still shows the filter's input size.
    scan_id = None if ids is None else ids[id(scan)]
    label = plan.label()

    def scan_segment(segment: Any, materializer: Any, bucket: Any) -> list:
        """Surviving indices of one storage segment (shard or flat)."""
        candidates = None
        if tag_constraints is not None:
            candidates = segment.columnar_store().scan(tag_constraints)
        return materializer.filter_indices(
            constraints, bucket=bucket, candidates=candidates
        )

    from repro.quality.materialize import materializer_for

    if scan.partitions is None:

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            relation = binding[name]
            indices = scan_segment(relation, materializer_for(relation), None)
            rows = relation.row_batch()
            if stats is not None and scan_id is not None:
                stats.record(scan_id, len(rows), 0.0)
            if sanitize:
                _check_scan_indices(label, indices, len(rows))
            return [rows[index] for index in indices]

    else:
        pruned_count = scan.partition_total - len(scan.partitions)
        note = f"{len(scan.partitions)}/{scan.partition_total}"

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            relation = binding[name]
            materializer = materializer_for(relation)
            shards = _surviving_partitions(scan, relation)
            if shards is None:
                indices = scan_segment(relation, materializer, None)
                rows = relation.row_batch()
                if stats is not None and scan_id is not None:
                    stats.record(scan_id, len(rows), 0.0)
                if sanitize:
                    _check_scan_indices(label, indices, len(rows))
                return [rows[index] for index in indices]
            out: list = []
            fed = 0
            rows_by_partition: list[int] = []
            for bucket, shard in zip(scan.partitions, shards):
                indices = scan_segment(shard, materializer, bucket)
                rows = shard.row_batch()
                fed += len(rows)
                rows_by_partition.append(len(rows))
                if sanitize:
                    _check_scan_indices(label, indices, len(rows))
                out.extend(rows[index] for index in indices)
            if _obs_metrics.enabled():
                _record_partition_scan(fed, pruned_count)
            if stats is not None and scan_id is not None:
                stats.record(scan_id, fed, 0.0)
                stats.annotate(
                    scan_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return out

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _check_scan_indices(label: str, indices: Any, length: int) -> None:
    """Sanitizer: tag-store scan hits are in-bounds and ascending."""
    previous = -1
    for index in indices:
        if not isinstance(index, int) or not -1 < index < length:
            raise ColumnarSanitizerError(
                f"{label}: tag-store scan returned out-of-bounds "
                f"index {index!r} (relation has {length} rows)"
            )
        if index <= previous:
            raise ColumnarSanitizerError(
                f"{label}: tag-store scan indices are not strictly "
                f"ascending ({index} after {previous})"
            )
        previous = index


def _compile_filter(
    plan: Filter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    predicate_expr = plan.predicate
    if isinstance(predicate_expr, Literal):
        # Only the optimizer produces literal predicates; TRUE filters
        # are dropped there, so a surviving literal is falsy.
        if predicate_expr.value:
            run = child.run
        else:
            run = lambda binding, stats: []  # noqa: E731
        return CompiledNode(run, child.schema, child.tagged, child.tag_schema)
    predicate = _compile_predicate(
        predicate_expr, child.schema, child.tagged, child.tag_schema
    )
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        return [row for row in child_run(binding, stats) if predicate(row)]

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_project(
    plan: Project, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    items = plan.items
    child_run = child.run
    if any(
        isinstance(item.expr, (QualityRef, QualityScoreRef)) for item in items
    ):
        # QUALITY(...) in the select list materializes tag values into a
        # plain relation — delegate to the executor's implementation.
        stub = SelectStatement(
            columns=None,
            relation=child.schema.name,
            select_items=items,
        )
        probe = _materialize(child, [])
        out_schema = _computed_projection(stub, probe, child.tagged).schema

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            temp = _materialize(child, child_run(binding, stats))
            return _computed_projection(stub, temp, child.tagged).row_batch()

        return CompiledNode(run, out_schema, False, None)

    names = [item.expr.column for item in items]  # type: ignore[union-attr]
    if not names:
        raise QueryError("projection requires at least one column")
    renames = {
        item.expr.column: item.alias  # type: ignore[union-attr]
        for item in items
        if item.alias and item.alias != item.expr.column  # type: ignore[union-attr]
    }
    positions = child.schema.positions_of(names)
    out_schema = child.schema.project(names, None)
    if child.tagged:
        out_tags = child.tag_schema.project(names)
        if renames:
            out_schema = out_schema.rename_columns(renames)
            out_tags = out_tags.rename_columns(renames)

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
            make = TaggedRow._from_validated
            return [
                make(out_schema, tuple(row.cells[p] for p in positions))
                for row in child_run(binding, stats)
            ]

        return CompiledNode(run, out_schema, True, out_tags)
    if renames:
        out_schema = out_schema.rename_columns(renames)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        make = Row._from_validated
        return [
            make(out_schema, tuple(row.at(p) for p in positions))
            for row in child_run(binding, stats)
        ]

    return CompiledNode(run, out_schema, False, None)


def _compile_hash_join(
    plan: HashJoin, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    left = _compile(plan.left, relations, ids, sanitize)
    right = _compile(plan.right, relations, ids, sanitize)
    if left.tagged or right.tagged:
        raise SQLError("hash-join plans support plain relations only")
    overlap = set(left.schema.column_names) & set(right.schema.column_names)
    if overlap:
        raise SQLError(
            f"hash-join inputs share column names {sorted(overlap)}; "
            f"project/rename one side first"
        )
    left_positions = tuple(left.schema.position(l) for l, _ in plan.on)
    right_positions = tuple(right.schema.position(r) for _, r in plan.on)
    out_schema = RelationSchema(
        f"{left.schema.name}_{right.schema.name}",
        list(left.schema.columns) + list(right.schema.columns),
    )
    build_left = plan.build_side == "left"
    single = len(plan.on) == 1
    left_run, right_run = left.run, right.run
    op_id = None if ids is None else ids[id(plan)]

    def key_of(row: Row, positions: tuple[int, ...]) -> Any:
        if single:
            return row.at(positions[0])
        return tuple(row.at(p) for p in positions)

    def null_key(key: Any) -> bool:
        if single:
            return key is None
        return any(part is None for part in key)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        left_rows = left_run(binding, stats)
        right_rows = right_run(binding, stats)
        make = Row._from_validated
        out: list[Row] = []
        emit = out.append
        if build_left:
            build_rows, probe_rows = left_rows, right_rows
            build_positions, probe_positions = (
                left_positions, right_positions,
            )
        else:
            build_rows, probe_rows = right_rows, left_rows
            build_positions, probe_positions = (
                right_positions, left_positions,
            )
        if stats is not None and op_id is not None:
            stats.annotate(
                op_id,
                build_rows=len(build_rows),
                probe_rows=len(probe_rows),
            )
        index: dict[Any, list[Row]] = {}
        for row in build_rows:
            key = key_of(row, build_positions)
            if null_key(key):
                continue
            index.setdefault(key, []).append(row)
        if build_left:
            for rrow in probe_rows:
                key = key_of(rrow, probe_positions)
                if null_key(key):
                    continue
                rvalues = rrow.values_tuple()
                for lrow in index.get(key, ()):
                    emit(make(out_schema, lrow.values_tuple() + rvalues))
        else:
            for lrow in probe_rows:
                key = key_of(lrow, probe_positions)
                if null_key(key):
                    continue
                lvalues = lrow.values_tuple()
                for rrow in index.get(key, ()):
                    emit(make(out_schema, lvalues + rrow.values_tuple()))
        return out

    return CompiledNode(run, out_schema, False, None)


def _compile_aggregate(
    plan: Aggregate, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    stub = SelectStatement(
        columns=None,
        relation=child.schema.name,
        select_items=plan.items,
        group_by=plan.group_by,
    )
    probe = _materialize(child, [])
    out_schema = RelationSchema(
        f"{child.schema.name}_agg",
        [
            Column(item.output_name, _item_output_domain(item, probe))
            for item in plan.items
        ],
    )
    child_run = child.run
    tagged = child.tagged

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        temp = _materialize(child, child_run(binding, stats))
        return _execute_aggregate(stub, temp, tagged).row_batch()

    return CompiledNode(run, out_schema, False, None)


def _check_aggregate_order(plan: Sort | TopK, child: CompiledNode) -> None:
    """The executor's post-aggregation ORDER BY validation, verbatim."""
    for item in plan.order_by:
        if isinstance(item.key, (QualityRef, QualityScoreRef)):
            raise SQLError("ORDER BY QUALITY(...) cannot follow aggregation")
        child.schema.column(item.key.column)


def _compile_sort(
    plan: Sort, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    if isinstance(plan.child, Aggregate):
        _check_aggregate_order(plan, child)
    # Repeated stable single-key sorts, least-significant first — the
    # executor's exact ordering semantics.
    passes = [
        (
            _sort_key_function(
                (item,), child.schema, child.tagged, child.tag_schema
            ),
            item.descending,
        )
        for item in reversed(plan.order_by)
    ]
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        rows = list(child_run(binding, stats))
        for key, descending in passes:
            rows.sort(key=key, reverse=descending)
        return rows

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_topk(
    plan: TopK, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    if isinstance(plan.child, Aggregate):
        _check_aggregate_order(plan, child)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    parts = [
        (
            _sort_key_function(
                (item,), child.schema, child.tagged, child.tag_schema
            ),
            item.descending,
        )
        for item in plan.order_by
    ]
    count = plan.count
    child_run = child.run

    def composite_key(row: Any) -> tuple:
        return tuple(
            _Reversed(key(row)) if descending else key(row)
            for key, descending in parts
        )

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        # nsmallest is stable and equivalent to sorted(...)[:k]; the
        # composite key with per-part inversion equals the repeated
        # stable sorts of the Sort operator.
        return heapq.nsmallest(
            count, child_run(binding, stats), key=composite_key
        )

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_distinct(
    plan: Distinct, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        temp = _materialize(child, child_run(binding, stats))
        if child.tagged:
            return tagged_algebra.distinct_values(temp).row_batch()
        return plain_algebra.distinct(temp).row_batch()

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_limit(
    plan: Limit, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        return child_run(binding, stats)[:count]

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


# -- columnar execution ------------------------------------------------------
#
# Inside a Materialize boundary, operators exchange *columnar batches*:
# ``(columns, sel)`` where ``columns`` is the list of per-column value
# arrays in schema order and ``sel`` is the selection vector — the row
# positions still alive, in ascending row order (``None`` means "every
# position").  Filters shrink ``sel`` without touching the arrays;
# Project reorders array references; only Materialize builds rows.

#: A columnar batch: (column arrays in schema order, selection vector).
ColumnarBatch = tuple[list, Optional[list]]


class _ColumnarNode:
    """One compiled columnar operator (always plain, untagged)."""

    __slots__ = ("run", "schema")

    def __init__(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], ColumnarBatch],
        schema: RelationSchema,
    ) -> None:
        self.run = run
        self.schema = schema


def _batch_rows(batch: ColumnarBatch) -> int:
    """Live rows in a columnar batch (selection size, or full length)."""
    columns, sel = batch
    if sel is not None:
        return len(sel)
    return len(columns[0]) if columns else 0


def _compile_materialize(
    plan: Materialize, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    """Columnar fragment → row land: gather survivors, build rows late."""
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    out_schema = child.schema
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> list:
        columns, sel = child_run(binding, stats)
        make = Row._from_validated
        if sel is None:
            # zip(*columns) transposes at C level — one tuple per row.
            rows = [make(out_schema, values) for values in zip(*columns)]
        else:
            gathered = [[array[i] for i in sel] for array in columns]
            rows = [make(out_schema, values) for values in zip(*gathered)]
        if sanitize:
            expected = _batch_rows((columns, sel))
            if len(rows) != expected:
                # zip() truncates to the shortest array, so a length
                # mismatch the batch checks missed surfaces here as
                # silently dropped rows.
                raise ColumnarSanitizerError(
                    f"Materialize: built {len(rows)} rows from a batch "
                    f"selecting {expected} positions (array/row "
                    f"misalignment)"
                )
        return rows

    return CompiledNode(run, out_schema, False, None)


def _fragment_ordered(plan: PlanNode) -> bool:
    """Whether a fragment operator's selection vector is in row order.

    Scans emit full batches (trivially ordered); Filter/Project/Limit
    preserve their input's order; TopK emits *key* order (heap output),
    so everything from it up is unordered.
    """
    if isinstance(plan, Scan):
        return True
    if isinstance(plan, TopK):
        return False
    return _fragment_ordered(plan.children()[0])


def _check_columnar_batch(
    label: str, schema: RelationSchema, batch: ColumnarBatch, ordered: bool
) -> None:
    """Sanitizer: one batch's array and selection-vector invariants."""
    columns, sel = batch
    if len(columns) != len(schema.column_names):
        raise ColumnarSanitizerError(
            f"{label}: batch carries {len(columns)} arrays but the "
            f"operator schema has {len(schema.column_names)} columns"
        )
    lengths = {len(array) for array in columns}
    if len(lengths) > 1:
        raise ColumnarSanitizerError(
            f"{label}: column arrays disagree on length "
            f"({sorted(lengths)}); rows would be built misaligned"
        )
    if sel is None:
        return
    length = lengths.pop() if lengths else 0
    previous = -1
    seen: set[int] = set()
    for index in sel:
        if not isinstance(index, int) or not -1 < index < length:
            raise ColumnarSanitizerError(
                f"{label}: selection vector holds out-of-bounds "
                f"position {index!r} (arrays have {length} entries)"
            )
        if ordered:
            if index <= previous:
                raise ColumnarSanitizerError(
                    f"{label}: selection vector is not strictly "
                    f"ascending ({index} after {previous}) although "
                    f"this operator preserves row order"
                )
            previous = index
        else:
            if index in seen:
                raise ColumnarSanitizerError(
                    f"{label}: selection vector selects position "
                    f"{index} twice"
                )
            seen.add(index)


def _compile_columnar(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    """Compile one operator of a columnar fragment (plus stats wrapper)."""
    if isinstance(plan, Scan):
        node = _compile_columnar_scan(plan, relations, ids)
    elif isinstance(plan, Filter):
        node = _compile_columnar_filter(plan, relations, ids, sanitize)
    elif isinstance(plan, Project):
        node = _compile_columnar_project(plan, relations, ids, sanitize)
    elif isinstance(plan, TopK):
        node = _compile_columnar_topk(plan, relations, ids, sanitize)
    elif isinstance(plan, Limit):
        node = _compile_columnar_limit(plan, relations, ids, sanitize)
    else:
        raise SQLError(f"cannot compile columnar plan node {plan!r}")
    if sanitize:
        label = plan.label()
        schema = node.schema
        ordered = _fragment_ordered(plan)
        checked = node.run

        def run_checked(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            batch = checked(binding, stats)
            _check_columnar_batch(label, schema, batch, ordered)
            return batch

        node = _ColumnarNode(run_checked, schema)
    if ids is None:
        return node
    op_id = ids[id(plan)]
    inner = node.run
    is_scan = isinstance(plan, Scan)

    def run(
        binding: Binding, stats: Optional[ExecutionStats]
    ) -> ColumnarBatch:
        if stats is None:
            return inner(binding, None)
        start = perf_counter()
        batch = inner(binding, stats)
        stats.record(op_id, _batch_rows(batch), perf_counter() - start)
        if is_scan:
            stats.annotate(op_id, batch="columnar", columns=len(batch[0]))
        else:
            stats.annotate(op_id, batch="columnar")
        return batch

    return _ColumnarNode(run, node.schema)


def _compile_columnar_scan(
    plan: Scan, relations: Binding, ids: OpIds = None
) -> _ColumnarNode:
    name = plan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None
    if isinstance(relation, TaggedRelation):
        raise SQLError("columnar scans support plain relations only")

    if plan.partitions is None:

        def run(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            return binding[name].columnar_store().column_arrays(), None

    else:
        op_id = None if ids is None else ids[id(plan)]
        pruned_count = plan.partition_total - len(plan.partitions)
        note = f"{len(plan.partitions)}/{plan.partition_total}"
        width = len(relation.schema.column_names)

        def run(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            live = binding[name]
            shards = _surviving_partitions(plan, live)
            if shards is None:
                return live.columnar_store().column_arrays(), None
            if len(shards) == 1:
                # Zero-copy: a single surviving partition serves its own
                # version-gated column arrays directly.
                columns = shards[0].columnar_store().column_arrays()
                rows_by_partition = [len(columns[0]) if columns else 0]
            else:
                parts = [
                    shard.columnar_store().column_arrays()
                    for shard in shards
                ]
                rows_by_partition = [
                    len(part[0]) if part else 0 for part in parts
                ]
                columns = [
                    [value for part in parts for value in part[index]]
                    for index in range(width)
                ]
            fed = sum(rows_by_partition)
            if _obs_metrics.enabled():
                _record_partition_scan(fed, pruned_count)
            if stats is not None and op_id is not None:
                stats.annotate(
                    op_id,
                    partitions=note,
                    partition_rows=tuple(rows_by_partition),
                )
            return columns, None

    return _ColumnarNode(run, relation.schema)


def _compile_columnar_filter(
    plan: Filter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    child_run = child.run
    predicate_expr = plan.predicate
    if isinstance(predicate_expr, Literal):
        # As on the row path: TRUE filters were dropped by the
        # optimizer, so a surviving literal is falsy — nothing passes.
        if predicate_expr.value:
            return _ColumnarNode(child_run, child.schema)

        def run_empty(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            columns, _ = child_run(binding, stats)
            return columns, []

        return _ColumnarNode(run_empty, child.schema)
    predicate = _compile_columnar_predicate(predicate_expr, child.schema)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel = child_run(binding, stats)
        return columns, predicate(columns, sel)

    return _ColumnarNode(run, child.schema)


def _base_positions(columns: list, sel: Optional[list]):
    """The positions a predicate must examine, in ascending row order."""
    if sel is not None:
        return sel
    return range(len(columns[0]) if columns else 0)


def _compile_columnar_predicate(
    expr: Any, schema: RelationSchema
) -> Callable[[list, Optional[list]], list]:
    """Compile a WHERE tree into a whole-array selection function.

    Returns ``fn(columns, sel) -> hits`` where ``hits`` is the new
    selection vector (ascending row positions).  Semantics mirror
    :func:`repro.sql.executor._compile_predicate` exactly: comparisons
    with NULL are never true, incomparable types (``TypeError``) read
    as false, ``IN`` never sees NULL options specially, and NOT/OR
    complement/merge those per-row outcomes — so a row survives the
    columnar filter iff it survives the row closure.
    """
    if isinstance(expr, Comparison):
        return _columnar_comparison(expr, schema)
    if isinstance(expr, InList):
        options = expr.options
        negated = expr.negated
        if isinstance(expr.operand, Literal):
            value = expr.operand.value
            if value is None:
                return lambda columns, sel: []
            result = value in options
            if negated:
                result = not result
            if result:
                return lambda columns, sel: list(
                    _base_positions(columns, sel)
                )
            return lambda columns, sel: []
        position = schema.position(expr.operand.column)
        if negated:

            def run_not_in(columns: list, sel: Optional[list]) -> list:
                array = columns[position]
                return [
                    i
                    for i in _base_positions(columns, sel)
                    if array[i] is not None and array[i] not in options
                ]

            return run_not_in

        def run_in(columns: list, sel: Optional[list]) -> list:
            array = columns[position]
            return [
                i
                for i in _base_positions(columns, sel)
                if array[i] is not None and array[i] in options
            ]

        return run_in
    if isinstance(expr, IsNull):
        negated = expr.negated
        if isinstance(expr.operand, Literal):
            is_null = expr.operand.value is None
            result = (not is_null) if negated else is_null
            if result:
                return lambda columns, sel: list(
                    _base_positions(columns, sel)
                )
            return lambda columns, sel: []
        position = schema.position(expr.operand.column)
        if negated:
            return lambda columns, sel: [
                i
                for i in _base_positions(columns, sel)
                if columns[position][i] is not None
            ]
        return lambda columns, sel: [
            i
            for i in _base_positions(columns, sel)
            if columns[position][i] is None
        ]
    if isinstance(expr, BoolOp):
        left_run = _compile_columnar_predicate(expr.left, schema)
        right_run = _compile_columnar_predicate(expr.right, schema)
        if expr.op == "AND":
            # Conjunction = composition: the right side only probes the
            # left side's survivors (same short-circuit as the row path).
            return lambda columns, sel: right_run(
                columns, left_run(columns, sel)
            )

        def run_or(columns: list, sel: Optional[list]) -> list:
            left_hits = left_run(columns, sel)
            seen = set(left_hits)
            remaining = [
                i for i in _base_positions(columns, sel) if i not in seen
            ]
            # Disjoint ascending runs — sorted() restores row order.
            return sorted(left_hits + right_run(columns, remaining))

        return run_or
    if isinstance(expr, NotOp):
        inner_run = _compile_columnar_predicate(expr.operand, schema)

        def run_not(columns: list, sel: Optional[list]) -> list:
            hits = set(inner_run(columns, sel))
            return [
                i for i in _base_positions(columns, sel) if i not in hits
            ]

        return run_not
    raise SQLError(f"unknown expression node {expr!r}")


def _columnar_comparison(
    expr: Comparison, schema: RelationSchema
) -> Callable[[list, Optional[list]], list]:
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Literal) and isinstance(right, Literal):
        # fold_constants normally removes these; evaluate once anyway.
        if _sql_compare(op, left.value, right.value):
            return lambda columns, sel: list(_base_positions(columns, sel))
        return lambda columns, sel: []
    if isinstance(left, Literal):
        # A literal on the left flips the operator, as on the row path.
        left, right, op = right, left, _FLIPPED[op]
    compare = _COMPARATORS[op]
    if isinstance(right, ColumnRef):
        left_position = schema.position(left.column)
        right_position = schema.position(right.column)

        def run_col_col(columns: list, sel: Optional[list]) -> list:
            left_array = columns[left_position]
            right_array = columns[right_position]
            hits: list = []
            emit = hits.append
            for i in _base_positions(columns, sel):
                a = left_array[i]
                b = right_array[i]
                if a is None or b is None:
                    continue
                try:
                    if compare(a, b):
                        emit(i)
                except TypeError:
                    continue
            return hits

        return run_col_col
    position = schema.position(left.column)
    constant = right.value
    if constant is None:
        return lambda columns, sel: []
    equality = op == "="

    def run_col_const(columns: list, sel: Optional[list]) -> list:
        array = columns[position]
        hits: list = []
        emit = hits.append
        if sel is None and equality:
            # Full-column equality hops hit-to-hit with list.index — a
            # C-level search, no Python per-element loop (same move as
            # ColumnarTagStore.scan; `==` never raises TypeError, and a
            # None constant was rejected above, so Nones cannot match).
            find = array.index
            index = -1
            try:
                while True:
                    index = find(constant, index + 1)
                    emit(index)
            except ValueError:
                pass
            return hits
        for i in _base_positions(columns, sel):
            value = array[i]
            if value is None:
                continue
            try:
                if compare(value, constant):
                    emit(i)
            except TypeError:
                continue
        return hits

    return run_col_const


def _compile_columnar_project(
    plan: Project, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    names = [item.expr.column for item in plan.items]  # type: ignore[union-attr]
    if not names:
        raise QueryError("projection requires at least one column")
    renames = {
        item.expr.column: item.alias  # type: ignore[union-attr]
        for item in plan.items
        if item.alias and item.alias != item.expr.column  # type: ignore[union-attr]
    }
    positions = child.schema.positions_of(names)
    out_schema = child.schema.project(names, None)
    if renames:
        out_schema = out_schema.rename_columns(renames)
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel = child_run(binding, stats)
        # Projection over arrays is free: reorder the references.
        return [columns[p] for p in positions], sel

    return _ColumnarNode(run, out_schema)


def _compile_columnar_topk(
    plan: TopK, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    specs = [
        (child.schema.position(item.key.column), item.descending)
        for item in plan.order_by
    ]
    count = plan.count
    child_run = child.run

    directions = {descending for _, descending in specs}
    if len(directions) == 1:
        # Uniform direction: plain tuple keys, no _Reversed wrappers.
        # All-DESC is nlargest over the ascending key (both are
        # sorted(..., reverse=...)[:n], stable on ties), so the heap
        # compares native tuples at C speed instead of calling
        # _Reversed.__lt__ per comparison.
        select = heapq.nlargest if directions.pop() else heapq.nsmallest
        positions = [p for p, _ in specs]

        def run(
            binding: Binding, stats: Optional[ExecutionStats]
        ) -> ColumnarBatch:
            columns, sel = child_run(binding, stats)
            arrays = [columns[p] for p in positions]
            if len(arrays) == 1:
                array = arrays[0]

                def key(i: int) -> tuple:
                    value = array[i]
                    return (value is not None, value)

            else:

                def key(i: int) -> tuple:
                    return tuple(
                        (a[i] is not None, a[i]) for a in arrays
                    )

            base = _base_positions(columns, sel)
            return columns, select(count, base, key=key)

        return _ColumnarNode(run, child.schema)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel = child_run(binding, stats)
        arrays = [(columns[p], descending) for p, descending in specs]

        def composite_key(i: int) -> tuple:
            # Mirrors the row TopK's key exactly: each part is the
            # None-safe ((not-None, value),) tuple, inverted per
            # direction — so ordering and stability are identical.
            parts = []
            for array, descending in arrays:
                value = array[i]
                part = ((value is not None, value),)
                parts.append(_Reversed(part) if descending else part)
            return tuple(parts)

        base = _base_positions(columns, sel)
        return columns, heapq.nsmallest(count, base, key=composite_key)

    return _ColumnarNode(run, child.schema)


def _compile_columnar_limit(
    plan: Limit, relations: Binding, ids: OpIds, sanitize: bool = False
) -> _ColumnarNode:
    child = _compile_columnar(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> ColumnarBatch:
        columns, sel = child_run(binding, stats)
        if sel is not None:
            return columns, sel[:count]
        length = len(columns[0]) if columns else 0
        if count >= length:
            return columns, None
        return columns, list(range(count))

    return _ColumnarNode(run, child.schema)
