"""QSQL physical executor: optimized plans → batch operators.

:func:`compile_plan` lowers an (optimized) logical plan into a tree of
closures that each map a *binding* (relation name → live relation) to a
*batch*.  Every operator consumes and produces the same batch shape, for
plain and tagged, flat and partitioned relations alike:
``(segment, selection)``.

- The :class:`Segment` is what a Scan reads — the bound relation (or
  snapshot), or a pruned scan's surviving shards merged back into the
  relation's row order — addressed by position.  One accessor
  (:meth:`Segment.array`) hands out its per-position arrays: a column's
  value array (:meth:`~repro.relational.relation.RowStore.value_array`,
  for both kinds), a tag array of the relation's
  :meth:`~repro.tagging.relation.TaggedRelation.columnar_store`, and a
  score array of its :class:`~repro.quality.materialize.ScoreMaterializer`.
  Each is built on first use and cached on the relation or shard
  against its epoch and row count.
- The *selection vector* lists the positions still alive (``None``:
  every position), ascending wherever row order is preserved.

Scan hands out the segment.  Filter narrows the selection: it tests each
predicate leaf over its operands' values (an equality over a whole
array hops hit to hit with the C-level ``list.index``).  TopK, Sort and
Limit reorder or cut the selection; Project remaps columns through a
compile-time *layout*.  Every operator reads an operand the same way,
through :func:`_operand`: a column's value array, a ``QUALITY(...)``
operand's tag or score array, or — for a literal, and for a
``QUALITY(...)`` operand no array answers — a per-row getter on the
selected rows.  Aggregate and QUALITY-valued projections compute new
values from the batch and insert them, validated, into a new plain
relation.  Whole rows are built only where an operator needs them — in
:meth:`CompiledPlan.execute` for the result, and by Distinct and
HashJoin, which call the algebra modules' implementations — and an
operator that builds a relation hands it on as a new segment.

Semantics are QSQL's, checked against the test oracle
(:func:`repro.experiments.naive.naive_execute`): comparisons use the
shared comparator table with its NULL (never true) and ``TypeError``
(false) rules, AND/OR/NOT compose selections so each leaf sees exactly
the rows a short-circuiting row-at-a-time test would evaluate, and sort
keys are None-safe ``(not None, value)`` pairs.

Compiled plans close over *names and schemas only*, never over relation
instances or scoring profiles: the binding supplies relations at run
time, and a ``QUALITY(parameter)`` operand looks up the relation's
bound profile on each execution, which is what makes cached plans safe
to re-execute after data mutations and profile registrations (the plan
cache revalidates the facts planning read, not data).

Instrumentation (:mod:`repro.obs`): every compiled operator's batch
function takes ``(binding, stats)``.  With ``stats=None`` — the default
— the only cost is one ``None`` check per *operator* per execution
(never per row).  With an :class:`~repro.obs.stats.ExecutionStats`, a
thin per-operator wrapper (installed at compile time, shared by every
execution of a cached plan) records rows out — the live positions of
its batch; for a Scan, the rows fed from storage — and inclusive wall
time into the preorder-numbered stats tree; that tree is what
``EXPLAIN ANALYZE`` renders.  ``compile_plan(..., instrument=False)``
omits the wrappers entirely — the baseline the observability-overhead
benchmark measures against.

Sanitizer mode (``compile_plan(..., sanitize=True)``, defaulted from
``REPRO_VERIFY_PLANS``): debug wrappers check every operator's batch —
the selection is in bounds, strictly ascending where the operator
preserves row order and duplicate-free after TopK/Sort — and every row
list and value, tag or score array an operator reads is as long as its
segment.  Violations raise :class:`ColumnarSanitizerError`.
"""

from __future__ import annotations

import heapq
import os
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Any, Callable, Mapping, Optional

from repro.errors import QueryError, UnknownIndicatorError
from repro.obs import metrics as _obs_metrics
from repro.obs.stats import ExecutionStats
from repro.relational import algebra as plain_algebra
from repro.relational.relation import Relation, Row
from repro.relational.schema import Column, RelationSchema
from repro.relational.types import FLOAT, INT, STR
from repro.sql.errors import SQLError
from repro.sql.executor import _COMPARATORS, _FLIPPED
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
    Distinct,
    Filter,
    HashJoin,
    Limit,
    PlanNode,
    Project,
    Scan,
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

#: One operator's output: (segment, selection vector or None for all).
Batch = tuple["Segment", Optional[list]]


#: The environment flag that turns on plan verification (optimizer +
#: plan cache) and the batch sanitizer.  Any value other than empty/"0"
#: arms both.
ENV_FLAG = "REPRO_VERIFY_PLANS"


def sanitize_enabled() -> bool:
    """Whether ``REPRO_VERIFY_PLANS`` is set: the one reader of the flag.

    Plan verification and the batch sanitizer arm together, so the
    verifier re-exports this as ``verify_plans_enabled``.
    """
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class ColumnarSanitizerError(SQLError):
    """A batch violated the selection-vector / array invariants the
    executor relies on.

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


class Segment:
    """The rows one batch addresses by position.

    ``parts`` are the ``(bucket, relation)`` pairs the positions run
    over: the relation itself (bucket ``None``) or the surviving shards
    of a pruned scan.  Rows and per-position arrays come from the parts,
    which cache the arrays against their epoch and row count.  Over
    several parts, positions follow the relation's row order, as an
    unpruned scan's do: every shard is a subsequence of it, and the
    shards' sequence numbers (``row_sequence``) merge them back once per
    execution.
    """

    __slots__ = ("relation", "parts", "length", "_order", "_rows", "_arrays")

    def __init__(self, relation: Any, parts: Optional[tuple] = None) -> None:
        self.relation = relation
        #: Multi-part segments whose shards interleave: position →
        #: position in the parts' concatenation.
        self._order: Optional[list] = None
        if parts is None:
            self.parts: tuple = ((None, relation),)
            self.length = len(relation)
        else:
            self.parts = parts
            self.length = sum(len(part) for _, part in parts)
            if len(parts) > 1:
                seqs = [
                    seq for _, part in parts for seq in part.row_sequence()
                ]
                order = sorted(range(len(seqs)), key=seqs.__getitem__)
                if any(i != at for at, i in enumerate(order)):
                    self._order = order
        self._rows: Optional[list] = None
        self._arrays: dict[str, list] = {}

    def rows(self) -> list:
        """Every row, by position (treat as read-only)."""
        parts = self.parts
        if len(parts) == 1:
            return parts[0][1].row_batch()
        if self._rows is None:
            self._rows = self._merged(
                [row for _, part in parts for row in part.row_batch()]
            )
        return self._rows

    def array(self, key: str, read: Callable[[Any, Any], list]) -> list:
        """One per-position array, by position (treat as read-only).

        ``read(bucket, part)`` returns one part's array, aligned with
        its rows: a column's value array, a tag array or a score array.
        With one part that array is the answer; over several, ``key``
        names the parts' merged array, built once per execution.
        """
        parts = self.parts
        if len(parts) == 1:
            return read(*parts[0])
        array = self._arrays.get(key)
        if array is None:
            array = []
            for bucket, part in parts:
                array += read(bucket, part)
            array = self._arrays[key] = self._merged(array)
        return array

    def _merged(self, concatenated: list) -> list:
        """The parts' concatenated entries, in position order."""
        order = self._order
        if order is None:
            return concatenated
        return [concatenated[i] for i in order]


class _CheckedSegment(Segment):
    """Sanitizer: every row list and array read is segment-long."""

    __slots__ = ()

    def rows(self) -> list:
        return self._checked("row batch", super().rows())

    def array(self, key: str, read: Callable[[Any, Any], list]) -> list:
        return self._checked(f"{key} array", super().array(key, read))

    def _checked(self, what: str, array: list) -> list:
        if len(array) != self.length:
            raise ColumnarSanitizerError(
                f"{what} holds {len(array)} entries but the segment has "
                f"{self.length} rows; positions would address misaligned "
                f"data"
            )
        return array


def _positions(segment: Segment, sel: Optional[list]):
    """The positions a batch keeps, in selection order."""
    return range(segment.length) if sel is None else sel


class CompiledNode:
    """One compiled operator: a batch function plus output-shape facts.

    ``layout`` maps each output column to its position in the segment's
    rows; ``None`` means the segment's rows *are* the output rows, as
    everywhere below a column-only Project.
    """

    __slots__ = ("run", "schema", "tagged", "tag_schema", "layout")

    def __init__(
        self,
        run: Callable[[Binding, Optional[ExecutionStats]], Batch],
        schema: RelationSchema,
        tagged: bool,
        tag_schema: Optional[TagSchema],
        layout: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.run = run
        self.schema = schema
        self.tagged = tagged
        self.tag_schema = tag_schema
        self.layout = layout


def _rows_of(node: CompiledNode, batch: Batch) -> list:
    """The batch's selected rows, in ``node``'s output schema."""
    segment, sel = batch
    rows = segment.rows()
    if sel is not None:
        rows = [rows[i] for i in sel]
    layout = node.layout
    if layout is None:
        return rows
    pick = itemgetter(*layout)
    if len(layout) == 1:
        single = pick
        pick = lambda fields: (single(fields),)  # noqa: E731
    fields = attrgetter("cells") if node.tagged else Row.values_tuple
    make = (TaggedRow if node.tagged else Row)._from_validated
    schema = node.schema
    return [make(schema, pick(fields(row))) for row in rows]


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
        root = self._root
        return _materialize(root, _rows_of(root, root.run(binding, stats)))


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
    ``sanitize`` installs the batch sanitizer wrappers; the default
    follows the ``REPRO_VERIFY_PLANS`` environment flag.
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


def _selection_ordered(plan: PlanNode) -> bool:
    """Whether an operator's selection vector is in ascending row order.

    TopK and Sort emit key order, and every operator above them that
    keeps their segment (Filter, Project of columns, Limit) inherits
    it; Scan and the operators that build a new segment start over.
    """
    if isinstance(plan, (Sort, TopK)):
        return False
    if isinstance(plan, (Filter, Limit)) or (
        isinstance(plan, Project) and not _computes_quality(plan)
    ):
        return _selection_ordered(plan.children()[0])
    return True


def _computes_quality(plan: Project) -> bool:
    """Whether a projection materializes QUALITY(...) values."""
    return any(
        isinstance(item.expr, (QualityRef, QualityScoreRef))
        for item in plan.items
    )


def _check_batch(label: str, batch: Batch, ordered: bool) -> None:
    """Sanitizer: one batch's selection vector against its segment."""
    segment, sel = batch
    if sel is None:
        return
    length = segment.length
    previous = -1
    seen: set[int] = set()
    for index in sel:
        if not isinstance(index, int) or not -1 < index < length:
            raise ColumnarSanitizerError(
                f"{label}: selection vector holds out-of-bounds "
                f"position {index!r} (segment has {length} rows)"
            )
        if ordered:
            if index <= previous:
                raise ColumnarSanitizerError(
                    f"{label}: selection vector is not strictly "
                    f"ascending ({index} after {previous}) although "
                    f"this operator preserves row order"
                )
            previous = index
        elif index in seen:
            raise ColumnarSanitizerError(
                f"{label}: selection vector selects position "
                f"{index} twice"
            )
        else:
            seen.add(index)


def _compile(
    plan: PlanNode, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    if isinstance(plan, Scan):
        node = _compile_scan(plan, relations, ids, sanitize)
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
    else:
        raise SQLError(f"cannot compile plan node {plan!r}")
    run = node.run
    if sanitize:
        label = plan.label()
        ordered = _selection_ordered(plan)
        unchecked = run

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            batch = unchecked(binding, stats)
            _check_batch(label, batch, ordered)
            return batch

    if ids is not None:
        op_id = ids[id(plan)]
        inner = run

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            if stats is None:
                return inner(binding, None)
            start = perf_counter()
            batch = inner(binding, stats)
            segment, sel = batch
            stats.record(
                op_id,
                segment.length if sel is None else len(sel),
                perf_counter() - start,
            )
            return batch

    return CompiledNode(
        run, node.schema, node.tagged, node.tag_schema, node.layout
    )


def _segment_type(sanitize: bool) -> type[Segment]:
    return _CheckedSegment if sanitize else Segment


def _row_shaped(child: CompiledNode, sanitize: bool) -> CompiledNode:
    """``child`` re-based onto rows of its own schema.

    Operators that read operands (:func:`_operand`) address columns by
    schema position; above a column-remapping Project (only hand-built
    plans put them there), the projected rows are built first.
    """
    if child.layout is None:
        return child
    child_run = child.run
    segment_type = _segment_type(sanitize)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        rows = _rows_of(child, child_run(binding, stats))
        return segment_type(_materialize(child, rows)), None

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


class _RowValues:
    """An operand's values by position from its per-row getter, run on a
    position's row only when that position is read."""

    __slots__ = ("_get", "_rows")

    def __init__(self, get: Callable[[Any], Any], rows: list) -> None:
        self._get = get
        self._rows = rows

    def __getitem__(self, position: int) -> Any:
        return self._get(self._rows[position])


def _operand(operand: Any, node: CompiledNode) -> Callable[[Segment], Any]:
    """One operand as ``fetch(segment) -> values``, indexable by position.

    The one way operators read an operand off a batch (WHERE leaves,
    Aggregate keys and inputs, QUALITY-valued projections, Sort and
    TopK keys).  Three operands read one of the segment's arrays
    (:meth:`Segment.array`):

    - a column, its value array;
    - ``QUALITY(column.indicator)``, the tag store's array, when the
      tag schema allows that indicator on that column;
    - ``QUALITY(parameter)``, the score materializer's array, when the
      relation's bound profile defines the parameter at execution time.

    Anything else — a literal, a disallowed indicator (NULL on every
    row), an unbound or undefined parameter — is a :class:`_RowValues`
    over :func:`_row_operand`'s getter, evaluated only at the positions
    read, so an error (no profile defining the parameter) raises only
    when a selected row needs the value.  ``node`` is row-shaped (see
    :func:`_row_shaped`).
    """
    if isinstance(operand, ColumnRef):
        position = node.schema.position(operand.column)
        key = f"column {position}"

        def read_values(bucket: Any, part: Any) -> list:
            return part.value_array(position)

        return lambda segment: segment.array(key, read_values)
    get = _row_operand(operand, node)

    def per_row(segment: Segment) -> _RowValues:
        return _RowValues(get, segment.rows())

    if isinstance(operand, QualityRef):
        column, indicator = operand.column, operand.indicator
        if indicator not in node.tag_schema.allowed_for(column):
            return per_row
        key = f"QUALITY({column}.{indicator})"

        def read_tags(bucket: Any, part: Any) -> list:
            return part.columnar_store().array(column, indicator)

        return lambda segment: segment.array(key, read_tags)
    if isinstance(operand, QualityScoreRef):
        return _score_operand(operand.parameter, per_row)
    return per_row


def _score_operand(
    parameter: str, per_row: Callable[[Segment], _RowValues]
) -> Callable[[Segment], Any]:
    """``QUALITY(parameter)``: the score array while the relation's
    bound profile defines ``parameter``, else the per-row getter."""
    from repro.quality.materialize import materializer_for, profile_for

    key = f"QUALITY({parameter})"

    def fetch(segment: Segment) -> Any:
        relation = segment.relation
        profile = profile_for(relation)
        if profile is None or not profile.defines(parameter):
            return per_row(segment)
        scores = materializer_for(relation).score_array
        return segment.array(
            key, lambda bucket, part: scores(parameter, bucket)
        )

    return fetch


def _row_operand(operand: Any, node: CompiledNode) -> Callable[[Any], Any]:
    """A literal or ``QUALITY(...)`` operand as a per-row getter.

    ``QUALITY(column.indicator)`` reads the cell's tag, NULL when the
    cell lacks it.  ``QUALITY(parameter)`` scores the row under the
    relation's registered profile, looked up per row so a cached plan
    never pins a superseded registration.
    """
    if isinstance(operand, Literal):
        value = operand.value
        return lambda row: value
    if not node.tagged:
        raise SQLError(
            "QUALITY(...) requires a tagged relation; the source is untagged"
        )
    schema = node.schema
    if isinstance(operand, QualityRef):
        position = schema.position(operand.column)
        indicator = operand.indicator
        return lambda row: row.cells[position].tag_value(indicator)
    if not isinstance(operand, QualityScoreRef):
        raise SQLError(f"unknown operand node {operand!r}")
    from repro.quality.materialize import profile_for, row_parameter_score

    parameter = operand.parameter
    name = schema.name
    positions = tuple(
        schema.position(column) for column in node.tag_schema.tagged_columns
    )

    def get(row: TaggedRow) -> Any:
        profile = profile_for(name)
        if profile is None or not profile.defines(parameter):
            raise SQLError(
                f"QUALITY({parameter}) has no registered scoring "
                f"profile defining {parameter!r} for relation {name!r}"
            )
        return row_parameter_score(profile, parameter, row, positions)

    return get


def _output_domain(expr: Any, node: CompiledNode) -> Any:
    """The domain of a computed select item's column over ``node``'s rows."""
    if isinstance(expr, AggregateCall):
        if expr.func == "COUNT":
            return INT
        if expr.func in ("SUM", "AVG"):
            return FLOAT
        expr = expr.operand  # MIN/MAX keep their operand's domain
    if isinstance(expr, ColumnRef):
        return node.schema.column(expr.column).domain
    if isinstance(expr, QualityScoreRef):
        return FLOAT  # parameter scores live in [0, 1]
    if node.tag_schema is not None:
        try:
            return node.tag_schema.definition(expr.indicator).domain
        except UnknownIndicatorError:
            pass  # an undefined tag reads as NULL
    return STR


def _compile_scan(
    plan: Scan, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    name = plan.relation
    try:
        relation = relations[name]
    except KeyError:
        raise SQLError(f"unknown relation {name!r} in plan binding") from None
    tagged = isinstance(relation, TaggedRelation)
    segment_type = _segment_type(sanitize)

    if plan.partitions is None:

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            return segment_type(binding[name]), None

    else:
        op_id = None if ids is None else ids[id(plan)]
        pruned_count = plan.partition_total - len(plan.partitions)
        note = f"{len(plan.partitions)}/{plan.partition_total}"

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            live = binding[name]
            shards = _surviving_partitions(plan, live)
            if shards is None:
                return segment_type(live), None
            segment = segment_type(live, tuple(zip(plan.partitions, shards)))
            if _obs_metrics.enabled():
                _record_partition_scan(segment.length, pruned_count)
            if stats is not None and op_id is not None:
                stats.annotate(
                    op_id,
                    partitions=note,
                    partition_rows=tuple(len(shard) for shard in shards),
                )
            return segment, None

    return CompiledNode(
        run,
        relation.schema,
        tagged,
        relation.tag_schema if tagged else None,
    )


def _compile_filter(
    plan: Filter, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _row_shaped(_compile(plan.child, relations, ids, sanitize), sanitize)
    child_run = child.run
    predicate = plan.predicate
    if isinstance(predicate, Literal):
        # Only the optimizer produces literal predicates; TRUE filters
        # are dropped there, so a surviving literal is falsy.
        if predicate.value:
            run = child_run
        else:

            def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
                return child_run(binding, stats)[0], []

        return CompiledNode(run, child.schema, child.tagged, child.tag_schema)
    select = _compile_selection(predicate, child)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        segment, sel = child_run(binding, stats)
        return segment, select(segment, sel)

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


#: A compiled WHERE tree: ``(segment, sel) -> kept positions``.
Selection = Callable[[Segment, Optional[list]], list]


def _compile_selection(expr: Any, node: CompiledNode) -> Selection:
    """Compile a WHERE tree over ``node``'s rows into a selection function.

    The returned function maps a segment and a selection (None: every
    position) to the selected positions whose rows satisfy ``expr``, in
    selection order.  AND feeds the left side's hits to the right side
    and OR probes the right side with the left side's misses, so every
    leaf sees exactly the rows a short-circuiting row-at-a-time test
    would evaluate it on — same results, same errors.
    """
    if isinstance(expr, BoolOp):
        left = _compile_selection(expr.left, node)
        right = _compile_selection(expr.right, node)
        if expr.op == "AND":
            return lambda segment, sel: right(segment, left(segment, sel))

        def run_or(segment: Segment, sel: Optional[list]) -> list:
            positions = _positions(segment, sel)
            kept = set(left(segment, sel))
            kept.update(right(segment, [i for i in positions if i not in kept]))
            return [i for i in positions if i in kept]

        return run_or
    if isinstance(expr, NotOp):
        inner = _compile_selection(expr.operand, node)

        def run_not(segment: Segment, sel: Optional[list]) -> list:
            hits = set(inner(segment, sel))
            return [i for i in _positions(segment, sel) if i not in hits]

        return run_not
    return _leaf_selection(expr, node)


def _leaf_selection(expr: Any, node: CompiledNode) -> Selection:
    """One comparison, IN or IS NULL test over its operands' values.

    NULL never satisfies a comparison or IN, and incomparable types
    compare false.  A literal on the left flips the operator, and a
    comparison with a literal runs :func:`_comparison_kernel`.
    """
    if isinstance(expr, Comparison):
        left, op, right = expr.left, expr.op, expr.right
        if isinstance(left, Literal):
            left, op, right = right, _FLIPPED[op], left
        if isinstance(right, Literal):
            return _comparison_kernel(left, op, right.value, node)
        fetch_left, fetch_right = _operand(left, node), _operand(right, node)
        compare = _COMPARATORS[op]

        def run_compare(segment: Segment, sel: Optional[list]) -> list:
            a, b = fetch_left(segment), fetch_right(segment)
            hits: list = []
            for i in _positions(segment, sel):
                x, y = a[i], b[i]
                if x is None or y is None:
                    continue
                try:
                    if compare(x, y):
                        hits.append(i)
                except TypeError:
                    continue
            return hits

        return run_compare
    if not isinstance(expr, (InList, IsNull)):
        raise SQLError(f"unknown expression node {expr!r}")
    fetch = _operand(expr.operand, node)
    negated = expr.negated
    if isinstance(expr, IsNull):

        def run_is_null(segment: Segment, sel: Optional[list]) -> list:
            values = fetch(segment)
            return [
                i for i in _positions(segment, sel)
                if (values[i] is None) != negated
            ]

        return run_is_null
    options = expr.options

    def run_in(segment: Segment, sel: Optional[list]) -> list:
        values = fetch(segment)
        return [
            i
            for i in _positions(segment, sel)
            if (value := values[i]) is not None
            and (value in options) != negated
        ]

    return run_in


def _comparison_kernel(
    operand: Any, op: str, constant: Any, node: CompiledNode
) -> Selection:
    """``operand op constant`` over the operand's values.

    Over an array (a column's values, a tag or a score array) a NULL
    constant matches nothing without a scan, and an equality over the
    whole array hops hit to hit with the C-level ``list.index``.  A
    per-row getter is still evaluated at each selected position, for
    the errors it raises.
    """
    fetch = _operand(operand, node)
    compare = _COMPARATORS[op]
    hop = op == "="

    def run(segment: Segment, sel: Optional[list]) -> list:
        values = fetch(segment)
        hits: list = []
        emit = hits.append
        if isinstance(values, _RowValues):
            if constant is None:
                for i in _positions(segment, sel):
                    values[i]  # read for the errors it raises
                return hits
        elif constant is None:
            return hits
        elif sel is None and hop:
            # ``==`` never raises TypeError, and the constant is not
            # None, so Nones cannot match.
            find = values.index
            index = -1
            try:
                while True:
                    index = find(constant, index + 1)
                    emit(index)
            except ValueError:
                pass
            return hits
        for i in _positions(segment, sel):
            value = values[i]
            if value is None:
                continue
            try:
                if compare(value, constant):
                    emit(i)
            except TypeError:
                continue
        return hits

    return run


def _compile_project(
    plan: Project, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    items = plan.items
    child_run = child.run
    if _computes_quality(plan):
        # QUALITY(...) values are new values: they go through the
        # validating insert into a plain relation.
        child = _row_shaped(child, sanitize)
        out_schema = RelationSchema(
            child.schema.name,
            [
                Column(item.output_name, _output_domain(item.expr, child))
                for item in items
            ],
        )
        fetches = [(item.output_name, _operand(item.expr, child)) for item in items]
        child_run = child.run
        segment_type = _segment_type(sanitize)

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            segment, sel = child_run(binding, stats)
            columns = [(name, fetch(segment)) for name, fetch in fetches]
            result = Relation(out_schema)
            for i in _positions(segment, sel):
                result.insert({name: values[i] for name, values in columns})
            return segment_type(result), None

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
    if child.layout is not None:
        positions = tuple(child.layout[p] for p in positions)
    out_schema = child.schema.project(names, None)
    out_tags = None
    if renames:
        out_schema = out_schema.rename_columns(renames)
    if child.tagged:
        out_tags = child.tag_schema.project(names)
        if renames:
            out_tags = out_tags.rename_columns(renames)
    # Projection remaps columns; rows are built where they are needed.
    return CompiledNode(child_run, out_schema, child.tagged, out_tags, positions)


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
    segment_type = _segment_type(sanitize)

    def key_of(row: Row, positions: tuple[int, ...]) -> Any:
        if single:
            return row.at(positions[0])
        return tuple(row.at(p) for p in positions)

    def null_key(key: Any) -> bool:
        if single:
            return key is None
        return any(part is None for part in key)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        left_rows = _rows_of(left, left_run(binding, stats))
        right_rows = _rows_of(right, right_run(binding, stats))
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
        return segment_type(Relation.from_rows(out_schema, out)), None

    return CompiledNode(run, out_schema, False, None)


def _compile_aggregate(
    plan: Aggregate, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _row_shaped(_compile(plan.child, relations, ids, sanitize), sanitize)
    out_schema = RelationSchema(
        f"{child.schema.name}_agg",
        [
            Column(item.output_name, _output_domain(item.expr, child))
            for item in plan.items
        ],
    )
    keys = [_operand(ref, child) for ref in plan.group_by]
    outputs = [
        (item.output_name, _aggregate_output(item.expr, plan.group_by, child))
        for item in plan.items
    ]
    child_run = child.run
    segment_type = _segment_type(sanitize)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        segment, sel = child_run(binding, stats)
        key_values = [fetch(segment) for fetch in keys]
        # Groups in first-seen order, each the positions it holds.
        groups: dict[tuple, list] = {}
        for i in _positions(segment, sel):
            key = tuple([values[i] for values in key_values])
            groups.setdefault(key, []).append(i)
        if not groups and not keys:
            groups[()] = []
        bound = [(name, bind(segment)) for name, bind in outputs]
        result = Relation(out_schema)
        for key, members in groups.items():
            # Aggregates compute new values: the validating insert.
            result.insert({name: value(key, members) for name, value in bound})
        return segment_type(result), None

    return CompiledNode(run, out_schema, False, None)


def _aggregate_output(
    expr: Any, group_by: tuple, child: CompiledNode
) -> Callable[[Segment], Callable[[tuple, list], Any]]:
    """One Aggregate select item as ``bind(segment) -> value(key, members)``."""
    if not isinstance(expr, AggregateCall):
        index = group_by.index(expr)  # a grouping key (the parser checks)
        return lambda segment: lambda key, members: key[index]
    if expr.operand is None:  # COUNT(*)
        return lambda segment: lambda key, members: len(members)
    fetch = _operand(expr.operand, child)
    combine = plain_algebra.AGGREGATES[expr.func.lower()]

    def bind(segment: Segment) -> Callable[[tuple, list], Any]:
        values = fetch(segment)
        return lambda key, members: combine([values[i] for i in members])

    return bind


def _check_aggregate_order(plan: Sort | TopK, child: CompiledNode) -> None:
    """ORDER BY after aggregation names output columns, never QUALITY."""
    for item in plan.order_by:
        if isinstance(item.key, (QualityRef, QualityScoreRef)):
            raise SQLError("ORDER BY QUALITY(...) cannot follow aggregation")
        child.schema.column(item.key.column)


def _order_key(
    item: Any, node: CompiledNode
) -> Callable[[Segment], Callable[[int], tuple]]:
    """One ORDER BY item as ``fetch(segment) -> key(position)``: the
    operand's value as a None-safe ``(not None, value)`` pair."""
    fetch = _operand(item.key, node)

    def fetch_key(segment: Segment) -> Callable[[int], tuple]:
        values = fetch(segment)
        return lambda i: ((value := values[i]) is not None, value)

    return fetch_key


def _compile_sort(
    plan: Sort, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _row_shaped(_compile(plan.child, relations, ids, sanitize), sanitize)
    if isinstance(plan.child, Aggregate):
        _check_aggregate_order(plan, child)
    # Repeated stable single-key sorts, least-significant first.
    passes = [
        (_order_key(item, child), item.descending)
        for item in reversed(plan.order_by)
    ]
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        segment, sel = child_run(binding, stats)
        order = list(_positions(segment, sel))
        for fetch, descending in passes:
            order.sort(key=fetch(segment), reverse=descending)
        return segment, order

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_topk(
    plan: TopK, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _row_shaped(_compile(plan.child, relations, ids, sanitize), sanitize)
    if isinstance(plan.child, Aggregate):
        _check_aggregate_order(plan, child)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    fetches = [_order_key(item, child) for item in plan.order_by]
    directions = [item.descending for item in plan.order_by]
    count = plan.count
    child_run = child.run

    if len(set(directions)) == 1:
        # Uniform direction: plain tuple keys, no _Reversed wrappers.
        # All-DESC is nlargest over the ascending key (both are
        # sorted(..., reverse=...)[:n], stable on ties), so the heap
        # compares native tuples at C speed.
        select = heapq.nlargest if directions[0] else heapq.nsmallest

        def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
            segment, sel = child_run(binding, stats)
            keys = [fetch(segment) for fetch in fetches]
            if len(keys) == 1:
                key = keys[0]
            else:
                key = lambda i: tuple(part(i) for part in keys)  # noqa: E731
            return segment, select(count, _positions(segment, sel), key=key)

        return CompiledNode(run, child.schema, child.tagged, child.tag_schema)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        segment, sel = child_run(binding, stats)
        keys = [
            (fetch(segment), descending)
            for fetch, descending in zip(fetches, directions)
        ]

        def composite_key(i: int) -> tuple:
            # nsmallest is stable and equivalent to sorted(...)[:k]; the
            # per-part inversion equals the Sort operator's repeated
            # stable sorts.
            return tuple(
                _Reversed(part(i)) if descending else part(i)
                for part, descending in keys
            )

        return segment, heapq.nsmallest(
            count, _positions(segment, sel), key=composite_key
        )

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_distinct(
    plan: Distinct, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    child_run = child.run
    distinct = (
        tagged_algebra.distinct_values if child.tagged else plain_algebra.distinct
    )
    segment_type = _segment_type(sanitize)

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        temp = _materialize(child, _rows_of(child, child_run(binding, stats)))
        return segment_type(distinct(temp)), None

    return CompiledNode(run, child.schema, child.tagged, child.tag_schema)


def _compile_limit(
    plan: Limit, relations: Binding, ids: OpIds, sanitize: bool = False
) -> CompiledNode:
    child = _compile(plan.child, relations, ids, sanitize)
    if plan.count < 0:
        raise QueryError("limit must be non-negative")
    count = plan.count
    child_run = child.run

    def run(binding: Binding, stats: Optional[ExecutionStats]) -> Batch:
        segment, sel = child_run(binding, stats)
        if sel is not None:
            return segment, sel[:count]
        if count >= segment.length:
            return segment, None
        return segment, list(range(count))

    return CompiledNode(
        run, child.schema, child.tagged, child.tag_schema, child.layout
    )
