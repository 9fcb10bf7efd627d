"""Columnar tag access: a tagged relation's tags as aligned arrays.

DESIGN.md §7 calls out the tag-representation choice for ablation: the
attribute-based model stores tags *on* each cell (the
:class:`~repro.tagging.relation.TaggedRelation` design — simple,
self-describing rows, tags travel with cells through the algebra).  The
alternative reads each (column, indicator) pair as one aligned array of
tag values.  A tagged relation derives those arrays itself, one pair at
a time and only when read
(:meth:`~repro.tagging.relation.TaggedRelation.tag_array`);
:class:`ColumnarTagStore` is a read-only view that scans them.

Trade-offs this module lets the E2 ablation measure:

- pro: indicator-constrained scans touch one contiguous array instead
  of per-cell dictionaries (faster filters, smaller per-tag overhead);
- con: an array is derived from the cells, on its first read and again
  for the rows appended by each later write.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import TagSchemaError
from repro.obs import metrics as _obs_metrics
from repro.tagging.query import OPERATORS
from repro.tagging.relation import TaggedRelation


def _record_scan(rows_total: int, rows_hit: int) -> None:
    """Report one tag-array scan into the global registry (enabled only)."""
    registry = _obs_metrics.global_registry()
    registry.counter(
        "columnar.scans", "tag-array scans served by ColumnarTagStore"
    ).inc()
    registry.counter(
        "columnar.rows_scanned", "rows examined by columnar tag scans"
    ).inc(rows_total)
    if rows_total:
        registry.histogram(
            "columnar.scan_selectivity",
            buckets=_obs_metrics.RATIO_BUCKETS,
            description="fraction of rows surviving each columnar tag scan",
        ).observe(rows_hit / rows_total)


class ColumnarTagStore:
    """A read-only view of one tagged relation's tag arrays.

    The view holds only its relation: every array it reads is the
    relation's own :meth:`~repro.tagging.relation.TaggedRelation.tag_array`,
    built on first read and cached there, so the view never drifts from
    the relation and costs nothing to make.
    """

    __slots__ = ("relation",)

    def __init__(self, relation: TaggedRelation) -> None:
        self.relation = relation

    @classmethod
    def from_tagged_relation(cls, tagged: TaggedRelation) -> "ColumnarTagStore":
        """The columnar view of ``tagged``."""
        return cls(tagged)

    def __len__(self) -> int:
        return len(self.relation)

    def array(self, column: str, indicator: str) -> list[Any]:
        """The aligned tag array itself, not a copy (treat as read-only).

        Raises :class:`~repro.errors.UnknownIndicatorError` when the tag
        schema does not allow ``indicator`` on ``column``.
        """
        return self.relation.tag_array(column, indicator)

    def filter_indices(
        self,
        column: str,
        indicator: str,
        op: str,
        operand: Any,
        missing_ok: bool = False,
    ) -> list[int]:
        """Row indices whose tag satisfies one constraint (a one-constraint
        :meth:`scan`)."""
        return self.scan([(column, indicator, op, operand, missing_ok)])

    def scan(
        self,
        constraints: Sequence[
            tuple[str, str, str, Any] | tuple[str, str, str, Any, bool]
        ],
    ) -> list[int]:
        """Row indices satisfying a *conjunction* of tag constraints.

        Each constraint is ``(column, indicator, op, operand)`` — or,
        with an optional fifth element, ``(..., missing_ok)`` — with
        ``op`` from :data:`~repro.tagging.query.OPERATORS`.  The first
        constraint scans its whole array; each further constraint only
        probes the surviving indices, so selective leading constraints
        keep the scan cheap.  Missing tags (None) never match unless
        the constraint says ``missing_ok=True`` (matching
        :class:`~repro.tagging.query.IndicatorConstraint` semantics).
        """
        hits: Optional[list[int]] = None
        for constraint in constraints:
            column, indicator, op, operand = constraint[:4]
            missing_ok = bool(constraint[4]) if len(constraint) > 4 else False
            if op not in OPERATORS:
                raise TagSchemaError(f"unknown operator {op!r}")
            compare = OPERATORS[op]
            array = self.array(column, indicator)
            survivors: list[int] = []
            emit = survivors.append
            if hits is None:
                if op == "==" and operand is not None and not missing_ok:
                    # Equality scans hop hit-to-hit with list.index, a
                    # C-level search — no Python per-element loop.  (A
                    # None operand must fall through: missing tags never
                    # match, but index(None) would find them.  Likewise
                    # missing_ok: the hop cannot also emit the Nones.)
                    find = array.index
                    index = -1
                    try:
                        while True:
                            index = find(operand, index + 1)
                            emit(index)
                    except ValueError:
                        pass
                else:
                    for index, value in enumerate(array):
                        if value is None:
                            if missing_ok:
                                emit(index)
                            continue
                        try:
                            if compare(value, operand):
                                emit(index)
                        except TypeError:
                            continue
            else:
                for index in hits:
                    value = array[index]
                    if value is None:
                        if missing_ok:
                            emit(index)
                        continue
                    try:
                        if compare(value, operand):
                            emit(index)
                    except TypeError:
                        continue
            hits = survivors
            if not hits:
                break
        selected = (
            hits if hits is not None else list(range(len(self.relation)))
        )
        if _obs_metrics.enabled():
            _record_scan(len(self.relation), len(selected))
        return selected

    def __repr__(self) -> str:
        return (
            f"ColumnarTagStore({self.relation.schema.name}, "
            f"{len(self.relation)} rows)"
        )
