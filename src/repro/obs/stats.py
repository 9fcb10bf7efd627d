"""Per-execution operator statistics: the ``EXPLAIN ANALYZE`` tree.

A compiled physical plan (:mod:`repro.sql.physical`) carries a static
*skeleton* — ``(label, child op-ids)`` per operator, preorder-numbered
— shared by every execution of that (possibly cached) plan.  Each
instrumented execution creates a fresh :class:`ExecutionStats` from the
skeleton and the operators record into it: rows out and inclusive wall
time per operator, plus operator-specific extras (hash-join build/probe
counts).

:class:`StatsCollector` is the ``execute(..., stats=...)`` hook: pass
one in, and after the call it holds the execution tree plus call-level
facts (total seconds, row count, plan-cache hit or miss).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = ["ExecutionStats", "OperatorStats", "StatsCollector"]

#: One skeleton entry: (operator label, child op-ids).  Op-ids are the
#: entry's index in the skeleton tuple; the root is op-id 0.
Skeleton = Sequence[tuple[str, tuple[int, ...]]]


class OperatorStats:
    """Measured facts about one operator in one execution."""

    __slots__ = ("op_id", "label", "children", "rows_out", "seconds",
                 "extras", "executed")

    def __init__(
        self, op_id: int, label: str, children: tuple[int, ...]
    ) -> None:
        self.op_id = op_id
        self.label = label
        self.children = children
        self.rows_out = 0
        self.seconds = 0.0
        self.extras: dict[str, Any] = {}
        self.executed = False

    def __repr__(self) -> str:
        status = (
            f"rows={self.rows_out}, {self.seconds * 1e3:.3f} ms"
            if self.executed
            else "not executed"
        )
        return f"OperatorStats({self.op_id}: {self.label}, {status})"


class ExecutionStats:
    """The operator tree of one execution, ready for annotation."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[OperatorStats]) -> None:
        self.nodes = nodes

    @classmethod
    def from_skeleton(cls, skeleton: Skeleton) -> "ExecutionStats":
        """A fresh, unexecuted stats tree for one compiled plan."""
        return cls(
            [
                OperatorStats(op_id, label, tuple(children))
                for op_id, (label, children) in enumerate(skeleton)
            ]
        )

    # -- recording (called by the compiled operators) ----------------------

    def record(self, op_id: int, rows_out: int, seconds: float) -> None:
        """Record one operator's output size and inclusive wall time."""
        node = self.nodes[op_id]
        node.rows_out = rows_out
        node.seconds = seconds
        node.executed = True

    def annotate(self, op_id: int, **extras: Any) -> None:
        """Attach operator-specific extras (e.g. join build/probe rows)."""
        self.nodes[op_id].extras.update(extras)

    # -- reading -------------------------------------------------------------

    @property
    def root(self) -> Optional[OperatorStats]:
        return self.nodes[0] if self.nodes else None

    @property
    def total_seconds(self) -> float:
        """Inclusive wall time of the root operator."""
        root = self.root
        return root.seconds if root is not None else 0.0

    @property
    def rows(self) -> int:
        """Rows produced by the root operator."""
        root = self.root
        return root.rows_out if root is not None else 0

    def operator(self, label_prefix: str) -> Optional[OperatorStats]:
        """The first operator (preorder) whose label starts with the
        prefix, or None."""
        for node in self.nodes:
            if node.label.startswith(label_prefix):
                return node
        return None

    def selectivity(self, node: OperatorStats) -> Optional[float]:
        """Output/input row ratio of a Filter."""
        if not node.label.startswith("Filter"):
            return None
        if len(node.children) != 1 or not node.executed:
            return None
        child = self.nodes[node.children[0]]
        if not child.executed or child.rows_out <= 0:
            return None
        return node.rows_out / child.rows_out

    def render_lines(self) -> list[str]:
        """The annotated plan tree: ``EXPLAIN ANALYZE``'s output lines."""
        lines: list[str] = []

        def annotation(node: OperatorStats) -> str:
            if not node.executed:
                return "(never executed)"
            parts = [
                f"rows={node.rows_out}",
                f"time={node.seconds * 1e3:.3f} ms",
            ]
            ratio = self.selectivity(node)
            if ratio is not None:
                parts.append(f"selectivity={ratio * 100:.1f}%")
            for key, value in sorted(node.extras.items()):
                parts.append(f"{key}={value}")
            return f"({', '.join(parts)})"

        def walk(op_id: int, prefix: str, is_last: bool, is_root: bool) -> None:
            node = self.nodes[op_id]
            text = f"{node.label}  {annotation(node)}"
            if is_root:
                lines.append(text)
                child_prefix = ""
            else:
                connector = "└─ " if is_last else "├─ "
                lines.append(f"{prefix}{connector}{text}")
                child_prefix = prefix + ("   " if is_last else "│  ")
            for index, child in enumerate(node.children):
                walk(child, child_prefix, index == len(node.children) - 1, False)

        if self.nodes:
            walk(0, "", True, True)
        return lines

    def snapshot(self) -> list[dict[str, Any]]:
        """The tree as plain dicts (JSON-ready), preorder."""
        out = []
        for node in self.nodes:
            entry: dict[str, Any] = {
                "op_id": node.op_id,
                "label": node.label,
                "children": list(node.children),
                "executed": node.executed,
            }
            if node.executed:
                entry["rows_out"] = node.rows_out
                entry["seconds"] = node.seconds
                ratio = self.selectivity(node)
                if ratio is not None:
                    entry["selectivity"] = ratio
            if node.extras:
                entry["extras"] = dict(node.extras)
            out.append(entry)
        return out

    def __repr__(self) -> str:
        return (
            f"ExecutionStats({len(self.nodes)} operators, "
            f"{self.total_seconds * 1e3:.3f} ms)"
        )


class StatsCollector:
    """The ``execute(..., stats=...)`` hook: call-level execution facts.

    After the ``execute`` call returns, the collector holds:

    - ``execution`` — the per-operator :class:`ExecutionStats` tree;
    - ``seconds`` — total wall time of the execution step;
    - ``rows`` — result row count;
    - ``cache_hit`` — whether a cached compiled plan was reused;
    - ``sql`` — the statement text.

    A collector is reusable: each ``execute`` call overwrites it.
    """

    __slots__ = ("sql", "execution", "seconds", "rows", "cache_hit", "filled")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sql: Optional[str] = None
        self.execution: Optional[ExecutionStats] = None
        self.seconds = 0.0
        self.rows = 0
        self.cache_hit = False
        self.filled = False

    def _fill(
        self,
        sql: str,
        execution: Optional[ExecutionStats],
        seconds: float,
        rows: int,
        cache_hit: bool,
    ) -> None:
        self.sql = sql
        self.execution = execution
        self.seconds = seconds
        self.rows = rows
        self.cache_hit = cache_hit
        self.filled = True

    def render(self) -> str:
        """A human-readable report: header plus the annotated tree."""
        if not self.filled:
            return "StatsCollector: no execution recorded"
        plan = "plan-cache hit" if self.cache_hit else "cold plan"
        lines = [
            f"{self.sql}",
            f"{plan}; rows: {self.rows}; time: {self.seconds * 1e3:.3f} ms",
        ]
        if self.execution is not None:
            lines.extend(self.execution.render_lines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        if not self.filled:
            return "StatsCollector(unfilled)"
        return (
            f"StatsCollector(rows={self.rows}, "
            f"seconds={self.seconds:.6f}, cache_hit={self.cache_hit})"
        )
