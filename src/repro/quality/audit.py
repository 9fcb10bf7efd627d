"""The "electronic trail": auditing the data manufacturing process.

§4: "In handling an exceptional situation, such as tracking an erred
transaction, the administrator may want to track aspects of the data
manufacturing process, such as the time of entry or intermediate
processing steps.  Much like the 'paper trail' currently used in
auditing procedures, an 'electronic trail' may facilitate the auditing
process."

:class:`ElectronicTrail` merges two event streams: the database's
committed transaction journal (:mod:`repro.relational.transactions`)
and manufacturing-pipeline events recorded by
:mod:`repro.manufacturing.pipeline`, and answers the administrator's
trace queries over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import AuditError
from repro.relational.catalog import Database


@dataclass(frozen=True)
class TrailEvent:
    """One event on the electronic trail.

    ``step`` is a manufacturing/processing step label ("collected",
    "entered", "transformed", "inserted", ...); ``subject`` identifies
    the datum (usually ``relation`` plus a key), ``detail`` carries
    step-specific payload.
    """

    sequence: int
    step: str
    relation: str
    subject: tuple[Any, ...]
    actor: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        actor = f" by {self.actor}" if self.actor else ""
        return (
            f"#{self.sequence} [{self.step}] {self.relation}{list(self.subject)}"
            f"{actor}"
        )


class ElectronicTrail:
    """An append-only audit trail over the data manufacturing process."""

    def __init__(self) -> None:
        self._events: list[TrailEvent] = []

    # -- recording ------------------------------------------------------------

    def record(
        self,
        step: str,
        relation: str,
        subject: Sequence[Any],
        actor: str = "",
        **detail: Any,
    ) -> TrailEvent:
        """Append one event; returns it with its assigned sequence number."""
        if not step:
            raise AuditError("trail event must name its step")
        event = TrailEvent(
            sequence=len(self._events) + 1,
            step=step,
            relation=relation,
            subject=tuple(subject),
            actor=actor,
            detail=dict(detail),
        )
        self._events.append(event)
        return event

    def ingest_journal(
        self,
        database: Database,
        key_columns: dict[str, Sequence[str]],
    ) -> int:
        """Import the database's committed journal as trail events.

        ``key_columns`` maps relation name → columns identifying a row
        (used as the event subject).  Returns the number of events
        imported.  Journal entries for relations not in ``key_columns``
        are imported with an empty subject.
        """
        count = 0
        for entry in database.transactions.journal:
            keys = key_columns.get(entry.relation, ())
            payload = entry.after or entry.before or {}
            subject = tuple(payload.get(k) for k in keys)
            self.record(
                entry.operation,
                entry.relation,
                subject,
                actor=entry.actor,
                transaction_id=entry.transaction_id,
                before=entry.before,
                after=entry.after,
                note=entry.note,
            )
            count += 1
        return count

    # -- queries --------------------------------------------------------------------

    @property
    def events(self) -> tuple[TrailEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def history_of(
        self, relation: str, subject: Sequence[Any]
    ) -> list[TrailEvent]:
        """All events about one datum, in order — its manufacturing history."""
        target = tuple(subject)
        return [
            e
            for e in self._events
            if e.relation == relation and e.subject == target
        ]

    def by_step(self, step: str) -> list[TrailEvent]:
        """All events of one step type."""
        return [e for e in self._events if e.step == step]

    def by_actor(self, actor: str) -> list[TrailEvent]:
        """All events by one actor."""
        return [e for e in self._events if e.actor == actor]

    def find(
        self, predicate: Callable[[TrailEvent], bool]
    ) -> list[TrailEvent]:
        """All events satisfying an arbitrary predicate."""
        return [e for e in self._events if predicate(e)]

    def trace_erred_transaction(
        self,
        relation: str,
        subject: Sequence[Any],
    ) -> dict[str, Any]:
        """The administrator's exception workflow: full trace of one datum.

        Returns the datum's event history, the actors involved, and the
        intermediate processing steps — the "electronic trail" §4 asks
        for.  Raises :class:`AuditError` when there is no trace at all
        (an unaccounted-for datum is itself an audit finding).
        """
        history = self.history_of(relation, subject)
        if not history:
            raise AuditError(
                f"no trail events for {relation}{list(tuple(subject))}: "
                f"datum has no recorded manufacturing history"
            )
        return {
            "relation": relation,
            "subject": tuple(subject),
            "events": history,
            "steps": [e.step for e in history],
            "actors": sorted({e.actor for e in history if e.actor}),
            "first": history[0],
            "last": history[-1],
        }

    def render(self, max_events: Optional[int] = None) -> str:
        """The trail as numbered text lines."""
        shown = self._events if max_events is None else self._events[-max_events:]
        lines = [f"Electronic trail ({len(self._events)} events)"]
        lines.extend("  " + e.summary() for e in shown)
        return "\n".join(lines)
