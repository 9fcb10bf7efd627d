"""Inspection mechanisms behind the "√ inspection" requirement.

§3.3: "These procedures might include double entry of important data,
front-end rules to enforce domain or update constraints, or manual
processes for performing certification on the data."  §4 adds
"prompting for data inspection on a periodic basis or in the event of
peculiar data".

Implemented here:

- :class:`DoubleEntry` — two independent entries of the same datum are
  compared; disagreement flags the datum;
- :class:`CertificationLog` — manual certification records over data
  subjects, queryable by the administrator;
- :class:`PeriodicInspectionPrompt` — schedule-driven inspection
  prompting (every N records and on peculiar values);
- front-end rules live in :mod:`repro.quality.controls`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import InspectionError


@dataclass(frozen=True)
class EntryPair:
    """The two independent entries of one field of one subject."""

    subject: tuple[Any, ...]
    field_name: str
    first: Any
    second: Any

    @property
    def agrees(self) -> bool:
        return self.first == self.second


class DoubleEntry:
    """Double entry of important data: enter twice, compare, flag.

    Typical flow: ``enter(subject, field, value, operator)`` twice per
    (subject, field); :meth:`discrepancies` lists disagreements.

    >>> de = DoubleEntry()
    >>> de.enter(("Nut Co",), "employees", 700, "alice")
    >>> de.enter(("Nut Co",), "employees", 710, "bob")
    >>> [(p.first, p.second) for p in de.discrepancies()]
    [(700, 710)]
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[tuple[Any, ...], str], list[tuple[Any, str]]] = {}

    def enter(
        self,
        subject: Sequence[Any],
        field_name: str,
        value: Any,
        operator: str,
    ) -> None:
        """Record one entry.  A third entry for the same slot raises."""
        key = (tuple(subject), field_name)
        entries = self._entries.setdefault(key, [])
        if len(entries) >= 2:
            raise InspectionError(
                f"double entry for {key} already has two entries"
            )
        if entries and entries[0][1] == operator:
            raise InspectionError(
                f"double entry requires two *independent* operators; "
                f"{operator!r} already entered {key}"
            )
        entries.append((value, operator))

    def pairs(self) -> list[EntryPair]:
        """All completed pairs (slots entered exactly twice)."""
        result = []
        for (subject, field_name), entries in self._entries.items():
            if len(entries) == 2:
                result.append(
                    EntryPair(subject, field_name, entries[0][0], entries[1][0])
                )
        return result

    def pending(self) -> list[tuple[tuple[Any, ...], str]]:
        """Slots entered only once so far."""
        return [key for key, entries in self._entries.items() if len(entries) == 1]

    def discrepancies(self) -> list[EntryPair]:
        """Completed pairs whose two entries disagree."""
        return [pair for pair in self.pairs() if not pair.agrees]

    def agreement_rate(self) -> float:
        """Fraction of completed pairs that agree (1.0 when none complete)."""
        pairs = self.pairs()
        if not pairs:
            return 1.0
        return sum(1 for p in pairs if p.agrees) / len(pairs)


@dataclass(frozen=True)
class CertificationRecord:
    """One manual certification of a data subject."""

    subject: tuple[Any, ...]
    relation: str
    certified_by: str
    verdict: str  # "certified" | "rejected"
    note: str = ""


class CertificationLog:
    """Manual data certification records (§4's certification process)."""

    CERTIFIED = "certified"
    REJECTED = "rejected"

    def __init__(self) -> None:
        self._records: list[CertificationRecord] = []

    def certify(
        self,
        relation: str,
        subject: Sequence[Any],
        certified_by: str,
        note: str = "",
    ) -> CertificationRecord:
        """Record a positive certification."""
        return self._record(relation, subject, certified_by, self.CERTIFIED, note)

    def reject(
        self,
        relation: str,
        subject: Sequence[Any],
        certified_by: str,
        note: str = "",
    ) -> CertificationRecord:
        """Record a rejection (datum failed certification)."""
        return self._record(relation, subject, certified_by, self.REJECTED, note)

    def _record(
        self,
        relation: str,
        subject: Sequence[Any],
        certified_by: str,
        verdict: str,
        note: str,
    ) -> CertificationRecord:
        if not certified_by:
            raise InspectionError("certification must name its certifier")
        record = CertificationRecord(
            tuple(subject), relation, certified_by, verdict, note
        )
        self._records.append(record)
        return record

    @property
    def records(self) -> tuple[CertificationRecord, ...]:
        return tuple(self._records)

    def status_of(
        self, relation: str, subject: Sequence[Any]
    ) -> Optional[str]:
        """Latest certification verdict for one subject (None = never)."""
        target = tuple(subject)
        for record in reversed(self._records):
            if record.relation == relation and record.subject == target:
                return record.verdict
        return None

    def certified_subjects(self, relation: str) -> list[tuple[Any, ...]]:
        """Subjects whose latest verdict is 'certified'."""
        latest: dict[tuple[Any, ...], str] = {}
        for record in self._records:
            if record.relation == relation:
                latest[record.subject] = record.verdict
        return [s for s, verdict in latest.items() if verdict == self.CERTIFIED]


class PeriodicInspectionPrompt:
    """Prompt for inspection every N records and on peculiar data (§4).

    ``peculiar`` is a predicate flagging records that warrant immediate
    inspection regardless of the schedule.  ``observe`` returns the
    reasons the record should be inspected (empty = no prompt).
    """

    def __init__(
        self,
        every_n: int,
        peculiar: Optional[Callable[[Mapping[str, Any]], bool]] = None,
    ) -> None:
        if every_n <= 0:
            raise InspectionError("every_n must be positive")
        self.every_n = every_n
        self.peculiar = peculiar
        self._count = 0
        self.prompts: list[tuple[int, str]] = []

    def observe(self, record: Mapping[str, Any]) -> list[str]:
        """Feed one record through the prompt schedule."""
        self._count += 1
        reasons: list[str] = []
        if self._count % self.every_n == 0:
            reasons.append(f"periodic inspection (every {self.every_n} records)")
        if self.peculiar is not None and self.peculiar(record):
            reasons.append("peculiar data")
        for reason in reasons:
            self.prompts.append((self._count, reason))
        return reasons

    @property
    def observed(self) -> int:
        return self._count
