"""A small transaction manager with rollback and a write-ahead journal.

The paper cites transaction management as one of the classical tools that
prevent data *corruption* (§1.1).  The administrator's "electronic trail"
(§4) additionally wants every modification attributable and traceable;
the journal kept here feeds :mod:`repro.quality.audit`.

The design is deliberately simple: transactions are serialized (one
writer at a time per manager), undo records are kept in memory, and the
journal is an append-only list of committed operations.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.errors import TransactionError


@dataclass(frozen=True)
class JournalEntry:
    """One committed operation in the write-ahead journal."""

    transaction_id: int
    sequence: int
    operation: str  # "insert" | "delete" | "update"
    relation: str
    before: Optional[dict[str, Any]]
    after: Optional[dict[str, Any]]
    actor: str = ""
    note: str = ""


class Transaction:
    """An open transaction: a list of undo actions plus journal staging.

    Created via :meth:`TransactionManager.begin`; user code usually uses
    the :meth:`TransactionManager.transaction` context manager instead.
    """

    _ACTIVE = "active"
    _COMMITTED = "committed"
    _ABORTED = "aborted"

    def __init__(self, transaction_id: int, manager: "TransactionManager", actor: str) -> None:
        self.transaction_id = transaction_id
        self.actor = actor
        self._manager = manager
        self._undo: list[Callable[[], None]] = []
        self._staged: list[JournalEntry] = []
        self._state = self._ACTIVE
        self._sequence = itertools.count()

    # -- state -------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._state == self._ACTIVE

    def _require_active(self) -> None:
        if self._state != self._ACTIVE:
            raise TransactionError(
                f"transaction {self.transaction_id} is {self._state}, not active"
            )

    # -- recording ------------------------------------------------------------

    def record(
        self,
        operation: str,
        relation: str,
        undo: Callable[[], None],
        before: Optional[dict[str, Any]] = None,
        after: Optional[dict[str, Any]] = None,
        note: str = "",
    ) -> None:
        """Record one applied modification with its undo action."""
        self._require_active()
        self._undo.append(undo)
        self._staged.append(
            JournalEntry(
                transaction_id=self.transaction_id,
                sequence=next(self._sequence),
                operation=operation,
                relation=relation,
                before=before,
                after=after,
                actor=self.actor,
                note=note,
            )
        )

    # -- termination -------------------------------------------------------------

    def commit(self) -> None:
        """Make the transaction's effects durable and journal them."""
        self._require_active()
        self._state = self._COMMITTED
        self._manager._on_commit(self)

    def abort(self) -> None:
        """Undo every recorded modification, newest first.

        A raising undo action must not strand the rest of the rollback:
        every remaining undo still runs (newest first), the manager is
        always released, and the failures are re-raised afterwards as
        one :class:`TransactionError` naming the failed steps (the
        individual exceptions ride along on its ``failures`` attribute).
        """
        self._require_active()
        self._state = self._ABORTED
        failures: list[tuple[JournalEntry, Exception]] = []
        try:
            # record() appends to _undo and _staged in lockstep, so the
            # journal entry at the same position describes each undo.
            for entry, undo in reversed(list(zip(self._staged, self._undo))):
                try:
                    undo()
                except Exception as exc:
                    failures.append((entry, exc))
        finally:
            self._manager._on_finish(self)
        if failures:
            detail = "; ".join(
                f"step {entry.sequence} ({entry.operation} on "
                f"{entry.relation}): {exc}"
                for entry, exc in failures
            )
            error = TransactionError(
                f"abort of transaction {self.transaction_id} failed to undo "
                f"{len(failures)} of {len(self._undo)} step(s): {detail}"
            )
            error.failures = failures
            raise error from failures[0][1]


class TransactionManager:
    """Serialized transaction manager with an append-only journal."""

    def __init__(self) -> None:
        self._next_id = itertools.count(1)
        self._journal: list[JournalEntry] = []
        self._current: Optional[Transaction] = None
        # Guards _current/_owner_thread/_journal.  Condition (over an
        # RLock) so cross-thread begin() can wait for the active writer
        # instead of failing.
        self._cond = threading.Condition()
        self._owner_thread: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    def begin(self, actor: str = "") -> Transaction:
        """Start a transaction.  Only one may be active at a time.

        A second ``begin`` from the *same* thread while a transaction is
        active raises :class:`TransactionError` (nested transactions are
        a programming error, and waiting would self-deadlock).  A
        ``begin`` from a *different* thread blocks until the active
        transaction commits or aborts — concurrent writers serialize
        instead of failing.
        """
        me = threading.get_ident()
        with self._cond:
            while self._current is not None and self._current.is_active:
                if self._owner_thread == me:
                    raise TransactionError(
                        f"transaction {self._current.transaction_id} "
                        "is still active"
                    )
                self._cond.wait()
            txn = Transaction(next(self._next_id), self, actor)
            self._current = txn
            self._owner_thread = me
            return txn

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the write gate without opening a transaction.

        While the context is held no *other* thread can begin (or be
        inside) a transaction; :meth:`Database.snapshot
        <repro.relational.catalog.Database.snapshot>` uses this so a
        snapshot never observes half of a multi-statement transaction
        (e.g. the middle of an ``insert_many`` batch).  Re-entrant for
        the owning thread: a thread holding its own active transaction
        may still snapshot its own in-progress state.
        """
        me = threading.get_ident()
        with self._cond:
            while (
                self._current is not None
                and self._current.is_active
                and self._owner_thread != me
            ):
                self._cond.wait()
            yield

    def transaction(self, actor: str = "") -> "_TransactionContext":
        """Context manager: commit on success, abort on exception.

        >>> manager = TransactionManager()
        >>> with manager.transaction(actor="alice") as txn:
        ...     txn.record("insert", "t", undo=lambda: None, after={"a": 1})
        >>> len(manager.journal)
        1
        """
        return _TransactionContext(self, actor)

    # -- manager callbacks ---------------------------------------------------------

    def _on_commit(self, txn: Transaction) -> None:
        with self._cond:
            self._journal.extend(txn._staged)
        self._on_finish(txn)

    def _on_finish(self, txn: Transaction) -> None:
        with self._cond:
            if self._current is txn:
                self._current = None
                self._owner_thread = None
                self._cond.notify_all()

    # -- journal access ---------------------------------------------------------

    @property
    def journal(self) -> tuple[JournalEntry, ...]:
        """All committed operations, in commit order."""
        with self._cond:
            return tuple(self._journal)

    def entries_for_relation(self, relation: str) -> Iterator[JournalEntry]:
        """Committed operations affecting one relation."""
        return (e for e in self._journal if e.relation == relation)

    def entries_for_transaction(self, transaction_id: int) -> Iterator[JournalEntry]:
        """Committed operations of one transaction."""
        return (e for e in self._journal if e.transaction_id == transaction_id)


class _TransactionContext:
    """Context-manager wrapper produced by TransactionManager.transaction."""

    def __init__(self, manager: TransactionManager, actor: str) -> None:
        self._manager = manager
        self._actor = actor
        self._txn: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        self._txn = self._manager.begin(self._actor)
        return self._txn

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        assert self._txn is not None
        if exc_type is None:
            self._txn.commit()
        elif self._txn.is_active:
            self._txn.abort()
        return False
