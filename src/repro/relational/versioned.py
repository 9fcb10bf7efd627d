"""Caches of derived state, and the rules that say when they are current.

Two rules cover every derived cache in the engine:

- :class:`Versioned` — a value is current exactly while the token it
  was built for still equals the live token.  A relation's read
  snapshot is cached this way, against its mutation counter and
  partition layout.
- :class:`Carried` — per-row state (a relation's value arrays and tag
  store, the score materializer's blocks) is keyed by the relation's
  rewrite *epoch* plus its row count.  An append keeps the
  epoch, so the state is extended by the appended rows instead of
  being rebuilt, on the live relation and across its read snapshots.

A cached entry lives in a single attribute or dictionary slot, so a
reader that skips the lock sees either the old entry or the new one,
never a new token with an old value.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

T = TypeVar("T")


class Versioned:
    """One cached value and the token it is valid for."""

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: Optional[tuple[Any, Any]] = None

    def get(self, token: Any) -> Any:
        """The value cached for ``token``, or None when stale or empty."""
        entry = self._entry
        if entry is not None and entry[0] == token:
            return entry[1]
        return None

    def put(self, token: Any, value: T) -> T:
        """Cache ``value`` as current for ``token``; returns it."""
        self._entry = (token, value)
        return value


class Carried:
    """Per-row derived state of one relation object, carried over appends.

    A relation's rows change in two ways.  An append keeps every row at
    its position; a *rewrite* (delete, update, wholesale replacement,
    redistribution into shards) may move any of them, and bumps the
    relation's *epoch*.  Within one epoch rows are only added at the
    end, so two states of one epoch, with ``m`` and ``n`` rows, agree
    on their first ``min(m, n)`` rows.  State derived row by row (a tag
    store, a column's values, a block of scores) and built for ``m``
    rows of an epoch is then the start of the state for any ``n`` rows
    of it: keep its first ``min(m, n)`` entries and derive the rows
    after them.

    Entries are keyed (``"tags"``, ``"scores"``, or a column position
    for a value array) and stamped
    ``(epoch, generation, rows)``;
    ``generation`` names whatever else the state was derived from (a
    scoring profile's registration).  A relation and its read snapshots
    share one *family* table.  Frozen snapshots publish what they build
    there — a frozen relation and its stores reject every write, so a
    published value never changes — and every member derives from the
    family's entry or its own stale one instead of starting over.  A
    derived value is always a new value: arrays are copied, never
    extended in place, because an older snapshot and the batch
    sanitizer read them at their own length.
    """

    __slots__ = ("_own", "_family", "_publishes")

    def __init__(
        self, family: Optional[dict] = None, publishes: bool = False
    ) -> None:
        self._own: dict[Any, tuple] = {}
        self._family: dict[Any, tuple] = {} if family is None else family
        self._publishes = publishes

    def successor(self) -> "Carried":
        """The cache of a read snapshot cut from this relation."""
        return Carried(self._family, publishes=True)

    def fetch(
        self,
        key: Any,
        owner: Any,
        make: Callable[[Any, int], T],
        generation: Any = None,
    ) -> T:
        """The value of ``key`` for the rows ``owner`` holds now.

        ``owner`` is the relation this cache belongs to; its ``_epoch``,
        ``_rows`` and ``_lock`` stamp and guard the entry.  On a miss,
        ``make(base, count)`` runs under the lock: ``base`` is a value
        built for the first ``count`` rows of the same epoch and
        generation (``count`` may exceed the rows held now), or ``None``
        with ``count`` 0 when there is none to start from.
        """
        entry = self._own.get(key)
        if (
            entry is not None
            and entry[1] == len(owner._rows)
            and entry[0] == (owner._epoch, generation)
        ):
            return entry[2]
        with owner._lock:
            epoch = owner._epoch
            stamp = (epoch, generation)
            rows = len(owner._rows)
            entry = self._own.get(key)
            if entry is not None and entry[1] == rows and entry[0] == stamp:
                return entry[2]
            base = None
            for candidate in (entry, self._family.get(key)):
                if candidate is not None and candidate[0] == stamp and (
                    base is None
                    or min(candidate[1], rows) > min(base[1], rows)
                ):
                    base = candidate
            if base is None:
                value = make(None, 0)
            else:
                value = make(base[2], base[1])
            entry = (stamp, rows, value)
            self._own[key] = entry
            if self._publishes:
                current = self._family.get(key)
                if (
                    current is None
                    or (current[0] == stamp and current[1] < rows)
                    or (current[0] != stamp and current[0][0] <= epoch)
                ):
                    self._family[key] = entry
            return value
