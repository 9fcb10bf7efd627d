"""A value cached against the version token it was built for.

Every derived cache in the engine — a relation's columnar store and
read snapshot, the score materializer's profile generation and score
blocks — follows one rule: the cached value is current exactly while
the token it was built for (a mutation counter, a layout version, a
profile registration) still equals the live token.  :class:`Versioned`
is that rule in one place.

The ``(token, value)`` pair lives in a single attribute, so a reader
that skips the lock sees either the old pair or the new one, never a
new token with an old value.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
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

    def fetch(
        self, token: Any, build: Callable[[], T], lock: AbstractContextManager
    ) -> T:
        """The value for ``token``, built under ``lock`` on a miss.

        Double-checked: the common hit costs one tuple comparison, and
        two threads racing on a cold cache agree on one built value.
        """
        value = self.get(token)
        if value is not None:
            return value
        with lock:
            value = self.get(token)
            if value is None:
                value = self.put(token, build())
            return value

    def restamp(self, value: Any, token: Any) -> None:
        """Move ``value`` to ``token`` if it is the cached value.

        For writes made *through* the cached value (which therefore
        kept it current): the cache follows the new token instead of
        rebuilding on the next read.
        """
        entry = self._entry
        if entry is not None and entry[1] is value:
            self._entry = (token, value)
