"""Column domains (data types) for the relational engine.

A :class:`Domain` validates and coerces Python values into the canonical
representation stored in relations.  ``None`` is handled uniformly: every
domain admits ``None`` (SQL-style NULL); nullability is enforced
separately by :class:`~repro.relational.constraints.NotNullConstraint`.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Callable, Optional

from repro.errors import DomainError


class Domain:
    """A typed domain of atomic values.

    Parameters
    ----------
    name:
        Human-readable domain name, e.g. ``"INT"``.
    pytypes:
        Tuple of Python types whose instances belong to the domain.
    coerce:
        Optional function attempting to convert a foreign value into the
        domain; it should raise ``ValueError``/``TypeError`` on failure.
    """

    __slots__ = ("name", "pytypes", "excludes", "_coerce")

    def __init__(
        self,
        name: str,
        pytypes: tuple[type, ...],
        coerce: Optional[Callable[[Any], Any]] = None,
        excludes: tuple[type, ...] = (),
    ) -> None:
        self.name = name
        self.pytypes = pytypes
        self.excludes = excludes
        self._coerce = coerce

    def __repr__(self) -> str:
        return f"Domain({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Domain) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Domain", self.name))

    def contains(self, value: Any) -> bool:
        """Return True if ``value`` is already a canonical member.

        A float NaN never is: sorting and ORDER BY rely on every
        domain's values being totally ordered.
        """
        if value is None:
            return True
        # bool is a subclass of int; keep INT and BOOL disjoint.
        if self.name != "BOOL" and isinstance(value, bool):
            return bool in self.pytypes
        if self.excludes and isinstance(value, self.excludes):
            return False
        if isinstance(value, float) and value != value:
            return False  # NaN is unequal even to itself: nothing orders it
        return isinstance(value, self.pytypes)

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` into the domain or raise :class:`DomainError`.

        Returns the canonical representation (which may differ from the
        input, e.g. an ISO date string becomes a ``datetime.date``).
        """
        if value is None or self.contains(value):
            return value
        if self._coerce is not None:
            try:
                coerced = self._coerce(value)
            except (ValueError, TypeError) as exc:
                raise DomainError(
                    f"value {value!r} is not coercible to domain {self.name}"
                ) from exc
            if self.contains(coerced):
                return coerced
        raise DomainError(f"value {value!r} does not belong to domain {self.name}")


def _coerce_int(value: Any) -> int:
    if isinstance(value, bool):
        raise TypeError("bool is not an INT")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} has a fractional part")
    return int(value)


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError("bool is not a FLOAT")
    return float(value)


def _coerce_date(value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, str):
        return _dt.date.fromisoformat(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to DATE")


def _coerce_datetime(value: Any) -> _dt.datetime:
    if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        return _dt.datetime.fromisoformat(value)
    if isinstance(value, (int, float)):
        return _dt.datetime.fromtimestamp(float(value), tz=_dt.timezone.utc).replace(
            tzinfo=None
        )
    raise TypeError(f"cannot coerce {type(value).__name__} to DATETIME")


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "t", "yes", "1"):
            return True
        if lowered in ("false", "f", "no", "0"):
            return False
        raise ValueError(f"{value!r} is not a boolean literal")
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to BOOL")


INT = Domain("INT", (int,), _coerce_int)
FLOAT = Domain("FLOAT", (float, int), _coerce_float)
STR = Domain("STR", (str,), str)
DATE = Domain("DATE", (_dt.date,), _coerce_date, excludes=(_dt.datetime,))
DATETIME = Domain("DATETIME", (_dt.datetime,), _coerce_datetime)
BOOL = Domain("BOOL", (bool,), _coerce_bool)

#: All built-in domains, by name.
BUILTIN_DOMAINS: dict[str, Domain] = {
    d.name: d for d in (INT, FLOAT, STR, DATE, DATETIME, BOOL)
}


def domain_by_name(name: str) -> Domain:
    """Look up a built-in domain by its name (case-insensitive)."""
    try:
        return BUILTIN_DOMAINS[name.upper()]
    except KeyError:
        raise DomainError(f"unknown domain name {name!r}") from None
