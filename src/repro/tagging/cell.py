"""Quality cells: an application value plus its quality-indicator tags.

This is the data structure behind the paper's Table 2, where the cell
``62 Lois Av`` carries the tags ``(10-24-91, acct'g)`` — creation time
and source.  A :class:`QualityCell` is immutable; tag-modifying methods
return new cells, which lets the quality-extended algebra share cells
between input and output relations safely.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import UnknownIndicatorError
from repro.tagging.indicators import IndicatorValue


class QualityCell:
    """An application value with attached quality-indicator values.

    >>> cell = QualityCell("62 Lois Av", [
    ...     IndicatorValue("creation_time", "1991-10-24"),
    ...     IndicatorValue("source", "acct'g")])
    >>> cell.value
    '62 Lois Av'
    >>> cell.tag("source").value
    "acct'g"
    """

    __slots__ = ("value", "_tags")

    def __init__(
        self,
        value: Any,
        tags: Iterable[IndicatorValue] = (),
    ) -> None:
        self.value = value
        collected: dict[str, IndicatorValue] = {}
        for tag in tags:
            # Last write wins on duplicates; TagSchema.validate_tags is the
            # strict path used by TaggedRelation inserts.
            collected[tag.name] = tag
        self._tags: tuple[IndicatorValue, ...] = tuple(
            collected[name] for name in sorted(collected)
        )

    # -- tag access ------------------------------------------------------------

    @property
    def tags(self) -> tuple[IndicatorValue, ...]:
        """All tags, sorted by indicator name."""
        return self._tags

    @property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self._tags)

    def has_tag(self, indicator: str) -> bool:
        return any(t.name == indicator for t in self._tags)

    def tag(self, indicator: str) -> IndicatorValue:
        """The tag for ``indicator``; raises if absent."""
        for t in self._tags:
            if t.name == indicator:
                return t
        raise UnknownIndicatorError(
            f"cell {self.value!r} carries no indicator {indicator!r} "
            f"(tags: {list(self.indicator_names)})"
        )

    def tag_value(self, indicator: str, default: Any = None) -> Any:
        """The tag's value for ``indicator``, or ``default`` if untagged."""
        for t in self._tags:
            if t.name == indicator:
                return t.value
        return default

    def tags_dict(self) -> dict[str, Any]:
        """Indicator name → tag value, as a plain dict."""
        return {t.name: t.value for t in self._tags}

    # -- derivation ---------------------------------------------------------------

    def with_tag(self, tag: IndicatorValue) -> "QualityCell":
        """A copy with one tag added or replaced."""
        kept = [t for t in self._tags if t.name != tag.name]
        return QualityCell(self.value, kept + [tag])

    def with_tags(self, tags: Iterable[IndicatorValue]) -> "QualityCell":
        """A copy with several tags added or replaced."""
        cell = self
        for tag in tags:
            cell = cell.with_tag(tag)
        return cell

    def without_tag(self, indicator: str) -> "QualityCell":
        """A copy with one indicator's tag removed (no-op if absent)."""
        return QualityCell(
            self.value, [t for t in self._tags if t.name != indicator]
        )

    def with_value(self, value: Any) -> "QualityCell":
        """A copy holding a different application value, same tags."""
        return QualityCell(value, self._tags)

    # -- rendering / equality --------------------------------------------------------

    def render(self, date_format: str = "%m-%d-%y") -> str:
        """Paper-style rendering: ``value (tag, tag)``.

        Dates are formatted compactly to match Table 2's ``10-24-91``
        style; other values use ``str``.
        """
        if not self._tags:
            return "" if self.value is None else str(self.value)
        parts = []
        for t in self._tags:
            try:
                parts.append(t.value.strftime(date_format))
            except AttributeError:
                parts.append(str(t.value))
        rendered_value = "" if self.value is None else str(self.value)
        return f"{rendered_value} ({', '.join(parts)})"

    def __repr__(self) -> str:
        return f"QualityCell({self.value!r}, tags={self.tags_dict()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QualityCell):
            return other.value == self.value and other._tags == self._tags
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QualityCell", _hashable(self.value), self._tags))


def _hashable(value: Any) -> Any:
    """Best-effort hashable projection of a cell value."""
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def plain(value: Any) -> QualityCell:
    """An untagged cell (convenience for building mixed relations)."""
    return QualityCell(value)
