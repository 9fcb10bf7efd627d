"""Aggregate-level quality tagging: tags on relations and databases.

§1.2 (footnote to the cell-tagging proposal): "Tagging higher
aggregations, such as the table or database level, may handle some of
these more general quality concepts.  For example, the means by which a
database table was populated may give some indication of its
completeness."

A :class:`RelationTags` attaches indicator values to a whole relation
(population method, census date, steward, certification status...), and
:class:`DatabaseTags` does the same per database with a registry of its
relations' tags.  Aggregate tags participate in filtering: an
application profile can demand "only use tables populated from the full
census" before any cell-level constraint runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.errors import TaggingError, UnknownIndicatorError
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue


class RelationTags:
    """Quality-indicator values describing a whole relation.

    >>> tags = RelationTags("customer", [
    ...     IndicatorValue("population_method", "full census"),
    ...     IndicatorValue("steward", "sales ops")])
    >>> tags.value("population_method")
    'full census'
    """

    def __init__(
        self,
        relation_name: str,
        tags: Iterable[IndicatorValue] = (),
    ) -> None:
        if not relation_name:
            raise TaggingError("relation tags must name their relation")
        self.relation_name = relation_name
        self._tags: dict[str, IndicatorValue] = {}
        for tag in tags:
            self.set(tag)

    def set(self, tag: IndicatorValue) -> IndicatorValue:
        """Set (or replace) one indicator value."""
        self._tags[tag.name] = tag
        return tag

    def remove(self, indicator: str) -> None:
        """Remove one indicator's tag (missing is an error)."""
        try:
            del self._tags[indicator]
        except KeyError:
            raise UnknownIndicatorError(
                f"relation {self.relation_name!r} carries no aggregate "
                f"indicator {indicator!r}"
            ) from None

    def has(self, indicator: str) -> bool:
        return indicator in self._tags

    def get(self, indicator: str) -> IndicatorValue:
        """The tag for one indicator; raises when absent."""
        try:
            return self._tags[indicator]
        except KeyError:
            raise UnknownIndicatorError(
                f"relation {self.relation_name!r} carries no aggregate "
                f"indicator {indicator!r} (tags: {sorted(self._tags)})"
            ) from None

    def value(self, indicator: str, default: Any = None) -> Any:
        """The tag's value, or ``default`` when untagged."""
        tag = self._tags.get(indicator)
        return tag.value if tag is not None else default

    @property
    def indicator_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tags))

    def as_dict(self) -> dict[str, Any]:
        return {name: tag.value for name, tag in sorted(self._tags.items())}

    def render(self) -> str:
        if not self._tags:
            return f"{self.relation_name}: (no aggregate tags)"
        inner = ", ".join(
            f"{name}={tag.value!r}" for name, tag in sorted(self._tags.items())
        )
        return f"{self.relation_name}: {inner}"

    def __repr__(self) -> str:
        return f"RelationTags({self.render()})"


class DatabaseTags:
    """Aggregate tags for a database and all of its relations."""

    def __init__(
        self,
        database_name: str,
        tags: Iterable[IndicatorValue] = (),
    ) -> None:
        if not database_name:
            raise TaggingError("database tags must name their database")
        self.database_name = database_name
        self.own = RelationTags(database_name, tags)
        self._relations: dict[str, RelationTags] = {}

    def relation(self, relation_name: str) -> RelationTags:
        """Tags for one relation (created empty on first access)."""
        if relation_name not in self._relations:
            self._relations[relation_name] = RelationTags(relation_name)
        return self._relations[relation_name]

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def __iter__(self) -> Iterator[RelationTags]:
        return iter(self._relations.values())

    def render(self) -> str:
        lines = [f"Database {self.database_name}: {self.own.as_dict()}"]
        for name in self.relation_names:
            lines.append("  " + self._relations[name].render())
        return "\n".join(lines)

    # -- filtering -------------------------------------------------------------

    def relations_where(
        self, indicator: str, predicate: Any
    ) -> list[str]:
        """Names of relations whose aggregate tag satisfies a condition.

        ``predicate`` is either a value (equality match) or a callable
        over the tag value.  Untagged relations never match.
        """
        matcher = predicate if callable(predicate) else (
            lambda value: value == predicate
        )
        hits = []
        for name in self.relation_names:
            tags = self._relations[name]
            if tags.has(indicator) and matcher(tags.value(indicator)):
                hits.append(name)
        return hits


#: Aggregate indicators the paper's footnote motivates, ready-made.
AGGREGATE_INDICATORS: dict[str, IndicatorDefinition] = {
    d.name: d
    for d in (
        IndicatorDefinition(
            "population_method",
            "STR",
            "how the table was populated (census, sample, purchase, feed)",
        ),
        IndicatorDefinition(
            "census_date", "DATE", "as-of date of the populating snapshot"
        ),
        IndicatorDefinition(
            "steward", "STR", "who is accountable for the table's data"
        ),
        IndicatorDefinition(
            "certification_status",
            "STR",
            "latest certification verdict for the table",
        ),
        IndicatorDefinition(
            "coverage_ratio",
            "FLOAT",
            "estimated fraction of the real-world population represented",
        ),
    )
}


def completeness_hint(tags: RelationTags) -> Optional[float]:
    """The footnote's example: estimate completeness from aggregate tags.

    Priority: an explicit ``coverage_ratio`` tag wins; otherwise the
    ``population_method`` maps through a coarse prior; otherwise None
    (no basis for a hint).
    """
    if tags.has("coverage_ratio"):
        value = tags.value("coverage_ratio")
        return min(max(float(value), 0.0), 1.0)
    method = tags.value("population_method")
    priors = {
        "full census": 0.99,
        "census": 0.99,
        "regulatory filing": 0.95,
        "feed": 0.9,
        "sample": 0.5,
        "purchase": 0.6,
        "purchased list": 0.6,
        "volunteer": 0.3,
    }
    if method is None:
        return None
    return priors.get(str(method).lower())
