"""Indicator → parameter value mappings and per-user quality standards.

§1.3: "User-defined functions may be used to map quality indicator
values to quality parameter values.  For example, because the source is
Wall Street Journal, an investor may conclude that data credibility is
high."

Premises 2.1/2.2/3 add that these mappings and the acceptability
thresholds built on them vary per user and per data.  This module
implements both layers:

- :class:`ParameterMapping` — a named function from a cell's indicator
  values (plus optional context such as the current date) to a
  parameter value;
- :class:`UserQualityStandard` — one user's collection of mappings plus
  acceptance predicates, evaluable over tagged relations.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import AssessmentError, MethodologyError
from repro.tagging.cell import QualityCell
from repro.tagging.relation import TaggedRelation

#: Signature of a mapping function: (indicator values, context) → value.
MappingFunction = Callable[[Mapping[str, Any], Mapping[str, Any]], Any]


class ParameterMapping:
    """A user-defined function deriving one parameter value from tags.

    Parameters
    ----------
    parameter:
        Name of the quality parameter being derived.
    func:
        ``func(tags, context)`` where ``tags`` maps indicator name →
        tag value for one cell, and ``context`` supplies environment
        values (e.g. ``{"today": date(...)}``).  May return any value
        (bool, float score, label); returning None means "cannot
        determine" (e.g. required tags missing).
    uses:
        Indicator names the function reads — documented so the
        specification can check the mapping is satisfiable under the
        quality schema.
    doc:
        Human-readable statement of the rule.
    """

    def __init__(
        self,
        parameter: str,
        func: MappingFunction,
        uses: Sequence[str] = (),
        doc: str = "",
    ) -> None:
        if not parameter:
            raise MethodologyError("parameter mapping must name its parameter")
        self.parameter = parameter
        self.func = func
        self.uses = tuple(uses)
        self.doc = doc

    def evaluate(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Derive the parameter value for one cell (None if undetermined)."""
        return self.func(cell.tags_dict(), dict(context or {}))

    def describe(self) -> str:
        uses = f" (uses: {', '.join(self.uses)})" if self.uses else ""
        return f"{self.parameter}{uses}: {self.doc or '(no description)'}"

    def __repr__(self) -> str:
        return f"ParameterMapping({self.parameter!r})"


class UserQualityStandard:
    """One user's quality definitions and acceptance thresholds.

    Premise 2.2's example: an investor considers a ten-minute delay
    timely; a real-time trader does not.  Both users share indicator
    *tags*; they differ in mappings and acceptance predicates.

    Parameters
    ----------
    user:
        The user's name (for reports).
    mappings:
        The user's parameter mappings.
    acceptance:
        Maps parameter name → predicate over the derived parameter
        value; a cell is acceptable when every listed parameter's
        derived value passes its predicate.  A derived value of None
        (undetermined) fails acceptance — unknown quality is treated
        conservatively.
    """

    def __init__(
        self,
        user: str,
        mappings: Iterable[ParameterMapping] = (),
        acceptance: Optional[Mapping[str, Callable[[Any], bool]]] = None,
    ) -> None:
        if not user:
            raise MethodologyError("quality standard must name its user")
        self.user = user
        self._mappings: dict[str, ParameterMapping] = {}
        for mapping in mappings:
            self.add_mapping(mapping)
        self._acceptance: dict[str, Callable[[Any], bool]] = dict(acceptance or {})
        unknown = set(self._acceptance) - set(self._mappings)
        if unknown:
            raise MethodologyError(
                f"acceptance thresholds for unmapped parameters: {sorted(unknown)}"
            )

    # -- construction ---------------------------------------------------------

    def add_mapping(self, mapping: ParameterMapping) -> None:
        """Register a mapping (one per parameter)."""
        if mapping.parameter in self._mappings:
            raise MethodologyError(
                f"user {self.user!r} already maps parameter "
                f"{mapping.parameter!r}"
            )
        self._mappings[mapping.parameter] = mapping

    def set_acceptance(
        self, parameter: str, predicate: Callable[[Any], bool]
    ) -> None:
        """Set the acceptance predicate for one mapped parameter."""
        if parameter not in self._mappings:
            raise MethodologyError(
                f"user {self.user!r} has no mapping for parameter {parameter!r}"
            )
        self._acceptance[parameter] = predicate

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(sorted(self._mappings))

    def mapping(self, parameter: str) -> ParameterMapping:
        """Look up the mapping for one parameter."""
        try:
            return self._mappings[parameter]
        except KeyError:
            raise AssessmentError(
                f"user {self.user!r} defines no mapping for {parameter!r}"
            ) from None

    # -- evaluation -----------------------------------------------------------------

    def evaluate_cell(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> dict[str, Any]:
        """Derive every mapped parameter's value for one cell."""
        return {
            name: mapping.evaluate(cell, context)
            for name, mapping in self._mappings.items()
        }

    def accepts_cell(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """True if the cell passes every acceptance predicate."""
        for parameter, predicate in self._acceptance.items():
            value = self._mappings[parameter].evaluate(cell, context)
            if value is None or not predicate(value):
                return False
        return True

    def acceptance_rate(
        self,
        relation: TaggedRelation,
        column: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """Fraction of ``column`` cells this user accepts (0 if empty)."""
        relation.schema.column(column)
        if not len(relation):
            return 0.0
        accepted = sum(
            1 for row in relation if self.accepts_cell(row[column], context)
        )
        return accepted / len(relation)

    def filter_relation(
        self,
        relation: TaggedRelation,
        column: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> TaggedRelation:
        """Rows whose ``column`` cell this user accepts."""
        from repro.tagging import algebra

        relation.schema.column(column)
        return algebra.select(
            relation, lambda row: self.accepts_cell(row[column], context)
        )

    def __repr__(self) -> str:
        return (
            f"UserQualityStandard({self.user!r}, "
            f"parameters={list(self.parameters)})"
        )


def compare_standards(
    standards: Sequence[UserQualityStandard],
    relation: TaggedRelation,
    column: str,
    context: Optional[Mapping[str, Any]] = None,
) -> dict[str, float]:
    """Acceptance-rate matrix across users (Premises 2.1/2.2 made visible).

    Returns ``{user: acceptance_rate}`` over the same data — different
    users accept different fractions because their standards differ.
    """
    return {
        standard.user: standard.acceptance_rate(relation, column, context)
        for standard in standards
    }


# ---------------------------------------------------------------------------
# Ready-made mapping builders for the paper's worked examples
# ---------------------------------------------------------------------------


def credibility_from_source(
    ratings: Mapping[str, float], default: Optional[float] = None
) -> ParameterMapping:
    """Credibility derived from the ``source`` tag via a rating table.

    The paper's example: source = Wall Street Journal ⇒ credibility high.
    """

    def func(tags: Mapping[str, Any], _context: Mapping[str, Any]) -> Optional[float]:
        source = tags.get("source")
        if source is None:
            return default
        return ratings.get(source, default)

    return ParameterMapping(
        "credibility",
        func,
        uses=("source",),
        doc="rating table over the source indicator",
    )


def timeliness_from_age(max_age_days: float) -> ParameterMapping:
    """Timeliness as a boolean: the ``age`` tag must not exceed a bound."""

    def func(tags: Mapping[str, Any], _context: Mapping[str, Any]) -> Optional[bool]:
        age = tags.get("age")
        if age is None:
            return None
        return age <= max_age_days

    return ParameterMapping(
        "timeliness",
        func,
        uses=("age",),
        doc=f"data no older than {max_age_days} days is timely",
    )


def timeliness_from_creation_time(max_age_days: float) -> ParameterMapping:
    """Timeliness from ``creation_time`` and a ``today`` context value.

    Demonstrates the integration result that age is derivable: the
    mapping computes age = today − creation_time on the fly.
    """

    def func(tags: Mapping[str, Any], context: Mapping[str, Any]) -> Optional[bool]:
        created = tags.get("creation_time")
        today = context.get("today")
        if created is None or today is None:
            return None
        return (today - created).days <= max_age_days

    return ParameterMapping(
        "timeliness",
        func,
        uses=("creation_time",),
        doc=(
            f"data created within the last {max_age_days} days is timely "
            f"(age derived from creation_time and today)"
        ),
    )
