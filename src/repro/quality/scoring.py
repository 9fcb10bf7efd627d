"""Deriving parameter values and overall data quality scores.

§4 closes with: "The derivation and estimation of quality parameter
values and overall data quality from underlying indicator values
remains an area for further investigation."  This module is that
investigation, built from the paper's own ingredients:

- a :class:`ParameterScorer` derives a *numeric* parameter score in
  [0, 1] for one cell from its indicator values (generalizing the
  boolean mappings of :mod:`repro.core.mapping`);
- a :class:`QualityScorecard` combines several scorers with weights
  into a per-cell composite, then rolls scores up the hierarchy of
  Premise 1.3: cell → column → relation → database;
- rollups carry *coverage* (what fraction of cells were scorable) so an
  impressive average over three scorable cells cannot masquerade as
  database quality.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.errors import AssessmentError
from repro.tagging.cell import QualityCell
from repro.tagging.relation import TaggedRelation

#: A scoring function: (indicator values, context) → score in [0, 1],
#: or None when the cell is not scorable (missing tags).
ScoringFunction = Callable[[Mapping[str, Any], Mapping[str, Any]], Optional[float]]


class ParameterScorer:
    """Derives one parameter's numeric score from a cell's tags.

    Parameters
    ----------
    parameter:
        The quality parameter being scored (e.g. ``"timeliness"``).
    func:
        The scoring function; its return value is clamped to [0, 1].
    uses:
        Indicator names read, for satisfiability documentation.
    doc:
        Human-readable description of the scoring rule.
    """

    def __init__(
        self,
        parameter: str,
        func: ScoringFunction,
        uses: Sequence[str] = (),
        doc: str = "",
    ) -> None:
        if not parameter:
            raise AssessmentError("scorer must name its parameter")
        self.parameter = parameter
        self.func = func
        self.uses = tuple(uses)
        self.doc = doc

    def score(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Optional[float]:
        """Score one cell; None when not scorable."""
        raw = self.func(cell.tags_dict(), dict(context or {}))
        if raw is None:
            return None
        return min(max(float(raw), 0.0), 1.0)

    def __repr__(self) -> str:
        return f"ParameterScorer({self.parameter!r})"


# ---------------------------------------------------------------------------
# Ready-made scorers for the paper's standard indicators
# ---------------------------------------------------------------------------


def timeliness_scorer(shelf_life_days: float) -> ParameterScorer:
    """Timeliness as linear currency decay over creation_time or age."""
    if shelf_life_days <= 0:
        raise AssessmentError("shelf_life_days must be positive")

    def func(tags: Mapping[str, Any], context: Mapping[str, Any]) -> Optional[float]:
        age: Optional[float] = None
        if "age" in tags and tags["age"] is not None:
            try:
                age = float(tags["age"])
            except (TypeError, ValueError):
                # A malformed age tag makes the cell unscorable, not a
                # crash: acquisition feeds do ship junk values.
                return None
        elif "creation_time" in tags and tags["creation_time"] is not None:
            today = context.get("today")
            if today is None:
                return None
            created = tags["creation_time"]
            if isinstance(created, _dt.datetime):
                created = created.date()
            if isinstance(today, _dt.datetime):
                today = today.date()
            try:
                age = (today - created).days
            except TypeError:
                return None
        if age is None:
            return None
        # A future-dated creation_time (clock skew between sources)
        # yields a negative age; clamp both ends of the [0, 1] contract.
        return min(1.0, max(0.0, 1.0 - age / shelf_life_days))

    return ParameterScorer(
        "timeliness",
        func,
        uses=("age", "creation_time"),
        doc=f"linear decay over a {shelf_life_days}-day shelf life",
    )


def _check_ratings(name: str, ratings: Mapping[str, float],
                   default: Optional[float]) -> None:
    """Ratings and the default must honor the [0, 1] score contract."""
    for key, rating in ratings.items():
        if not 0.0 <= float(rating) <= 1.0:
            raise AssessmentError(
                f"{name} rating for {key!r} must be in [0, 1], "
                f"got {rating!r}"
            )
    if default is not None and not 0.0 <= float(default) <= 1.0:
        raise AssessmentError(
            f"{name} default must be in [0, 1], got {default!r}"
        )


def credibility_scorer(
    source_ratings: Mapping[str, float],
    default: Optional[float] = None,
) -> ParameterScorer:
    """Credibility from a source-rating table (the WSJ example)."""
    _check_ratings("source", source_ratings, default)

    def func(tags: Mapping[str, Any], _context: Mapping[str, Any]) -> Optional[float]:
        source = tags.get("source")
        if source is None:
            return default
        return source_ratings.get(source, default)

    return ParameterScorer(
        "credibility",
        func,
        uses=("source",),
        doc="rating table over the source indicator",
    )


def collection_accuracy_scorer(
    method_ratings: Mapping[str, float],
    default: Optional[float] = None,
) -> ParameterScorer:
    """Expected accuracy from the collection_method indicator.

    §3.3: "different means of capturing data ... each has inherent
    accuracy implications."  The ratings would come from device
    error-rate studies (1 − error rate).
    """
    _check_ratings("collection method", method_ratings, default)

    def func(tags: Mapping[str, Any], _context: Mapping[str, Any]) -> Optional[float]:
        method = tags.get("collection_method")
        if method is None:
            return default
        return method_ratings.get(method, default)

    return ParameterScorer(
        "accuracy",
        func,
        uses=("collection_method",),
        doc="device-level expected accuracy (1 - error rate)",
    )


def inspection_scorer(certified_value: str = "certified") -> ParameterScorer:
    """Reliability evidence: 1.0 when inspected/certified, 0.5 otherwise."""

    def func(tags: Mapping[str, Any], _context: Mapping[str, Any]) -> Optional[float]:
        inspection = tags.get("inspection")
        if inspection is None:
            return 0.5
        return 1.0 if inspection == certified_value else 0.75

    return ParameterScorer(
        "reliability",
        func,
        uses=("inspection",),
        doc="inspection status as reliability evidence",
    )


# ---------------------------------------------------------------------------
# Rollups
# ---------------------------------------------------------------------------


@dataclass
class ScoreRollup:
    """A score aggregated over some population of cells.

    ``score`` is the mean over scorable cells (None when none were
    scorable); ``coverage`` is the scorable fraction.
    """

    score: Optional[float]
    coverage: float
    scorable: int
    total: int

    def summary(self) -> str:
        score_text = "n/a" if self.score is None else f"{self.score:.3f}"
        return (
            f"score={score_text} coverage={self.coverage:.2f} "
            f"({self.scorable}/{self.total} cells)"
        )


@dataclass
class ColumnScore:
    """Per-parameter and composite rollups for one column."""

    column: str
    parameters: dict[str, ScoreRollup]
    composite: ScoreRollup


@dataclass
class RelationScore:
    """Column scores plus the relation-level composite."""

    relation: str
    columns: dict[str, ColumnScore]
    composite: ScoreRollup

    def render(self) -> str:
        lines = [
            f"Data quality scorecard: {self.relation} "
            f"[{self.composite.summary()}]"
        ]
        for name in sorted(self.columns):
            column = self.columns[name]
            lines.append(f"  {name}: {column.composite.summary()}")
            for parameter in sorted(column.parameters):
                lines.append(
                    f"    {parameter}: "
                    f"{column.parameters[parameter].summary()}"
                )
        return "\n".join(lines)


def _rollup(scores: list[Optional[float]]) -> ScoreRollup:
    present = [s for s in scores if s is not None]
    return ScoreRollup(
        score=sum(present) / len(present) if present else None,
        coverage=len(present) / len(scores) if scores else 0.0,
        scorable=len(present),
        total=len(scores),
    )


class QualityScorecard:
    """Weighted multi-parameter scoring with hierarchical rollups.

    Parameters
    ----------
    scorers:
        The parameter scorers to apply.
    weights:
        Optional per-parameter weights for the composite (default:
        equal).  Weights are renormalized over the parameters actually
        scorable for each cell, so unscorable parameters don't silently
        zero the composite.
    """

    def __init__(
        self,
        scorers: Sequence[ParameterScorer],
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not scorers:
            raise AssessmentError("scorecard requires at least one scorer")
        names = [s.parameter for s in scorers]
        if len(set(names)) != len(names):
            raise AssessmentError(f"duplicate scorers: {names}")
        self.scorers = tuple(scorers)
        self.weights = dict(weights or {})
        unknown = set(self.weights) - set(names)
        if unknown:
            raise AssessmentError(
                f"weights for unknown parameters: {sorted(unknown)}"
            )
        for parameter, weight in self.weights.items():
            if weight < 0:
                raise AssessmentError(
                    f"negative weight for {parameter!r}"
                )

    def _weight(self, parameter: str) -> float:
        return self.weights.get(parameter, 1.0)

    # -- cell level -----------------------------------------------------------

    def score_cell(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> dict[str, Optional[float]]:
        """Per-parameter scores for one cell."""
        return {
            scorer.parameter: scorer.score(cell, context)
            for scorer in self.scorers
        }

    def composite_cell(
        self,
        cell: QualityCell,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Optional[float]:
        """Weighted composite over the scorable parameters (None if none)."""
        scores = self.score_cell(cell, context)
        weighted_sum = 0.0
        weight_sum = 0.0
        for parameter, score in scores.items():
            if score is None:
                continue
            weight = self._weight(parameter)
            weighted_sum += weight * score
            weight_sum += weight
        if weight_sum == 0.0:
            return None
        return weighted_sum / weight_sum

    # -- column / relation level --------------------------------------------------

    def score_column(
        self,
        relation: TaggedRelation,
        column: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> ColumnScore:
        """Rollups for one column of a tagged relation."""
        relation.schema.column(column)
        per_parameter: dict[str, list[Optional[float]]] = {
            scorer.parameter: [] for scorer in self.scorers
        }
        composites: list[Optional[float]] = []
        for row in relation:
            cell = row[column]
            for parameter, score in self.score_cell(cell, context).items():
                per_parameter[parameter].append(score)
            composites.append(self.composite_cell(cell, context))
        return ColumnScore(
            column=column,
            parameters={
                parameter: _rollup(scores)
                for parameter, scores in per_parameter.items()
            },
            composite=_rollup(composites),
        )

    def score_relation(
        self,
        relation: TaggedRelation,
        columns: Optional[Sequence[str]] = None,
        context: Optional[Mapping[str, Any]] = None,
    ) -> RelationScore:
        """Rollups for a whole relation (tagged columns by default)."""
        names = (
            list(columns)
            if columns is not None
            else list(relation.tag_schema.tagged_columns)
        )
        if not names:
            names = list(relation.schema.column_names)
        column_scores = {
            name: self.score_column(relation, name, context) for name in names
        }
        all_composites: list[Optional[float]] = []
        for row in relation:
            for name in names:
                all_composites.append(
                    self.composite_cell(row[name], context)
                )
        return RelationScore(
            relation=relation.schema.name,
            columns=column_scores,
            composite=_rollup(all_composites),
        )

    def score_database(
        self,
        relations: Mapping[str, TaggedRelation],
        context: Optional[Mapping[str, Any]] = None,
    ) -> dict[str, Any]:
        """Database-level rollup: per-relation scorecards + overall.

        Returns ``{"relations": {name: RelationScore}, "overall":
        ScoreRollup}`` — the top of Premise 1.3's hierarchy.
        """
        relation_scores = {
            name: self.score_relation(relation, context=context)
            for name, relation in relations.items()
        }
        all_cell_scores: list[Optional[float]] = []
        for name, relation in relations.items():
            columns = relation_scores[name].columns
            for row in relation:
                for column in columns:
                    all_cell_scores.append(
                        self.composite_cell(row[column], context)
                    )
        return {
            "relations": relation_scores,
            "overall": _rollup(all_cell_scores),
        }
