"""Quality assessment: aggregating dimension metrics into profiles.

An assessment walks a tagged relation and computes, per column, the
dimensions that are computable from its tags and values: completeness
(from NULLs), currency/timeliness (from ``creation_time`` or ``age``
tags), tag coverage (how well the quality requirements are being met),
and — when a ground truth is supplied — accuracy.  The output feeds the
administrator's reports and the Premise 1.3 heterogeneity analyses.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.quality.dimensions import (
    accuracy_against,
    age_in_days,
    completeness,
    currency_score,
)
from repro.tagging.relation import TaggedRelation


@dataclass
class ColumnAssessment:
    """Computed quality dimensions for one column."""

    column: str
    completeness: float
    tag_coverage: dict[str, float] = field(default_factory=dict)
    mean_age_days: Optional[float] = None
    mean_currency: Optional[float] = None
    accuracy: Optional[float] = None

    def summary(self) -> str:
        parts = [f"completeness={self.completeness:.3f}"]
        if self.mean_age_days is not None:
            parts.append(f"mean_age={self.mean_age_days:.1f}d")
        if self.mean_currency is not None:
            parts.append(f"currency={self.mean_currency:.3f}")
        if self.accuracy is not None:
            parts.append(f"accuracy={self.accuracy:.3f}")
        for indicator, coverage in sorted(self.tag_coverage.items()):
            parts.append(f"tagged[{indicator}]={coverage:.2f}")
        return f"{self.column}: " + ", ".join(parts)


@dataclass
class QualityAssessment:
    """A full assessment of one tagged relation."""

    relation_name: str
    row_count: int
    columns: dict[str, ColumnAssessment]

    def column(self, name: str) -> ColumnAssessment:
        return self.columns[name]

    def overall_completeness(self) -> float:
        if not self.columns:
            return 1.0
        return sum(c.completeness for c in self.columns.values()) / len(self.columns)

    def render(self) -> str:
        lines = [
            f"Quality assessment: {self.relation_name} ({self.row_count} rows)"
        ]
        for name in sorted(self.columns):
            lines.append("  " + self.columns[name].summary())
        return "\n".join(lines)


def _mean(values: list[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def assess(
    relation: TaggedRelation,
    today: Optional[_dt.date | _dt.datetime] = None,
    shelf_life_days: float = 365.0,
    truth: Optional[Mapping[Any, Mapping[str, Any]]] = None,
    key_column: Optional[str] = None,
    tolerance: float = 0.0,
) -> QualityAssessment:
    """Assess a tagged relation's quality, column by column.

    Parameters
    ----------
    today:
        Reference date for age/currency (required for those metrics to
        be computed; without it they are left None).
    shelf_life_days:
        Volatility model for currency scoring.
    truth, key_column, tolerance:
        Optional ground truth for accuracy scoring (see
        :func:`repro.quality.dimensions.accuracy_against`).
    """
    accuracy: dict[str, float] = {}
    if truth is not None and key_column is not None:
        accuracy = accuracy_against(
            relation, truth, key_column, tolerance=tolerance
        )

    columns: dict[str, ColumnAssessment] = {}
    for name in relation.schema.column_names:
        coverage: dict[str, float] = {}
        for indicator in relation.tag_schema.allowed_for(name):
            coverage[indicator] = relation.tag_coverage(name, indicator)

        ages: list[float] = []
        currencies: list[float] = []
        if today is not None:
            for row in relation:
                cell = row[name]
                created = cell.tag_value("creation_time")
                if created is not None:
                    ages.append(age_in_days(created, today))
                    currencies.append(
                        currency_score(created, today, shelf_life_days)
                    )
                elif cell.has_tag("age"):
                    age = cell.tag_value("age")
                    ages.append(float(age))
                    currencies.append(max(0.0, 1.0 - age / shelf_life_days))

        columns[name] = ColumnAssessment(
            column=name,
            completeness=completeness(relation, [name]),
            tag_coverage=coverage,
            mean_age_days=_mean(ages),
            mean_currency=_mean(currencies),
            accuracy=accuracy.get(name),
        )
    return QualityAssessment(
        relation_name=relation.schema.name,
        row_count=len(relation),
        columns=columns,
    )


def assess_many(
    relations: Mapping[str, TaggedRelation],
    **kwargs: Any,
) -> dict[str, QualityAssessment]:
    """Assess several relations (e.g. a whole database) uniformly."""
    return {name: assess(rel, **kwargs) for name, rel in relations.items()}
