"""Meta-quality indicators: "what is the quality of the quality tags?"

Premise 1.4 raises the recursive question and defers the machinery to
the attribute-based model [28], where the same tagging mechanism applied
to application data is applied to quality indicators.  Here we implement
that one level of recursion: each
:class:`~repro.tagging.indicators.IndicatorValue` can carry ``meta``
tags (who recorded the tag, when, with what confidence), and this module
provides the helpers to stamp, query, and audit them.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue
from repro.tagging.relation import TaggedRelation, TaggedRow


def stamp_meta(
    tag: IndicatorValue,
    recorded_by: Optional[str] = None,
    recorded_on: Optional[Any] = None,
    confidence: Optional[float] = None,
    **extra: Any,
) -> IndicatorValue:
    """Return a copy of ``tag`` with standard meta-tags added.

    Standard meta keys: ``recorded_by`` (actor that wrote the tag),
    ``recorded_on`` (when), ``confidence`` (0..1 belief in the tag's
    correctness).  Extra keyword arguments become additional meta keys.

    >>> tag = IndicatorValue("source", "acct'g")
    >>> stamped = stamp_meta(tag, recorded_by="etl-job-7", confidence=0.9)
    >>> stamped.meta_dict()["recorded_by"]
    'etl-job-7'
    """
    meta = tag.meta_dict()
    if recorded_by is not None:
        meta["recorded_by"] = recorded_by
    if recorded_on is not None:
        meta["recorded_on"] = recorded_on
    if confidence is not None:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        meta["confidence"] = confidence
    meta.update(extra)
    return IndicatorValue(tag.name, tag.value, meta=meta)


def meta_value(
    cell: QualityCell, indicator: str, meta_key: str, default: Any = None
) -> Any:
    """Read one meta-tag of one indicator on a cell."""
    if not cell.has_tag(indicator):
        return default
    return cell.tag(indicator).meta_dict().get(meta_key, default)


def tags_with_meta(
    relation: TaggedRelation, meta_key: str
) -> Iterator[tuple[TaggedRow, str, IndicatorValue]]:
    """Yield (row, column, tag) for every tag carrying ``meta_key``."""
    for row in relation:
        for column in relation.schema.column_names:
            for tag in row[column].tags:
                if meta_key in tag.meta_dict():
                    yield row, column, tag


def min_confidence_filter(
    relation: TaggedRelation,
    column: str,
    indicator: str,
    threshold: float,
    missing_ok: bool = False,
) -> TaggedRelation:
    """Keep rows whose tag confidence meets ``threshold``.

    A second-order quality filter: it does not test the indicator's
    value but the *meta*-quality of the tag itself.
    """
    from repro.tagging import algebra

    def predicate(row: TaggedRow) -> bool:
        confidence = meta_value(row[column], indicator, "confidence")
        if confidence is None:
            return missing_ok
        return confidence >= threshold

    return algebra.select(relation, predicate)


def meta_coverage(relation: TaggedRelation, meta_key: str) -> float:
    """Fraction of tags (across all cells) carrying ``meta_key``."""
    total = 0
    covered = 0
    for row in relation:
        for cell in row.cells:
            for tag in cell.tags:
                total += 1
                if meta_key in tag.meta_dict():
                    covered += 1
    return covered / total if total else 0.0


def audit_tag_provenance(
    relation: TaggedRelation,
) -> list[dict[str, Any]]:
    """Summarize who recorded each indicator's tags, per column.

    Returns a list of ``{column, indicator, recorded_by, count}`` rows —
    the administrator's view of the tagging process itself.
    """
    counts: dict[tuple[str, str, Any], int] = {}
    for row in relation:
        for column in relation.schema.column_names:
            for tag in row[column].tags:
                actor = tag.meta_dict().get("recorded_by", "(unknown)")
                key = (column, tag.name, actor)
                counts[key] = counts.get(key, 0) + 1
    return [
        {
            "column": column,
            "indicator": indicator,
            "recorded_by": actor,
            "count": count,
        }
        for (column, indicator, actor), count in sorted(counts.items(), key=repr)
    ]
