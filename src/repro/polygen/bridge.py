"""Bridging the paper's two formal models: polygen → attribute-based.

The paper cites both the attribute-based cell-tagging model [28] and
the polygen source-tagging model [24][25] as the machinery behind its
quality indicators.  They meet here: a polygen relation's *originating*
source set is exactly the evidence behind the ``source`` quality
indicator, so federation query results can be materialized as tagged
relations and flow into the quality layer (filters, profiles,
assessment, QSQL).

Single-source cells map to a scalar ``source`` tag; multi-source
(corroborated) cells join the source names with ``+`` and record the
full sets as meta-tags (Premise 1.4: the tag about the tag), so no
provenance is lost in the conversion.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.polygen.model import PolygenCell, PolygenRelation
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.polygen.faults import FederationResult

#: The indicators the bridge emits.
BRIDGE_INDICATORS = (
    IndicatorDefinition(
        "source", "STR", "originating source(s), '+'-joined when corroborated"
    ),
    IndicatorDefinition(
        "intermediate_sources",
        "STR",
        "'+'-joined databases whose data influenced this value's selection",
    ),
)

#: Acquisition indicators emitted when materializing a fault-tolerant
#: :class:`~repro.polygen.faults.FederationResult` — how (and when) the
#: value was obtained, per Serra et al.'s context dimension.
ACQUISITION_INDICATORS = (
    IndicatorDefinition(
        "source_status",
        "STR",
        "acquisition outcome of the cell's source(s): "
        "ok | recovered | failed | circuit_open",
    ),
    IndicatorDefinition(
        "retrieved_at",
        "FLOAT",
        "wall-clock time (epoch seconds) the source answered",
    ),
)


def bridge_tag_schema(columns: list[str]) -> TagSchema:
    """A tag schema allowing the bridge indicators on ``columns``."""
    return TagSchema(
        indicators=list(BRIDGE_INDICATORS),
        allowed={
            column: ["source", "intermediate_sources"] for column in columns
        },
    )


def acquisition_tag_schema(columns: list[str]) -> TagSchema:
    """Bridge indicators plus the acquisition pair, on ``columns``."""
    names = [d.name for d in BRIDGE_INDICATORS + ACQUISITION_INDICATORS]
    return TagSchema(
        indicators=list(BRIDGE_INDICATORS + ACQUISITION_INDICATORS),
        allowed={column: list(names) for column in columns},
    )


def _source_tag(cell: PolygenCell) -> Optional[IndicatorValue]:
    if not cell.originating:
        return None
    joined = "+".join(sorted(cell.originating))
    return IndicatorValue(
        "source",
        joined,
        meta={"originating_count": len(cell.originating)},
    )


def _intermediate_tag(cell: PolygenCell) -> Optional[IndicatorValue]:
    if not cell.intermediate:
        return None
    return IndicatorValue(
        "intermediate_sources", "+".join(sorted(cell.intermediate))
    )


def polygen_to_tagged(relation: PolygenRelation) -> TaggedRelation:
    """Render a polygen relation as a source-tagged relation.

    >>> # tagged = polygen_to_tagged(federation.union_all("quotes"))
    >>> # QualityQuery(tagged).require("price", "source", "==", "reuters")...
    """
    columns = list(relation.schema.column_names)
    tagged = TaggedRelation(relation.schema, bridge_tag_schema(columns))
    for row in relation:
        cells: dict[str, QualityCell] = {}
        for column in columns:
            polygen_cell = row[column]
            tags = []
            source_tag = _source_tag(polygen_cell)
            if source_tag is not None:
                tags.append(source_tag)
            intermediate_tag = _intermediate_tag(polygen_cell)
            if intermediate_tag is not None:
                tags.append(intermediate_tag)
            cells[column] = QualityCell(polygen_cell.value, tags)
        tagged.insert(cells)
    return tagged


def federation_result_to_tagged(result: "FederationResult") -> TaggedRelation:
    """Render a fault-tolerant federation result as a tagged relation.

    Every cell carries the bridge provenance tags plus two acquisition
    indicators: ``source_status`` — the *worst* acquisition status among
    the cell's originating sources (``ok`` < ``recovered`` < ``failed``
    < ``circuit_open``; surviving cells normally see only the first
    two) — and ``retrieved_at``, the latest wall-clock time one of its
    sources answered.  Downstream quality filters can then exclude or
    down-weight data that was obtained the hard way, the paper's
    tag-and-filter vision applied to acquisition failure.
    """
    relation = result.relation
    if relation is None:
        raise ValueError("federation result holds no surviving relation")
    columns = list(relation.schema.column_names)
    tagged = TaggedRelation(relation.schema, acquisition_tag_schema(columns))
    # Per-origin-set memo: federation rows share a handful of source
    # sets, so status/timestamp resolution is computed once per set.
    memo: dict[frozenset, tuple[IndicatorValue, Optional[IndicatorValue]]] = {}
    for row in relation:
        cells: dict[str, QualityCell] = {}
        for column in columns:
            polygen_cell = row[column]
            tags = []
            source_tag = _source_tag(polygen_cell)
            if source_tag is not None:
                tags.append(source_tag)
            intermediate_tag = _intermediate_tag(polygen_cell)
            if intermediate_tag is not None:
                tags.append(intermediate_tag)
            origins = polygen_cell.originating
            cached = memo.get(origins)
            if cached is None:
                status_tag = IndicatorValue(
                    "source_status", result.status_for_sources(origins)
                )
                stamps = [
                    report.retrieved_at
                    for source, report in result.reports.items()
                    if source in origins and report.retrieved_at is not None
                ]
                retrieved_tag = (
                    IndicatorValue("retrieved_at", max(stamps))
                    if stamps
                    else None
                )
                cached = (status_tag, retrieved_tag)
                memo[origins] = cached
            tags.append(cached[0])
            if cached[1] is not None:
                tags.append(cached[1])
            cells[column] = QualityCell(polygen_cell.value, tags)
        tagged.insert(cells)
    return tagged


def tagged_to_polygen(relation: TaggedRelation) -> PolygenRelation:
    """Lift a source-tagged relation into the polygen model.

    The inverse direction: each cell's ``source`` tag (possibly
    ``+``-joined) becomes its originating set;
    ``intermediate_sources`` becomes the intermediate set.  Cells
    without a source tag get an empty originating set.
    """
    result = PolygenRelation(relation.schema)
    for row in relation:
        cells: dict[str, PolygenCell] = {}
        for column in relation.schema.column_names:
            cell = row[column]
            source_value = cell.tag_value("source")
            originating = (
                frozenset(str(source_value).split("+"))
                if source_value
                else frozenset()
            )
            intermediate_value = cell.tag_value("intermediate_sources")
            intermediate = (
                frozenset(str(intermediate_value).split("+"))
                if intermediate_value
                else frozenset()
            )
            cells[column] = PolygenCell(cell.value, originating, intermediate)
        result.insert(cells)
    return result
