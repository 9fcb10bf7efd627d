"""The manufacturing pipeline: world → source → collection → tagged data.

This is where the simulation meets the paper's model: every
manufactured cell is tagged with the quality indicators Table 2 shows
(``source``, ``creation_time``) plus ``collection_method``, and every
processing step is recorded on the electronic trail so the
administrator can trace an erred datum end to end (§4).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ManufacturingError
from repro.manufacturing.collection import CollectionMethod
from repro.manufacturing.sources import DataSource
from repro.manufacturing.world import World
from repro.quality.audit import ElectronicTrail
from repro.relational.schema import RelationSchema
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation

#: The indicators the pipeline stamps on every manufactured cell.
PIPELINE_INDICATORS: tuple[IndicatorDefinition, ...] = (
    IndicatorDefinition("source", "STR", "which source supplied the value"),
    IndicatorDefinition("creation_time", "DATE", "world day the value reflects"),
    IndicatorDefinition("collection_method", "STR", "capture mechanism used"),
)


@dataclass(frozen=True)
class Route:
    """How one attribute is manufactured: which source, which method."""

    attribute: str
    source: DataSource
    method: CollectionMethod


@dataclass(frozen=True)
class ManufacturedCell:
    """Bookkeeping for one manufactured cell (feeds defect statistics)."""

    key: Any
    attribute: str
    value: Any
    true_value: Any
    source: str
    method: str
    observed_day: _dt.date
    erroneous: bool
    missing: bool


def pipeline_tag_schema(
    value_columns: Sequence[str],
    extra_indicators: Sequence[IndicatorDefinition] = (),
) -> TagSchema:
    """A tag schema allowing the pipeline indicators on the given columns."""
    indicators = list(PIPELINE_INDICATORS) + list(extra_indicators)
    names = [d.name for d in PIPELINE_INDICATORS]
    return TagSchema(
        indicators=indicators,
        allowed={column: list(names) for column in value_columns},
    )


class ManufacturingPipeline:
    """Manufactures a tagged relation from the simulated world.

    Parameters
    ----------
    world:
        The ground-truth world.
    schema:
        Output relation schema.  Must contain ``key_column`` plus the
        routed attributes.
    key_column:
        Column holding the entity key (tagged-exempt: keys are
        identifiers, not manufactured observations).
    trail:
        Electronic trail to record events on (fresh one if omitted).
    """

    def __init__(
        self,
        world: World,
        schema: RelationSchema,
        key_column: str,
        trail: Optional[ElectronicTrail] = None,
    ) -> None:
        schema.column(key_column)
        self.world = world
        self.schema = schema
        self.key_column = key_column
        self.trail = trail or ElectronicTrail()
        self._routes: dict[str, Route] = {}
        self.manufactured: list[ManufacturedCell] = []

    # -- routing ------------------------------------------------------------

    def assign(
        self, attribute: str, source: DataSource, method: CollectionMethod
    ) -> Route:
        """Route one attribute through a source and collection method."""
        self.schema.column(attribute)
        if attribute == self.key_column:
            raise ManufacturingError("the key column is not manufactured")
        route = Route(attribute, source, method)
        self._routes[attribute] = route
        return route

    @property
    def routes(self) -> dict[str, Route]:
        return dict(self._routes)

    # -- manufacturing ------------------------------------------------------------

    def _manufacture_cell(
        self, key: Any, route: Route, report_day: _dt.date
    ) -> tuple[QualityCell, ManufacturedCell]:
        observation = route.source.observe(key, route.attribute, report_day)
        self.trail.record(
            "collected",
            self.schema.name,
            (key,),
            actor=route.source.name,
            attribute=route.attribute,
            value=observation.value,
            observed_day=str(observation.observed_day),
        )
        captured, transcription_error = route.method.capture(observation.value)
        self.trail.record(
            "captured",
            self.schema.name,
            (key,),
            actor=route.method.name,
            attribute=route.attribute,
            value=captured,
            corrupted=transcription_error,
        )
        true_now = self.world.value_as_of(key, route.attribute, report_day)
        record = ManufacturedCell(
            key=key,
            attribute=route.attribute,
            value=captured,
            true_value=true_now,
            source=route.source.name,
            method=route.method.name,
            observed_day=observation.observed_day,
            erroneous=(captured != true_now and captured is not None),
            missing=captured is None,
        )
        cell = QualityCell(
            captured,
            [
                IndicatorValue("source", route.source.name),
                IndicatorValue("creation_time", observation.observed_day),
                IndicatorValue("collection_method", route.method.name),
            ],
        )
        return cell, record

    def manufacture(
        self,
        keys: Optional[Sequence[Any]] = None,
        report_day: Optional[_dt.date] = None,
        extra_indicators: Sequence[IndicatorDefinition] = (),
    ) -> TaggedRelation:
        """Manufacture one tagged relation snapshot.

        Each routed attribute of each entity is observed, captured, and
        tagged; unrouted non-key columns are left NULL and untagged.
        """
        if not self._routes:
            raise ManufacturingError("no attributes routed; call assign() first")
        report = report_day or self.world.today
        value_columns = [
            c for c in self.schema.column_names if c != self.key_column
        ]
        relation = TaggedRelation(
            self.schema, pipeline_tag_schema(value_columns, extra_indicators)
        )
        for key in keys if keys is not None else self.world.keys:
            cells: dict[str, Any] = {self.key_column: key}
            for attribute in value_columns:
                route = self._routes.get(attribute)
                if route is None:
                    cells[attribute] = None
                    continue
                cell, record = self._manufacture_cell(key, route, report)
                cells[attribute] = cell
                self.manufactured.append(record)
            relation.insert(cells)
            self.trail.record(
                "inserted",
                self.schema.name,
                (key,),
                actor="pipeline",
                report_day=str(report),
            )
        return relation

    # -- statistics for SPC -----------------------------------------------------------

    def defect_counts_by_batch(
        self, batch_size: int
    ) -> tuple[list[int], list[int]]:
        """Group manufactured cells into batches; count defects per batch.

        A defect is a manufactured cell whose value differs from the
        current truth (error or staleness) or is missing.  Returns
        (defect_counts, sample_sizes) ready for
        :func:`repro.quality.spc.p_chart`.
        """
        if batch_size <= 0:
            raise ManufacturingError("batch_size must be positive")
        counts: list[int] = []
        sizes: list[int] = []
        for start in range(0, len(self.manufactured), batch_size):
            batch = self.manufactured[start : start + batch_size]
            counts.append(
                sum(1 for cell in batch if cell.erroneous or cell.missing)
            )
            sizes.append(len(batch))
        if sizes and sizes[-1] < batch_size:
            # Drop the ragged tail so control limits stay comparable.
            counts.pop()
            sizes.pop()
        return counts, sizes

    def defect_counts_by_method(self) -> dict[str, tuple[int, int]]:
        """Per collection method: (defects, cells manufactured)."""
        stats: dict[str, list[int]] = {}
        for cell in self.manufactured:
            entry = stats.setdefault(cell.method, [0, 0])
            entry[1] += 1
            if cell.erroneous or cell.missing:
                entry[0] += 1
        return {method: (d, n) for method, (d, n) in stats.items()}
