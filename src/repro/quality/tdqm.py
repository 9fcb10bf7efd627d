"""The TDQM improvement cycle: define → measure → analyze → improve.

§4 situates the paper inside a larger program: "improvement of data
quality through process and systems redesign and organizational
commitment to data quality [13][27]" — [27] being Wang & Kon's *Towards
Total Data Quality Management*.  This module implements that cycle over
the library's pieces:

- **define** — the quality requirements come from the integrated
  :class:`~repro.core.views.QualitySchema` (the methodology's output);
- **measure** — requirement conformance
  (:class:`~repro.quality.admin.DataQualityAdministrator`) plus numeric
  scoring (:class:`~repro.quality.scoring.QualityScorecard`);
- **analyze** — rank deficits by column and attribute the defect mass
  to manufacturing routes (source/method), producing
  :class:`ImprovementAction` proposals;
- **improve** — apply accepted actions to the
  :class:`~repro.manufacturing.pipeline.ManufacturingPipeline`
  (re-route an attribute through a better source or device) and
  optionally allocate an inspection budget
  (:mod:`repro.quality.allocation`).

Because the substrate is the simulator, a cycle's effect is
*measurable*: re-manufacture, re-measure, and the scores move.  The
integration test and the ``tdqm_cycle`` example demonstrate exactly
that loop.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from typing import TYPE_CHECKING

from repro.core.views import QualitySchema
from repro.errors import QualityError
from repro.quality.admin import AdminReport, DataQualityAdministrator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # quality.__init__ re-exports TDQMCycle while manufacturing.pipeline
    # imports quality.audit; keep the manufacturing imports lazy.
    from repro.manufacturing.collection import CollectionMethod
    from repro.manufacturing.pipeline import ManufacturingPipeline
    from repro.manufacturing.sources import DataSource
from repro.quality.allocation import Allocation, allocate_budget, profiles_from_monitoring
from repro.quality.scoring import QualityScorecard, RelationScore
from repro.tagging.relation import TaggedRelation


@dataclass
class Measurement:
    """One measure-phase output."""

    cycle: int
    admin_report: AdminReport
    scores: RelationScore

    @property
    def overall_score(self) -> Optional[float]:
        return self.scores.composite.score

    def summary(self) -> str:
        score = self.overall_score
        score_text = "n/a" if score is None else f"{score:.3f}"
        return (
            f"cycle {self.cycle}: conformance="
            f"{'PASS' if self.admin_report.conforms else 'FAIL'}, "
            f"overall score={score_text}"
        )


@dataclass(frozen=True)
class ImprovementAction:
    """One proposed process change.

    ``kind`` is ``"replace_method"`` or ``"replace_source"``;
    ``attribute`` names the routed attribute; ``reason`` documents the
    analysis that motivated the proposal.
    """

    kind: str
    attribute: str
    reason: str
    current: str = ""

    def describe(self) -> str:
        return f"{self.kind}({self.attribute}): {self.reason}"


@dataclass
class Analysis:
    """One analyze-phase output: ranked deficits and proposed actions."""

    cycle: int
    column_deficits: list[tuple[str, float]]  # (column, 1 - score), worst first
    route_defect_rates: dict[str, float]  # "source/method" → defect rate
    actions: list[ImprovementAction]
    inspection_plan: Optional[Allocation] = None

    def render(self) -> str:
        lines = [f"TDQM analysis (cycle {self.cycle})"]
        lines.append("  column deficits (worst first):")
        for column, deficit in self.column_deficits:
            lines.append(f"    {column}: deficit={deficit:.3f}")
        lines.append("  route defect rates:")
        for route, rate in sorted(self.route_defect_rates.items()):
            lines.append(f"    {route}: {rate:.3f}")
        lines.append("  proposed actions:")
        for action in self.actions:
            lines.append(f"    - {action.describe()}")
        if self.inspection_plan is not None:
            lines.append(
                f"  inspection budget: spent {self.inspection_plan.spent:g}, "
                f"removes {self.inspection_plan.improvement_fraction:.1%} "
                f"of weighted errors"
            )
        return "\n".join(lines)


class TDQMCycle:
    """Orchestrates define/measure/analyze/improve over a pipeline.

    Parameters
    ----------
    quality_schema:
        The methodology's integrated schema (the *define* phase input).
    owner:
        The entity whose relation the pipeline manufactures.
    scorecard:
        Numeric scoring model used by *measure*.
    pipeline:
        The manufacturing pipeline under improvement.
    deficit_threshold:
        Columns whose composite score falls below ``1 − threshold`` are
        *not* flagged; i.e. a column is flagged when its deficit
        (1 − score) exceeds this threshold.
    """

    def __init__(
        self,
        quality_schema: QualitySchema,
        owner: str,
        scorecard: QualityScorecard,
        pipeline: ManufacturingPipeline,
        deficit_threshold: float = 0.25,
    ) -> None:
        if not 0.0 <= deficit_threshold <= 1.0:
            raise QualityError("deficit_threshold must be in [0, 1]")
        self.quality_schema = quality_schema
        self.owner = owner
        self.scorecard = scorecard
        self.pipeline = pipeline
        self.deficit_threshold = deficit_threshold
        self.administrator = DataQualityAdministrator(
            quality_schema, trail=pipeline.trail
        )
        self.cycle = 0
        self.measurements: list[Measurement] = []
        self.analyses: list[Analysis] = []
        self.change_log: list[str] = []

    # -- measure ---------------------------------------------------------------

    def measure(
        self,
        relation: TaggedRelation,
        today: Optional[_dt.date] = None,
        truth: Optional[Mapping[Any, Mapping[str, Any]]] = None,
        key_column: Optional[str] = None,
    ) -> Measurement:
        """Measure conformance and scores for one manufactured snapshot."""
        report = self.administrator.monitor(
            {self.owner: relation},
            today=today,
            truth=truth,
            key_columns={self.owner: key_column} if key_column else None,
        )
        scores = self.scorecard.score_relation(
            relation, context={"today": today} if today else None
        )
        measurement = Measurement(self.cycle, report, scores)
        self.measurements.append(measurement)
        return measurement

    # -- analyze -----------------------------------------------------------------

    def analyze(
        self,
        measurement: Measurement,
        inspection_budget: float = 0.0,
    ) -> Analysis:
        """Rank deficits, attribute defects to routes, propose actions."""
        deficits: list[tuple[str, float]] = []
        for column, score in measurement.scores.columns.items():
            composite = score.composite.score
            deficit = 1.0 if composite is None else 1.0 - composite
            deficits.append((column, deficit))
        deficits.sort(key=lambda item: -item[1])

        route_rates: dict[str, float] = {}
        route_counts: dict[str, list[int]] = {}
        for record in self.pipeline.manufactured:
            route = f"{record.source}/{record.method}"
            entry = route_counts.setdefault(route, [0, 0])
            entry[1] += 1
            if record.erroneous or record.missing:
                entry[0] += 1
        for route, (defects, total) in route_counts.items():
            route_rates[route] = defects / total if total else 0.0

        actions: list[ImprovementAction] = []
        for column, deficit in deficits:
            if deficit <= self.deficit_threshold:
                continue
            route = self.pipeline.routes.get(column)
            if route is None:
                continue
            route_key = f"{route.source.name}/{route.method.name}"
            rate = route_rates.get(route_key, 0.0)
            if route.source.error_rate >= route.method.error_rate:
                actions.append(
                    ImprovementAction(
                        "replace_source",
                        column,
                        f"column deficit {deficit:.2f}; route {route_key} "
                        f"defect rate {rate:.2f}, dominated by source error "
                        f"rate {route.source.error_rate:.2f}",
                        current=route.source.name,
                    )
                )
            else:
                actions.append(
                    ImprovementAction(
                        "replace_method",
                        column,
                        f"column deficit {deficit:.2f}; route {route_key} "
                        f"defect rate {rate:.2f}, dominated by device error "
                        f"rate {route.method.error_rate:.2f}",
                        current=route.method.name,
                    )
                )

        inspection_plan: Optional[Allocation] = None
        if inspection_budget > 0:
            profiles = profiles_from_monitoring(
                self.pipeline.defect_counts_by_method()
            )
            if profiles:
                inspection_plan = allocate_budget(profiles, inspection_budget)

        analysis = Analysis(
            self.cycle, deficits, route_rates, actions, inspection_plan
        )
        self.analyses.append(analysis)
        return analysis

    # -- improve --------------------------------------------------------------------

    def improve(
        self,
        analysis: Analysis,
        replacement_sources: Optional[Mapping[str, DataSource]] = None,
        replacement_methods: Optional[Mapping[str, CollectionMethod]] = None,
    ) -> list[str]:
        """Apply proposed actions using the supplied replacements.

        ``replacement_sources`` / ``replacement_methods`` map attribute →
        the better source/device procured for it.  Actions without a
        matching replacement are skipped (procurement said no).  Returns
        the change log entries for this cycle.
        """
        changes: list[str] = []
        for action in analysis.actions:
            route = self.pipeline.routes.get(action.attribute)
            if route is None:
                continue
            if action.kind == "replace_source":
                replacement = (replacement_sources or {}).get(action.attribute)
                if replacement is None:
                    continue
                self.pipeline.assign(action.attribute, replacement, route.method)
                changes.append(
                    f"cycle {self.cycle}: {action.attribute} source "
                    f"{action.current!r} → {replacement.name!r}"
                )
            elif action.kind == "replace_method":
                replacement = (replacement_methods or {}).get(action.attribute)
                if replacement is None:
                    continue
                self.pipeline.assign(action.attribute, route.source, replacement)
                changes.append(
                    f"cycle {self.cycle}: {action.attribute} method "
                    f"{action.current!r} → {replacement.name!r}"
                )
        self.change_log.extend(changes)
        return changes

    # -- one full turn -----------------------------------------------------------------

    def run_cycle(
        self,
        today: Optional[_dt.date] = None,
        truth: Optional[Mapping[Any, Mapping[str, Any]]] = None,
        key_column: Optional[str] = None,
        replacement_sources: Optional[Mapping[str, DataSource]] = None,
        replacement_methods: Optional[Mapping[str, CollectionMethod]] = None,
        inspection_budget: float = 0.0,
    ) -> tuple[Measurement, Analysis, list[str]]:
        """Manufacture → measure → analyze → improve; returns all three."""
        self.cycle += 1
        relation = self.pipeline.manufacture(report_day=today)
        measurement = self.measure(
            relation, today=today, truth=truth, key_column=key_column
        )
        analysis = self.analyze(measurement, inspection_budget)
        changes = self.improve(
            analysis, replacement_sources, replacement_methods
        )
        return measurement, analysis, changes

    def render_history(self) -> str:
        """Cycle-over-cycle summary."""
        lines = ["TDQM history"]
        for measurement in self.measurements:
            lines.append("  " + measurement.summary())
        for change in self.change_log:
            lines.append("  * " + change)
        return "\n".join(lines)
