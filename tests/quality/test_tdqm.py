"""Unit and integration tests for the TDQM improvement cycle."""

import datetime as dt

import pytest

from repro.core import DataQualityModeling
from repro.core.terminology import QualityIndicatorSpec
from repro.er.model import Entity, ERAttribute, ERSchema
from repro.errors import QualityError
from repro.manufacturing.collection import CollectionMethod
from repro.manufacturing.generator import make_companies
from repro.manufacturing.pipeline import ManufacturingPipeline
from repro.manufacturing.sources import DataSource
from repro.manufacturing.world import World
from repro.quality.scoring import QualityScorecard, credibility_scorer
from repro.quality.tdqm import TDQMCycle
from repro.relational.schema import schema


def _quality_schema():
    er = ERSchema("crm")
    er.add_entity(
        Entity(
            "customer",
            [
                ERAttribute("co_name", "STR"),
                ERAttribute("address", "STR"),
                ERAttribute("employees", "INT"),
            ],
            key=["co_name"],
        )
    )
    modeling = DataQualityModeling()
    app_view = modeling.step1(er)
    param_view = modeling.step2(
        app_view,
        [
            (("customer", "address"), "source_credibility", ""),
            (("customer", "employees"), "source_credibility", ""),
        ],
    )
    quality_view = modeling.step3(
        param_view,
        decisions={
            (("customer", "address"), "source_credibility"): [
                QualityIndicatorSpec("source")
            ],
            (("customer", "employees"), "source_credibility"): [
                QualityIndicatorSpec("source")
            ],
        },
        auto=False,
    )
    return modeling.step4([quality_view])


@pytest.fixture
def environment():
    world = World(dt.date(1991, 1, 1), make_companies(120, seed=55), seed=55)
    pipeline = ManufacturingPipeline(
        world,
        schema(
            "customer",
            [("co_name", "STR"), ("address", "STR"), ("employees", "INT")],
            key=["co_name"],
        ),
        "co_name",
    )
    good_source = DataSource("acct'g", world, error_rate=0.01, seed=55)
    bad_source = DataSource("rumor_mill", world, error_rate=0.45, seed=56)
    good_method = CollectionMethod("scanner", 0.005, seed=55)
    bad_method = CollectionMethod("voice_decoder", 0.02, seed=56)
    pipeline.assign("address", good_source, good_method)
    pipeline.assign("employees", bad_source, bad_method)

    scorecard = QualityScorecard(
        [
            credibility_scorer(
                {"acct'g": 0.95, "rumor_mill": 0.2, "verified_registry": 0.95}
            ),
        ]
    )
    cycle = TDQMCycle(
        _quality_schema(), "customer", scorecard, pipeline,
        deficit_threshold=0.3,
    )
    return world, pipeline, cycle


class TestMeasure:
    def test_measurement_records(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        measurement = cycle.measure(relation, today=world.today)
        assert measurement.cycle == 0
        assert measurement.overall_score is not None
        assert "conformance=" in measurement.summary()

    def test_conformance_uses_quality_schema(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        measurement = cycle.measure(relation, today=world.today)
        # The pipeline tags source on every cell: requirements conform.
        assert measurement.admin_report.conforms


class TestAnalyze:
    def test_flags_the_bad_route(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        measurement = cycle.measure(relation, today=world.today)
        analysis = cycle.analyze(measurement)
        # employees (rumor_mill) is the deficit leader.
        assert analysis.column_deficits[0][0] == "employees"
        assert len(analysis.actions) == 1
        action = analysis.actions[0]
        assert action.attribute == "employees"
        assert action.kind == "replace_source"  # source dominates device
        assert "rumor_mill" in action.reason

    def test_good_columns_not_flagged(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        analysis = cycle.analyze(cycle.measure(relation, today=world.today))
        assert all(a.attribute != "address" for a in analysis.actions)

    def test_inspection_budget_plan(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        analysis = cycle.analyze(
            cycle.measure(relation, today=world.today), inspection_budget=4.0
        )
        assert analysis.inspection_plan is not None
        assert analysis.inspection_plan.spent <= 4.0
        # The noisier route receives at least as many units.
        units = analysis.inspection_plan.units
        assert units.get("voice_decoder", 0) >= units.get("scanner", 0)

    def test_render(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        analysis = cycle.analyze(cycle.measure(relation, today=world.today))
        text = analysis.render()
        assert "column deficits" in text
        assert "proposed actions" in text


class TestImprove:
    def test_applies_replacement(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        analysis = cycle.analyze(cycle.measure(relation, today=world.today))
        better = DataSource("verified_registry", world, error_rate=0.02, seed=57)
        changes = cycle.improve(
            analysis, replacement_sources={"employees": better}
        )
        assert len(changes) == 1
        assert pipeline.routes["employees"].source.name == "verified_registry"

    def test_no_replacement_no_change(self, environment):
        world, pipeline, cycle = environment
        relation = pipeline.manufacture()
        analysis = cycle.analyze(cycle.measure(relation, today=world.today))
        changes = cycle.improve(analysis)
        assert changes == []
        assert pipeline.routes["employees"].source.name == "rumor_mill"


class TestFullCycleImproves:
    def test_score_rises_across_cycles(self, environment):
        """The TDQM promise, measured: cycle 2 scores beat cycle 1."""
        world, pipeline, cycle = environment
        better = DataSource("verified_registry", world, error_rate=0.02, seed=57)
        first, analysis, changes = cycle.run_cycle(
            today=world.today,
            replacement_sources={"employees": better},
        )
        assert changes  # the improvement was applied
        second, _, _ = cycle.run_cycle(today=world.today)
        assert second.overall_score > first.overall_score
        history = cycle.render_history()
        assert "cycle 1" in history and "cycle 2" in history

    def test_threshold_validated(self, environment):
        world, pipeline, _ = environment
        scorecard = QualityScorecard([credibility_scorer({"a": 1.0})])
        with pytest.raises(QualityError):
            TDQMCycle(
                _quality_schema(), "customer", scorecard, pipeline,
                deficit_threshold=1.5,
            )
