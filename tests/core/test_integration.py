"""Unit tests for Step 4: quality view integration."""

import pytest

from repro.core.integration import (
    DerivabilityRule,
    Refinement,
    integrate_views,
)
from repro.core.terminology import QualityIndicatorSpec
from repro.core.views import (
    ApplicationView,
    IndicatorAnnotation,
    QualityView,
)
from repro.errors import ViewIntegrationError


@pytest.fixture
def app_view(trading_er):
    return ApplicationView(trading_er)


def make_view(app_view, annotations):
    view = QualityView(app_view)
    for annotation in annotations:
        view.add(annotation)
    return view


class TestUnionDedup:
    def test_duplicate_annotations_merge(self, app_view):
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("creation_time", "DATE"),
                    derived_from=("timeliness",),
                )
            ],
        )
        b = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("creation_time", "DATE"),
                    derived_from=("currency",),
                )
            ],
        )
        schema = integrate_views([a, b])
        assert len(schema.annotations) == 1
        assert set(schema.annotations[0].derived_from) == {
            "timeliness",
            "currency",
        }

    def test_domain_conflict_raises(self, app_view):
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("client", "address"), QualityIndicatorSpec("age", "FLOAT")
                )
            ],
        )
        b = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("client", "address"), QualityIndicatorSpec("age", "STR")
                )
            ],
        )
        with pytest.raises(ViewIntegrationError):
            integrate_views([a, b])

    def test_no_views_rejected(self):
        with pytest.raises(ViewIntegrationError):
            integrate_views([])

    def test_different_application_views_rejected(self, trading_er):
        a = make_view(ApplicationView(trading_er), [])
        other_er = trading_er.copy()
        other_er.entity("client").add_attribute(
            __import__("repro.er.model", fromlist=["ERAttribute"]).ERAttribute(
                "email"
            )
        )
        b = make_view(ApplicationView(other_er), [])
        with pytest.raises(ViewIntegrationError):
            integrate_views([a, b])


class TestDerivability:
    def test_age_dropped_for_creation_time(self, app_view):
        # The paper's own example: one view has age, another creation time.
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("age", "FLOAT"),
                    derived_from=("timeliness",),
                )
            ],
        )
        b = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("creation_time", "DATE"),
                    derived_from=("currency",),
                )
            ],
        )
        schema = integrate_views([a, b])
        names = {x.indicator.name for x in schema.annotations}
        assert names == {"creation_time"}
        # Provenance of the dropped indicator folded into the survivor.
        survivor = schema.annotations[0]
        assert "timeliness" in survivor.derived_from
        assert any("age" in note for note in schema.integration_notes)

    def test_age_alone_kept(self, app_view):
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("age", "FLOAT"),
                )
            ],
        )
        schema = integrate_views([a])
        assert {x.indicator.name for x in schema.annotations} == {"age"}

    def test_derivability_is_per_target(self, app_view):
        # age on one target, creation_time on another: both kept.
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "share_price"),
                    QualityIndicatorSpec("age", "FLOAT"),
                ),
                IndicatorAnnotation(
                    ("client", "address"),
                    QualityIndicatorSpec("creation_time", "DATE"),
                ),
            ],
        )
        schema = integrate_views([a])
        assert len(schema.annotations) == 2

    def test_custom_rule(self, app_view):
        rule = DerivabilityRule("price", "age", "synthetic test rule")
        a = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "research_report"),
                    QualityIndicatorSpec("price", "FLOAT"),
                ),
                IndicatorAnnotation(
                    ("company_stock", "research_report"),
                    QualityIndicatorSpec("age", "FLOAT"),
                ),
            ],
        )
        schema = integrate_views([a], rules=[rule])
        assert {x.indicator.name for x in schema.annotations} == {"age"}


class TestRefinement:
    def test_promote_indicator_to_attribute(self, app_view):
        # The paper's company-name example: a quality indicator enhancing
        # ticker interpretability becomes an application attribute.
        view = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "ticker_symbol"),
                    QualityIndicatorSpec("company_name"),
                    rationale="enhances interpretability of ticker symbol",
                )
            ],
        )
        schema = integrate_views(
            [view],
            refinements=[
                Refinement(
                    Refinement.PROMOTE,
                    "company_stock",
                    "company_name",
                    "company name is application data after all (Premise 1.1)",
                )
            ],
        )
        assert schema.er_schema.entity("company_stock").has_attribute(
            "company_name"
        )
        assert not schema.annotations
        # Original application view untouched (refinement copies).
        assert not app_view.er_schema.entity("company_stock").has_attribute(
            "company_name"
        )

    def test_promote_missing_indicator_raises(self, app_view):
        view = make_view(app_view, [])
        with pytest.raises(ViewIntegrationError):
            integrate_views(
                [view],
                refinements=[
                    Refinement(Refinement.PROMOTE, "company_stock", "ghost")
                ],
            )

    def test_demote_attribute_to_indicator(self, app_view):
        # The bank-teller direction: an application attribute becomes a
        # quality indicator for administration.
        view = make_view(app_view, [])
        schema = integrate_views(
            [view],
            refinements=[
                Refinement(
                    Refinement.DEMOTE,
                    "client",
                    "telephone",
                    "phone captured only for verification callbacks",
                )
            ],
        )
        assert not schema.er_schema.entity("client").has_attribute("telephone")
        demoted = [
            a for a in schema.annotations if a.indicator.name == "telephone"
        ]
        assert len(demoted) == 1
        assert demoted[0].target == ("client",)

    def test_demote_key_rejected(self, app_view):
        view = make_view(app_view, [])
        with pytest.raises(ViewIntegrationError):
            integrate_views(
                [view],
                refinements=[
                    Refinement(Refinement.DEMOTE, "client", "account_number")
                ],
            )

    def test_unknown_kind(self):
        with pytest.raises(ViewIntegrationError):
            Refinement("sideways", "a", "b")

    def test_notes_record_decisions(self, app_view):
        view = make_view(
            app_view,
            [
                IndicatorAnnotation(
                    ("company_stock", "ticker_symbol"),
                    QualityIndicatorSpec("company_name"),
                )
            ],
        )
        schema = integrate_views(
            [view],
            refinements=[
                Refinement(Refinement.PROMOTE, "company_stock", "company_name")
            ],
        )
        assert any("promote" in note for note in schema.integration_notes)
