"""Unit tests for the executable premises (§2)."""

from repro.core.mapping import UserQualityStandard, timeliness_from_age
from repro.core.premises import (
    classify_attribute_role,
    heterogeneity_profile,
    heterogeneity_spread,
    non_orthogonality_report,
    single_user_variation_report,
    user_standards_report,
)
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorDefinition, IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation
from repro.relational.schema import schema


class TestPremise11Classification:
    def test_bank_teller_example(self):
        # Premise 1.1's example: the teller who performs a transaction.
        assert (
            classify_attribute_role(
                "teller_name", "the bank teller who performs a transaction"
            )
            == "quality_indicator"
        )

    def test_manufacturing_signals(self):
        assert classify_attribute_role("creation_date") == "quality_indicator"
        assert classify_attribute_role("collection_device") == "quality_indicator"
        assert classify_attribute_role("data_source") == "quality_indicator"

    def test_application_attributes(self):
        assert classify_attribute_role("share_price") == "application"
        assert classify_attribute_role("address") == "application"
        assert classify_attribute_role("employees") == "application"


class TestPremise12NonOrthogonality:
    def test_timeliness_volatility_pair(self):
        # Premise 1.2's example pair.
        pairs = non_orthogonality_report(["timeliness", "volatility"])
        assert ("timeliness", "volatility") in pairs

    def test_unrelated_parameters(self):
        pairs = non_orthogonality_report(["cost", "completeness"])
        assert pairs == []

    def test_unknown_names_skipped(self):
        assert non_orthogonality_report(["made_up_dimension"]) == []

    def test_pairs_deduplicated_and_sorted(self):
        pairs = non_orthogonality_report(
            ["timeliness", "volatility", "currency"]
        )
        assert pairs == sorted(set(pairs))


def _relation_with_sources(name, sources):
    ts = TagSchema(
        indicators=[IndicatorDefinition("source")],
        allowed={"v": ["source"]},
    )
    rel = TaggedRelation(schema(name, [("k", "STR"), ("v", "INT")]), ts)
    for i, source in enumerate(sources):
        tags = [IndicatorValue("source", source)] if source else []
        rel.insert({"k": str(i), "v": QualityCell(i, tags)})
    return rel


def _trust_metric(cell):
    source = cell.tag_value("source")
    if source is None:
        return None
    return 1.0 if source == "trusted" else 0.0


class TestPremise13Heterogeneity:
    def test_profile_shows_hierarchy(self):
        relations = {
            "alumni": _relation_with_sources(
                "alumni", ["trusted", "untrusted"]
            ),
            "student": _relation_with_sources(
                "student", ["trusted", "trusted"]
            ),
        }
        profile = heterogeneity_profile(relations, _trust_metric, "trust")
        assert profile["relations"]["student"]["overall"] == 1.0
        assert profile["relations"]["alumni"]["overall"] == 0.5
        assert profile["overall"] == 0.75

    def test_unassessable_cells_skipped(self):
        relations = {"t": _relation_with_sources("t", ["trusted", None])}
        profile = heterogeneity_profile(relations, _trust_metric)
        assert profile["relations"]["t"]["columns"]["v"] == 1.0
        assert profile["relations"]["t"]["columns"]["k"] is None

    def test_spread(self):
        relations = {
            "good": _relation_with_sources("good", ["trusted"] * 4),
            "bad": _relation_with_sources("bad", ["untrusted"] * 4),
        }
        profile = heterogeneity_profile(relations, _trust_metric)
        spread = heterogeneity_spread(profile)
        assert spread["relation_spread"] == 1.0

    def test_uniform_has_zero_spread(self):
        relations = {
            "a": _relation_with_sources("a", ["trusted"] * 3),
            "b": _relation_with_sources("b", ["trusted"] * 3),
        }
        spread = heterogeneity_spread(
            heterogeneity_profile(relations, _trust_metric)
        )
        assert spread["relation_spread"] == 0.0


def _age_relation():
    ts = TagSchema(
        indicators=[IndicatorDefinition("age", "FLOAT")],
        allowed={"a": ["age"], "b": ["age"]},
    )
    rel = TaggedRelation(schema("t", [("a", "INT"), ("b", "INT")]), ts)
    for age_a, age_b in [(1.0, 1.0), (5.0, 1.0), (20.0, 1.0)]:
        rel.insert(
            {
                "a": QualityCell(1, [IndicatorValue("age", age_a)]),
                "b": QualityCell(1, [IndicatorValue("age", age_b)]),
            }
        )
    return rel


class TestPremises2xAnd3:
    def test_user_standards_report(self):
        rel = _age_relation()
        loose = UserQualityStandard(
            "loose",
            mappings=[timeliness_from_age(10.0)],
            acceptance={"timeliness": lambda t: t},
        )
        strict = UserQualityStandard(
            "strict",
            mappings=[timeliness_from_age(2.0)],
            acceptance={"timeliness": lambda t: t},
        )
        report = user_standards_report([loose, strict], rel, "a")
        rates = {entry["user"]: entry["acceptance_rate"] for entry in report}
        assert rates["loose"] > rates["strict"]

    def test_single_user_variation(self):
        rel = _age_relation()
        same_user_strict = UserQualityStandard(
            "analyst",
            mappings=[timeliness_from_age(2.0)],
            acceptance={"timeliness": lambda t: t},
        )
        same_user_loose = UserQualityStandard(
            "analyst",
            mappings=[timeliness_from_age(30.0)],
            acceptance={"timeliness": lambda t: t},
        )
        # Premise 3: the same user is stricter about column a than b.
        report = single_user_variation_report(
            {"a": same_user_strict, "b": same_user_loose}, rel
        )
        assert report["b"] == 1.0
        assert report["a"] < 1.0
