"""Unit tests for ASCII ER diagram rendering."""

import pytest

from repro.er.diagram import (
    Annotation,
    STYLE_DOTTED,
    STYLE_INSPECTION,
    render_er_diagram,
)


class TestAnnotation:
    def test_cloud_marker(self):
        assert Annotation(("e",), "timeliness").marker() == "( timeliness )"

    def test_dotted_marker(self):
        assert (
            Annotation(("e",), "age", STYLE_DOTTED).marker() == "[. age .]"
        )

    def test_inspection_marker(self):
        assert (
            Annotation(("e",), "inspection", STYLE_INSPECTION).marker()
            == "(/ inspection )"
        )

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            Annotation(("e",), "x", "wavy")


class TestRenderPlain:
    def test_contains_entities_and_keys(self, trading_er):
        text = render_er_diagram(trading_er)
        assert "+-- client " in text
        assert "account_number: STR <*key*>" in text
        assert "<trade>" in text
        assert "client (N) --- company_stock (N)" in text

    def test_relationship_attributes_listed(self, trading_er):
        text = render_er_diagram(trading_er)
        assert ". quantity: INT" in text

    def test_title_and_legend(self, trading_er):
        text = render_er_diagram(trading_er, title="Figure 3", legend=True)
        assert text.startswith("Figure 3\n========")
        assert "Legend:" in text

    def test_deterministic(self, trading_er):
        assert render_er_diagram(trading_er) == render_er_diagram(trading_er)

    def test_box_borders_align(self, trading_er):
        lines = render_er_diagram(trading_er).splitlines()
        index = 0
        boxes_checked = 0
        while index < len(lines):
            line = lines[index]
            if line.startswith("+-- "):  # a box top
                box = [line]
                index += 1
                while index < len(lines) and not set(lines[index]) <= {"+", "-"}:
                    box.append(lines[index])
                    index += 1
                assert index < len(lines), "box has no bottom border"
                box.append(lines[index])  # the bottom border
                assert len({len(l) for l in box}) == 1, box
                boxes_checked += 1
            index += 1
        assert boxes_checked == 2  # client and company_stock


class TestRenderAnnotated:
    def test_attribute_annotation_inline(self, trading_er):
        text = render_er_diagram(
            trading_er,
            [Annotation(("company_stock", "share_price"), "timeliness")],
        )
        assert "share_price: FLOAT   ( timeliness )" in text

    def test_entity_level_annotation_in_title(self, trading_er):
        text = render_er_diagram(
            trading_er, [Annotation(("client",), "completeness")]
        )
        assert "+-- client  ( completeness )" in text

    def test_relationship_annotation(self, trading_er):
        text = render_er_diagram(
            trading_er,
            [Annotation(("trade",), "inspection", STYLE_INSPECTION)],
        )
        assert "<trade>" in text
        assert "(/ inspection )" in text

    def test_relationship_attribute_annotation(self, trading_er):
        text = render_er_diagram(
            trading_er,
            [Annotation(("trade", "date"), "creation_time", STYLE_DOTTED)],
        )
        assert ". date: DATE   [. creation_time .]" in text

    def test_multiple_annotations_same_target(self, trading_er):
        text = render_er_diagram(
            trading_er,
            [
                Annotation(("company_stock", "research_report"), "cost"),
                Annotation(("company_stock", "research_report"), "credibility"),
            ],
        )
        assert "( cost ) ( credibility )" in text
