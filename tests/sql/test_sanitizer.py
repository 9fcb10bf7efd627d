"""Batch sanitizer checks (armed by ``REPRO_VERIFY_PLANS``).

Unit tests drive the check functions directly with corrupted batches;
the end-to-end tests run real statements with the sanitizer wrappers
installed and assert they stay silent on well-formed plans.
"""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.sql.executor import execute
from repro.sql.nodes import ColumnRef, Comparison, Literal, OrderItem, SelectItem
from repro.sql.physical import (
    ColumnarSanitizerError,
    Segment,
    _check_batch,
    _CheckedSegment,
    _selection_ordered,
    sanitize_enabled,
)
from repro.sql.plan import Aggregate, Filter, Limit, Project, Scan, TopK
from repro.sql.plancache import clear_plan_cache

T_SCHEMA = schema("t", [("a", "INT"), ("b", "STR")], key=["a"])


def make_relation(n=30):
    relation = Relation(T_SCHEMA)
    for i in range(n):
        relation.insert({"a": i, "b": f"s{i % 5}"})
    return relation


class TestBatchCheck:
    def test_well_formed_batch_passes(self):
        segment = Segment(make_relation(3))
        _check_batch("Filter", (segment, [0, 2]), True)
        _check_batch("Scan", (segment, None), True)

    def test_array_length_mismatch_raises(self):
        # A write behind the segment's back: its arrays outgrow it.
        relation = make_relation(3)
        segment = _CheckedSegment(relation)

        def read(bucket, part):
            return part.value_array(0)

        assert segment.array("column 0", read) == [0, 1, 2]
        relation.insert({"a": 3, "b": "s3"})
        with pytest.raises(ColumnarSanitizerError, match="entries"):
            segment.array("column 0", read)
        with pytest.raises(ColumnarSanitizerError, match="entries"):
            segment.rows()

    def test_selection_out_of_bounds_raises(self):
        segment = Segment(make_relation(2))
        with pytest.raises(ColumnarSanitizerError, match="out-of-bounds"):
            _check_batch("Filter", (segment, [0, 5]), True)

    def test_ordered_fragment_requires_ascending_selection(self):
        segment = Segment(make_relation(3))
        with pytest.raises(ColumnarSanitizerError, match="ascending"):
            _check_batch("Filter", (segment, [2, 0]), True)

    def test_unordered_fragment_allows_key_order(self):
        # TopK emits selection vectors in key order, not row order.
        _check_batch("TopK", (Segment(make_relation(3)), [2, 0, 1]), False)

    def test_unordered_fragment_rejects_duplicates(self):
        with pytest.raises(ColumnarSanitizerError, match="twice"):
            _check_batch("TopK", (Segment(make_relation(3)), [2, 2]), False)


class TestFragmentOrder:
    def test_scan_and_row_preserving_operators_are_ordered(self):
        scan = Scan("t")
        assert _selection_ordered(scan)
        assert _selection_ordered(Limit(scan, 3))
        predicate = Comparison(">", ColumnRef("a"), Literal(1))
        assert _selection_ordered(
            Project(Filter(scan, predicate), (SelectItem(ColumnRef("a")),))
        )

    def test_topk_breaks_order_for_everything_above(self):
        topk = TopK(Scan("t"), (OrderItem(ColumnRef("a")),), 3)
        assert not _selection_ordered(topk)
        assert not _selection_ordered(Limit(topk, 2))
        # An operator that builds a new segment starts over.
        assert _selection_ordered(Aggregate(topk, (), ()))


class TestEndToEnd:
    @pytest.fixture(autouse=True)
    def sanitized_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        clear_plan_cache()
        yield
        clear_plan_cache()

    def test_flag_arms_sanitizer(self):
        assert sanitize_enabled()

    def test_columnar_statements_run_clean(self):
        relation = make_relation()
        result = execute("SELECT a FROM t WHERE b = 's1'", relation)
        assert len(result) == 6
        topk = execute(
            "SELECT a, b FROM t WHERE a > 3 ORDER BY a DESC LIMIT 4",
            relation,
        )
        assert [row["a"] for row in topk.rows] == [29, 28, 27, 26]

    @pytest.mark.parametrize(
        "where, owner, accessor",
        [
            ("QUALITY(a.source) = 's1'", "tags", "array"),
            ("QUALITY(credibility) > 0.5", "scores", "score_array"),
        ],
        ids=["tag", "score"],
    )
    def test_short_quality_array_raises(self, monkeypatch, where, owner, accessor):
        # Tag and score arrays pass the same length check as value
        # arrays: one a part hands out short of its rows is caught
        # before any position is read.
        from repro.quality.materialize import (
            ScoreMaterializer,
            ScoringProfile,
            clear_profiles,
            register_profile,
        )
        from repro.quality.scoring import credibility_scorer
        from repro.tagging.cell import QualityCell
        from repro.tagging.columnar import ColumnarTagStore
        from repro.tagging.indicators import (
            IndicatorDefinition,
            IndicatorValue,
            TagSchema,
        )
        from repro.tagging.relation import TaggedRelation

        relation = TaggedRelation(
            T_SCHEMA,
            TagSchema([IndicatorDefinition("source")], allowed={"a": ["source"]}),
        )
        for i in range(6):
            source = IndicatorValue("source", "s1" if i % 2 else "s2")
            relation.insert({"a": QualityCell(i, [source]), "b": f"s{i}"})
        register_profile(
            ScoringProfile("p", [credibility_scorer({"s1": 0.9})]),
            relations=["t"],
        )
        sql = f"SELECT a FROM t WHERE {where}"
        try:
            assert [row.value("a") for row in execute(sql, relation)] == [1, 3, 5]
            cls = ColumnarTagStore if owner == "tags" else ScoreMaterializer
            full = getattr(cls, accessor)
            monkeypatch.setattr(
                cls, accessor, lambda self, *args: full(self, *args)[:-1]
            )
            with pytest.raises(ColumnarSanitizerError, match="5 entries"):
                execute(sql, relation)
        finally:
            clear_profiles()

    def test_cached_sanitized_plan_reruns_clean(self):
        relation = make_relation()
        sql = "SELECT b FROM t WHERE a >= 25"
        first = execute(sql, relation)
        second = execute(sql, relation)
        assert len(first) == len(second) == 5
