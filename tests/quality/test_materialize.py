"""Tests for materialized, incrementally maintained parameter scores."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AssessmentError
from repro.obs import metrics
from repro.quality.materialize import (
    ScoringProfile,
    bind_profile,
    clear_profiles,
    materializer_for,
    parameter_defined,
    profile_for,
    register_profile,
    registry_version,
    row_parameter_score,
)
from repro.quality.scoring import (
    QualityScorecard,
    credibility_scorer,
    timeliness_scorer,
)
from repro.experiments.naive import naive_execute
from repro.relational import hash_partitions
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import (
    IndicatorDefinition,
    IndicatorValue,
    TagSchema,
)
from repro.tagging.relation import TaggedRelation
from tests.sql.test_planner_equivalence import canonical

SOURCE_RATINGS = {"acct'g": 0.9, "estimate": 0.3}
SHELF_LIFE = 100.0


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_profiles()
    yield
    clear_profiles()


def make_profile(name="grades", **kwargs):
    return ScoringProfile(
        name,
        [
            credibility_scorer(SOURCE_RATINGS),
            timeliness_scorer(SHELF_LIFE),
        ],
        **kwargs,
    )


def make_relation(name="readings"):
    tag_schema = TagSchema(
        indicators=[
            IndicatorDefinition("source"),
            IndicatorDefinition("age", "FLOAT"),
        ],
        allowed={"v": ["source", "age"]},
    )
    return TaggedRelation(
        schema(name, [("k", "INT"), ("v", "STR")]), tag_schema
    )


def tagged_cell(value, source=None, age=None):
    tags = []
    if source is not None:
        tags.append(IndicatorValue("source", source))
    if age is not None:
        tags.append(IndicatorValue("age", age))
    return QualityCell(value, tags)


def insert_row(relation, k, source=None, age=None):
    relation.insert({"k": k, "v": tagged_cell(f"v{k}", source, age)})


def expected_scores(relation, profile, parameter):
    """Fresh per-cell scorecard scores, rolled up per row (the oracle)."""
    scorecard = QualityScorecard(list(profile.scorers.values()))
    out = []
    for row in relation.row_batch():
        cells = [row[c] for c in relation.tag_schema.tagged_columns]
        scores = [
            scorecard.score_cell(cell, profile.context)[parameter]
            for cell in cells
        ]
        present = [s for s in scores if s is not None]
        out.append(sum(present) / len(present) if present else None)
    return out


class TestScoringProfile:
    def test_validation(self):
        with pytest.raises(AssessmentError):
            ScoringProfile("", [credibility_scorer(SOURCE_RATINGS)])
        with pytest.raises(AssessmentError):
            ScoringProfile("empty", [])
        with pytest.raises(AssessmentError):
            ScoringProfile(
                "dup",
                [
                    credibility_scorer(SOURCE_RATINGS),
                    credibility_scorer({"x": 0.5}),
                ],
            )
        with pytest.raises(AssessmentError):
            make_profile(thresholds={"ghost": 0.5})
        with pytest.raises(AssessmentError):
            make_profile(thresholds={"credibility": 1.5})

    def test_accessors(self):
        profile = make_profile(thresholds={"credibility": 0.5})
        assert profile.parameters == ("credibility", "timeliness")
        assert profile.defines("timeliness")
        assert not profile.defines("accuracy")
        assert profile.scorer("credibility").parameter == "credibility"
        with pytest.raises(AssessmentError):
            profile.scorer("accuracy")
        assert profile.threshold("credibility") == 0.5
        assert profile.threshold("timeliness") is None


class TestRegistry:
    def test_register_bumps_version_and_binds(self):
        before = registry_version()
        profile = register_profile(make_profile(), relations=["readings"])
        assert registry_version() == before + 1
        assert profile.version == registry_version()
        assert profile_for("readings") is profile
        assert profile_for(make_relation()) is profile
        assert profile_for("elsewhere") is None

    def test_bind_requires_registered_profile(self):
        with pytest.raises(AssessmentError):
            bind_profile("readings", "ghost")
        register_profile(make_profile())
        before = registry_version()
        bind_profile("readings", "grades")
        assert registry_version() == before + 1
        assert profile_for("readings").name == "grades"

    def test_snapshot_resolves_like_live_relation(self):
        relation = make_relation()
        insert_row(relation, 0, source="acct'g")
        register_profile(make_profile(), relations=["readings"])
        assert profile_for(relation.read_snapshot()) is profile_for(relation)

    def test_parameter_defined(self):
        assert not parameter_defined("credibility")
        register_profile(make_profile())
        assert parameter_defined("credibility")
        assert parameter_defined("timeliness")
        assert not parameter_defined("accuracy")


class TestMaterializer:
    def make_bound(self, n=10):
        relation = make_relation()
        sources = [None, "acct'g", "estimate", "rumor"]
        for k in range(n):
            insert_row(
                relation,
                k,
                source=sources[k % len(sources)],
                age=float(10 * k) if k % 3 else None,
            )
        profile = register_profile(make_profile(), relations=["readings"])
        return relation, profile

    def test_unbound_relation_raises(self):
        relation = make_relation()
        with pytest.raises(AssessmentError, match="no scoring profile"):
            materializer_for(relation).refresh()

    def test_row_scores_match_fresh_scorecard(self):
        relation, profile = self.make_bound()
        materializer = materializer_for(relation)
        for parameter in profile.parameters:
            assert materializer.row_scores(parameter) == pytest.approx(
                expected_scores(relation, profile, parameter)
            )

    def test_undefined_parameter_raises(self):
        relation, _ = self.make_bound()
        with pytest.raises(AssessmentError, match="no.*parameter"):
            materializer_for(relation).row_scores("accuracy")

    def test_mutation_invalidates_flat_block(self):
        relation, profile = self.make_bound()
        materializer = materializer_for(relation)
        assert len(materializer.row_scores("credibility")) == 10
        insert_row(relation, 99, source="acct'g")
        assert len(materializer.row_scores("credibility")) == 11
        assert materializer.row_scores("credibility") == pytest.approx(
            expected_scores(relation, profile, "credibility")
        )

    def test_incremental_refresh_recomputes_only_dirty_buckets(self):
        relation, _ = self.make_bound(n=32)
        relation.repartition(hash_partitions("k", 8))
        materializer = materializer_for(relation)
        with metrics.instrumented() as registry:
            materializer.refresh()  # cold: everything recomputes
            cold = registry.snapshot()
            assert cold["scores.recomputed"]["value"] == 32
            assert cold["scores.staleness"]["value"] == 1.0

            registry.reset()
            materializer.refresh()  # warm: everything reuses
            warm = registry.snapshot()
            assert warm["scores.recomputed"]["value"] == 0
            assert warm["scores.reused"]["value"] == 32
            assert warm["scores.staleness"]["value"] == 0.0

            registry.reset()
            insert_row(relation, 100, source="acct'g")
            materializer.refresh()  # one bucket dirty, one row appended
            delta = registry.snapshot()
            # The dirty shard's block extends by the appended row only;
            # its earlier rows are carried over, not re-scored.
            assert delta["scores.recomputed"]["value"] == 1
            assert delta["scores.reused"]["value"] == 32
            assert delta["scores.staleness"]["value"] == 1 / 8

    @pytest.mark.parametrize("buckets", [None, 8])
    def test_next_snapshot_rescores_only_the_written_rows(self, buckets):
        # A 10-row write, then a read of the next read_snapshot(): the
        # snapshot's blocks extend the previous generation's, so exactly
        # the 10 written rows are scored — by the unpruned scan's flat
        # block, and (partitioned) by the shard blocks a refresh brings
        # up.
        relation, profile = self.make_bound(n=40)
        if buckets is not None:
            relation.repartition(hash_partitions("k", buckets))
        sql = "SELECT k FROM readings WHERE QUALITY(credibility) > 0.5"
        clear_plan_cache()
        execute(sql, relation.read_snapshot())
        materializer_for(relation.read_snapshot()).refresh()
        relation.insert_many(
            {"k": 100 + i, "v": tagged_cell(f"w{i}", "acct'g", float(i))}
            for i in range(10)
        )
        snapshot = relation.read_snapshot()
        with metrics.instrumented() as registry:
            registry.reset()
            result = execute(sql, snapshot)
            assert registry.snapshot()["scores.recomputed"]["value"] == 10
            assert registry.snapshot()["scores.reused"]["value"] == 40
            registry.reset()
            materializer_for(snapshot).refresh()
            shard_rows = 0 if buckets is None else 10
            assert registry.snapshot()["scores.recomputed"]["value"] == (
                shard_rows
            )
        fresh = TaggedRelation.from_rows(
            relation.schema, relation.tag_schema, snapshot.row_batch()
        )
        assert canonical(result) == canonical(naive_execute(sql, fresh))
        assert materializer_for(snapshot).row_scores(
            "credibility"
        ) == expected_scores(fresh, profile, "credibility")

    def test_profile_reregistration_drops_blocks(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        assert max(
            s
            for s in materializer.row_scores("credibility")
            if s is not None
        ) == pytest.approx(0.9)
        register_profile(
            ScoringProfile(
                "stricter",
                [credibility_scorer({"acct'g": 0.6})],
            ),
            relations=["readings"],
        )
        scores = materializer.row_scores("credibility")
        assert max(s for s in scores if s is not None) == pytest.approx(0.6)

    def test_filter_indices(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        scores = materializer.row_scores("credibility")
        hits = materializer.filter_indices([("credibility", ">", 0.5)])
        assert hits == [
            i
            for i, s in enumerate(scores)
            if s is not None and s > 0.5
        ]
        # None scores never match, even negated comparisons.
        negated = materializer.filter_indices([("credibility", "!=", 0.9)])
        assert all(scores[i] is not None for i in negated)
        # Candidates restrict the pool and order is preserved.
        restricted = materializer.filter_indices(
            [("credibility", ">", 0.5)], candidates=hits[1:]
        )
        assert restricted == hits[1:]
        assert materializer.filter_indices(
            [("credibility", ">", 0.5), ("credibility", "<", 0.1)]
        ) == []

    def test_filter_indices_rejects_bad_input(self):
        relation, _ = self.make_bound()
        materializer = materializer_for(relation)
        with pytest.raises(AssessmentError, match="unknown operator"):
            materializer.filter_indices([("credibility", "~", 0.5)])
        with pytest.raises(AssessmentError, match="no.*parameter"):
            materializer.filter_indices([("accuracy", ">", 0.5)])

    def test_materializer_cache_is_per_object(self):
        relation, _ = self.make_bound()
        assert materializer_for(relation) is materializer_for(relation)
        snapshot = relation.read_snapshot()
        assert materializer_for(snapshot) is not materializer_for(relation)
        assert materializer_for(snapshot).row_scores(
            "credibility"
        ) == materializer_for(relation).row_scores("credibility")

    def test_row_parameter_score_helper(self):
        relation, profile = self.make_bound(n=4)
        positions = (relation.schema.index_of("v"),)
        row = relation.row_batch()[0]  # source=None, age=None
        assert (
            row_parameter_score(profile, "credibility", row, positions)
            is None
        )


# -- the equivalence property -------------------------------------------------

_SOURCES = st.sampled_from([None, "acct'g", "estimate", "rumor"])
_AGES = st.sampled_from([None, 0.0, 25.0, 150.0])

_OPS = st.one_of(
    st.tuples(
        st.just("insert"),
        st.lists(st.tuples(_SOURCES, _AGES), min_size=1, max_size=3),
    ),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.tuples(
        st.just("repartition"), st.sampled_from([None, 2, 4, 8])
    ),
    st.tuples(
        st.just("update"),
        st.integers(0, 99),
        st.sampled_from([None, "acct'g", "rumor"]),
        st.sampled_from([None, 50.0]),
    ),
    st.tuples(st.just("reregister"), st.integers(0, 1)),
    st.tuples(st.just("older"), st.integers(0, 99)),
)

#: Rating tables of the profile variants a re-registration switches to.
_RATINGS = [SOURCE_RATINGS, {"acct'g": 0.6, "estimate": 0.5, "rumor": 0.1}]

#: Reads through the engine: an unpruned tag + score scan, and (when
#: partitioned on ``k``) a multi-shard pruned one.
_READS = [
    "SELECT k, v FROM readings WHERE QUALITY(v.source) <> 'rumor' "
    "AND QUALITY(credibility) > 0.5",
    "SELECT k FROM readings WHERE k IN (0, 1, 2, 3, 1000, 1001, 1002) "
    "AND QUALITY(timeliness) >= 0",
]


def _value_arrays(relation):
    return [
        relation.value_array(position)
        for position in range(len(relation.schema.column_names))
    ]


def _check_generation(snapshot, plain_snapshot, profile):
    """One snapshot generation's carried state ≡ a fresh build over
    ``TaggedRelation.from_rows`` (``Relation.from_rows``) of its rows."""

    def fresh(segment):
        return TaggedRelation.from_rows(
            segment.schema, segment.tag_schema, segment.row_batch()
        )

    segments = [(None, snapshot)]
    if snapshot.partition_spec is not None:
        segments += list(enumerate(snapshot.partitions()))
    materializer = materializer_for(snapshot)
    for bucket, segment in segments:
        oracle = fresh(segment)
        tag_schema = segment.tag_schema
        for column in tag_schema.tagged_columns:
            for indicator in tag_schema.allowed_for(column):
                assert segment.tag_array(column, indicator) == oracle.tag_array(
                    column, indicator
                )
        for position in range(len(segment.schema.column_names)):
            assert segment.value_array(position) == oracle.value_array(
                position
            )
        for parameter in profile.parameters:
            assert materializer.row_scores(
                parameter, bucket=bucket
            ) == materializer_for(oracle).row_scores(parameter)
    for segment in [plain_snapshot, *plain_snapshot.partitions()]:
        assert _value_arrays(segment) == _value_arrays(
            Relation.from_rows(segment.schema, segment.row_batch())
        )
    oracle = fresh(snapshot)
    for sql in _READS:
        assert canonical(execute(sql, snapshot)) == canonical(
            naive_execute(sql, oracle)
        )


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OPS, max_size=12), data=st.data())
def test_materialized_scores_track_arbitrary_mutations(ops, data):
    """Materialized arrays ≡ fresh per-cell scorecard scores after any
    interleaving of inserts, deletes, updates, repartitions and profile
    re-registrations — on the live relation, and on every
    ``read_snapshot()`` generation, whose tag arrays, value arrays and
    score blocks are carried over from the one before (read
    at once, later, or after newer generations extended theirs).  CI
    runs it with and without ``REPRO_VERIFY_PLANS=1``; with it, the
    batch sanitizer checks every array the engine reads against its
    segment's length."""
    clear_profiles()
    clear_plan_cache()
    relation = make_relation()
    plain = Relation(relation.schema)
    next_key = [1000]
    for k in range(6):
        insert_row(relation, k, source="acct'g", age=float(20 * k))
        plain.insert({"k": k, "v": f"v{k}"})
    profile = register_profile(make_profile(), relations=["readings"])
    materializer = materializer_for(relation)
    generations = []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            keys = range(next_key[0], next_key[0] + len(op[1]))
            next_key[0] += len(op[1])
            relation.insert_many(
                {"k": k, "v": tagged_cell(f"v{k}", source, age)}
                for k, (source, age) in zip(keys, op[1])
            )
            plain.insert_many({"k": k, "v": f"v{k}"} for k in keys)
        elif kind == "delete":
            target = op[1]
            relation.delete(lambda row: row.value("k") % 6 == target)
            plain.delete(lambda row: row["k"] % 6 == target)
        elif kind == "repartition":
            spec = (
                None if op[1] is None else hash_partitions("k", op[1])
            )
            relation.repartition(spec)
            plain.repartition(spec)
        elif kind == "update":  # tagged: delete + reinsert
            target = op[1]
            if any(r.value("k") == target for r in relation.row_batch()):
                relation.delete(lambda row: row.value("k") == target)
                insert_row(relation, target, op[2], op[3])
            # plain: an in-place update that moves the row's bucket
            plain.update(
                lambda row: row["k"] == target,
                lambda row: {"k": row["k"] + 500},
            )
        elif kind == "reregister":
            profile = register_profile(
                ScoringProfile(
                    "grades",
                    [
                        credibility_scorer(_RATINGS[op[1]]),
                        timeliness_scorer(SHELF_LIFE),
                    ],
                ),
                relations=["readings"],
            )
        elif generations:  # older: re-read an earlier generation
            older = generations[op[1] % len(generations)]
            _check_generation(*older, profile)
        # Refresh after every op so incremental reuse paths are the
        # ones under test, not a single cold build at the end.
        materializer.refresh()
        generation = (relation.read_snapshot(), plain.read_snapshot())
        generations.append(generation)
        if data.draw(st.booleans(), label="read now"):
            _check_generation(*generation, profile)
    for generation in generations:
        _check_generation(*generation, profile)
    assert _value_arrays(plain) == _value_arrays(
        Relation.from_rows(plain.schema, plain.row_batch())
    )
    for parameter in profile.parameters:
        oracle = expected_scores(relation, profile, parameter)
        flat = materializer.row_scores(parameter)
        assert flat == pytest.approx(oracle)
        if relation.partition_spec is not None:
            for bucket in range(relation.partition_spec.count):
                shard = relation.partition(bucket)
                assert materializer.row_scores(
                    parameter, bucket=bucket
                ) == pytest.approx(
                    expected_scores(shard, profile, parameter)
                )
