"""Unit tests for duplicate detection (and the E7 threshold sweep)."""

import pytest

from repro.experiments.scenarios import duplicated_customers
from repro.linkage.blocking import prefix_key
from repro.linkage.comparators import jaro_winkler, numeric_closeness
from repro.linkage.dedup import DuplicateFinder
from repro.linkage.fellegi_sunter import FellegiSunterModel, FieldModel


def make_model(upper=6.0):
    return FellegiSunterModel(
        [
            FieldModel("co_name", jaro_winkler, m=0.95, u=0.01),
            FieldModel("address", jaro_winkler, m=0.85, u=0.02),
            FieldModel(
                "employees",
                lambda a, b: numeric_closeness(a, b, tolerance=0.2),
                m=0.8,
                u=0.05,
            ),
        ],
        upper_threshold=upper,
        lower_threshold=0.0,
    )


@pytest.fixture(scope="module")
def dup_data():
    records, n_dups = duplicated_customers(n_base=60, duplicate_fraction=0.4, seed=9)
    return records, n_dups


class TestScoring:
    def test_scores_sorted_descending(self, dup_data):
        records, _ = dup_data
        finder = DuplicateFinder(make_model())
        results = finder.score_pairs(records)
        weights = [r.weight for r in results]
        assert weights == sorted(weights, reverse=True)

    def test_links_are_mostly_true_duplicates(self, dup_data):
        records, _ = dup_data
        finder = DuplicateFinder(make_model())
        evaluation = finder.evaluate(
            records, lambda a, b: a["_entity"] == b["_entity"]
        )
        assert evaluation.precision > 0.8
        assert evaluation.recall > 0.6

    def test_clusters_group_duplicates(self, dup_data):
        records, n_dups = dup_data
        finder = DuplicateFinder(make_model())
        clusters = finder.duplicate_clusters(records)
        assert clusters
        # Each cluster should be entity-pure at a high rate.
        pure = sum(
            1
            for cluster in clusters
            if len({records[i]["_entity"] for i in cluster}) == 1
        )
        assert pure / len(clusters) > 0.8


class TestBlockingIntegration:
    def test_blocked_finder_faster_pair_space(self, dup_data):
        records, _ = dup_data
        blocked = DuplicateFinder(
            make_model(), blocking_keys=[prefix_key("co_name", 3)]
        )
        unblocked = DuplicateFinder(make_model())
        assert len(blocked.candidate_pairs(records)) < len(
            unblocked.candidate_pairs(records)
        )

    def test_blocked_recall_reasonable(self, dup_data):
        records, _ = dup_data
        blocked = DuplicateFinder(
            make_model(), blocking_keys=[prefix_key("co_name", 2)]
        )
        evaluation = blocked.evaluate(
            records, lambda a, b: a["_entity"] == b["_entity"]
        )
        assert evaluation.recall > 0.2  # blocking costs real recall here:
        # the dirtier duplicates often corrupt the first characters of
        # the name, so prefix blocking drops those true pairs entirely


class TestThresholdSweep:
    def test_e7_shape(self, dup_data):
        """Precision rises / recall falls with the threshold; F1 peaks
        at an interior point."""
        records, _ = dup_data
        finder = DuplicateFinder(make_model())
        rows = finder.threshold_sweep(
            records,
            lambda a, b: a["_entity"] == b["_entity"],
            thresholds=[-5.0, 0.0, 3.0, 6.0, 9.0, 12.0],
        )
        precisions = [r["precision"] for r in rows]
        recalls = [r["recall"] for r in rows]
        # Monotone shapes (weak).
        assert all(a <= b + 1e-9 for a, b in zip(precisions, precisions[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
        # Interior F1 peak: best threshold is neither the loosest nor the
        # strictest.
        best = max(rows, key=lambda r: r["f1"])
        assert rows[0]["f1"] < best["f1"]
        assert rows[-1]["f1"] < best["f1"]

    def test_requires_thresholds(self, dup_data):
        records, _ = dup_data
        finder = DuplicateFinder(make_model())
        with pytest.raises(Exception):
            finder.threshold_sweep(records, lambda a, b: False, [])


class TestEvaluationMetrics:
    def test_degenerate_cases(self):
        from repro.linkage.dedup import DedupEvaluation

        perfect = DedupEvaluation(10, 0, 0)
        assert perfect.precision == perfect.recall == perfect.f1 == 1.0
        nothing = DedupEvaluation(0, 0, 0)
        assert nothing.precision == 1.0 and nothing.recall == 1.0
        bad = DedupEvaluation(0, 5, 5)
        assert bad.f1 == 0.0
