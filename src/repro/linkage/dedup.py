"""Duplicate detection over relations, built on Fellegi–Sunter.

:class:`DuplicateFinder` ties the pieces together for the data quality
administrator: generate candidate pairs (optionally blocked), score
them with a :class:`~repro.linkage.fellegi_sunter.FellegiSunterModel`,
and report links/possible links plus evaluation metrics when the true
duplicate structure is known (benchmark E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import LinkageError
from repro.linkage.blocking import BlockingKey, block_pairs, full_pairs
from repro.linkage.fellegi_sunter import FellegiSunterModel, MatchDecision
from repro.relational.relation import Relation

Record = Mapping[str, Any]


@dataclass(frozen=True)
class LinkResult:
    """One scored candidate pair."""

    left_index: int
    right_index: int
    weight: float
    decision: MatchDecision


@dataclass
class DedupEvaluation:
    """Precision/recall of the LINK decisions against known truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


class DuplicateFinder:
    """Finds duplicate records in one file (relation or record list)."""

    def __init__(
        self,
        model: FellegiSunterModel,
        blocking_keys: Sequence[BlockingKey] = (),
    ) -> None:
        self.model = model
        self.blocking_keys = tuple(blocking_keys)

    # -- record extraction ----------------------------------------------------

    @staticmethod
    def _records(data: Relation | Sequence[Record]) -> list[Record]:
        if isinstance(data, Relation):
            return data.to_dicts()
        return list(data)

    # -- scoring ----------------------------------------------------------------

    def candidate_pairs(
        self, records: Sequence[Record]
    ) -> list[tuple[int, int]]:
        """The comparison space (blocked when keys are configured)."""
        if self.blocking_keys:
            return list(block_pairs(records, self.blocking_keys))
        return list(full_pairs(records))

    def score_pairs(self, data: Relation | Sequence[Record]) -> list[LinkResult]:
        """Score every candidate pair; sorted by descending weight."""
        records = self._records(data)
        results = []
        for i, j in self.candidate_pairs(records):
            weight = self.model.weight(records[i], records[j])
            results.append(
                LinkResult(i, j, weight, self._decide_from_weight(weight))
            )
        results.sort(key=lambda r: (-r.weight, r.left_index, r.right_index))
        return results

    def _decide_from_weight(self, weight: float) -> MatchDecision:
        if weight >= self.model.upper_threshold:
            return MatchDecision.LINK
        if weight > self.model.lower_threshold:
            return MatchDecision.POSSIBLE
        return MatchDecision.NON_LINK

    def links(self, data: Relation | Sequence[Record]) -> list[LinkResult]:
        """Pairs decided LINK."""
        return [r for r in self.score_pairs(data) if r.decision is MatchDecision.LINK]

    def duplicate_clusters(
        self, data: Relation | Sequence[Record]
    ) -> list[set[int]]:
        """Connected components of the LINK graph (clusters of duplicates)."""
        records = self._records(data)
        parent = list(range(len(records)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for result in self.links(records):
            union(result.left_index, result.right_index)
        clusters: dict[int, set[int]] = {}
        for index in range(len(records)):
            clusters.setdefault(find(index), set()).add(index)
        return [c for c in clusters.values() if len(c) > 1]

    # -- evaluation -----------------------------------------------------------------

    def evaluate(
        self,
        data: Relation | Sequence[Record],
        true_pair: Callable[[Record, Record], bool],
    ) -> DedupEvaluation:
        """Precision/recall of LINK decisions against ground truth.

        ``true_pair(a, b)`` says whether two records are really the same
        entity.  Recall is computed over the *full* pair space, so
        blocking that drops true pairs correctly costs recall.
        """
        records = self._records(data)
        linked = {
            (r.left_index, r.right_index)
            for r in self.score_pairs(records)
            if r.decision is MatchDecision.LINK
        }
        tp = fp = fn = 0
        for i, j in full_pairs(records):
            is_true = true_pair(records[i], records[j])
            is_linked = (i, j) in linked
            if is_true and is_linked:
                tp += 1
            elif is_linked:
                fp += 1
            elif is_true:
                fn += 1
        return DedupEvaluation(tp, fp, fn)

    def threshold_sweep(
        self,
        data: Relation | Sequence[Record],
        true_pair: Callable[[Record, Record], bool],
        thresholds: Sequence[float],
    ) -> list[dict[str, float]]:
        """Precision/recall/F1 across upper-threshold settings (E7).

        The expected shape: precision rises and recall falls with the
        threshold; F1 peaks at an interior value.
        """
        if not thresholds:
            raise LinkageError("threshold_sweep requires thresholds")
        records = self._records(data)
        scored = self.score_pairs(records)
        truth = {
            (i, j)
            for i, j in full_pairs(records)
            if true_pair(records[i], records[j])
        }
        rows = []
        for threshold in thresholds:
            linked = {
                (r.left_index, r.right_index)
                for r in scored
                if r.weight >= threshold
            }
            tp = len(linked & truth)
            fp = len(linked - truth)
            fn = len(truth - linked)
            evaluation = DedupEvaluation(tp, fp, fn)
            rows.append(
                {
                    "threshold": threshold,
                    "precision": evaluation.precision,
                    "recall": evaluation.recall,
                    "f1": evaluation.f1,
                }
            )
        return rows
