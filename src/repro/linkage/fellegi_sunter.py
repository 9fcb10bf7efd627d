"""The Fellegi–Sunter probabilistic record-linkage model [10].

For each compared field, the model holds an *m*-probability (the field
agrees given the pair is a true match) and a *u*-probability (the field
agrees given a non-match).  A pair's total match weight is the sum of
per-field log2 likelihood ratios: ``log2(m/u)`` on agreement,
``log2((1-m)/(1-u))`` on disagreement.  Two thresholds partition pairs
into links, possible links (clerical review), and non-links.

``estimate_u_from_data`` and the simple EM routine let the model be fit
without labelled pairs, as in the classical formulation.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Mapping, Sequence

from repro.errors import LinkageError

Comparator = Callable[[Any, Any], float]


class MatchDecision(enum.Enum):
    """The Fellegi–Sunter three-way decision."""

    LINK = "link"
    POSSIBLE = "possible"
    NON_LINK = "non_link"


class FieldModel:
    """m/u probabilities and comparator for one field.

    Parameters
    ----------
    field:
        Record field name.
    comparator:
        Similarity in [0, 1]; values ≥ ``agree_threshold`` count as
        agreement.
    m / u:
        Conditional agreement probabilities (0 < u < m < 1 normally —
        an informative field agrees more often among matches).
    """

    def __init__(
        self,
        field: str,
        comparator: Comparator,
        m: float = 0.9,
        u: float = 0.1,
        agree_threshold: float = 0.85,
    ) -> None:
        if not 0.0 < m < 1.0 or not 0.0 < u < 1.0:
            raise LinkageError(f"m and u must be in (0, 1); got m={m}, u={u}")
        if not 0.0 < agree_threshold <= 1.0:
            raise LinkageError("agree_threshold must be in (0, 1]")
        self.field = field
        self.comparator = comparator
        self.m = m
        self.u = u
        self.agree_threshold = agree_threshold

    def agrees(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
        """Whether the two records agree on this field."""
        return self.comparator(a.get(self.field), b.get(self.field)) >= self.agree_threshold

    @property
    def agreement_weight(self) -> float:
        """log2(m/u): evidence for a match when the field agrees."""
        return math.log2(self.m / self.u)

    @property
    def disagreement_weight(self) -> float:
        """log2((1-m)/(1-u)): evidence against when the field disagrees."""
        return math.log2((1.0 - self.m) / (1.0 - self.u))

    def weight(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
        """This field's contribution to the pair's match weight."""
        return self.agreement_weight if self.agrees(a, b) else self.disagreement_weight

    def __repr__(self) -> str:
        return f"FieldModel({self.field!r}, m={self.m}, u={self.u})"


class FellegiSunterModel:
    """A full linkage model: field models + decision thresholds."""

    def __init__(
        self,
        fields: Sequence[FieldModel],
        upper_threshold: float = 3.0,
        lower_threshold: float = 0.0,
    ) -> None:
        if not fields:
            raise LinkageError("model requires at least one field")
        names = [f.field for f in fields]
        if len(set(names)) != len(names):
            raise LinkageError(f"duplicate field models: {names}")
        if lower_threshold > upper_threshold:
            raise LinkageError(
                "lower_threshold must not exceed upper_threshold"
            )
        self.fields = tuple(fields)
        self.upper_threshold = upper_threshold
        self.lower_threshold = lower_threshold

    # -- scoring ------------------------------------------------------------

    def weight(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
        """Total match weight of one pair."""
        return sum(field.weight(a, b) for field in self.fields)

    def decide(self, a: Mapping[str, Any], b: Mapping[str, Any]) -> MatchDecision:
        """Three-way decision for one pair."""
        weight = self.weight(a, b)
        if weight >= self.upper_threshold:
            return MatchDecision.LINK
        if weight > self.lower_threshold:
            return MatchDecision.POSSIBLE
        return MatchDecision.NON_LINK

    def agreement_pattern(
        self, a: Mapping[str, Any], b: Mapping[str, Any]
    ) -> tuple[bool, ...]:
        """The comparison vector (per-field agreement booleans)."""
        return tuple(field.agrees(a, b) for field in self.fields)

    # -- estimation ------------------------------------------------------------------

    def estimate_u_from_data(
        self,
        records: Sequence[Mapping[str, Any]],
        max_pairs: int = 20000,
    ) -> None:
        """Estimate u-probabilities from random (mostly non-match) pairs.

        Classic approximation: among all cross pairs of a file, true
        matches are rare, so the observed agreement rate estimates u.
        Deterministic: uses a strided sample of the pair space.
        """
        n = len(records)
        if n < 2:
            raise LinkageError("need at least two records to estimate u")
        total_pairs = n * (n - 1) // 2
        stride = max(1, total_pairs // max_pairs)
        agree_counts = [0] * len(self.fields)
        sampled = 0
        index = 0
        for i in range(n):
            for j in range(i + 1, n):
                if index % stride == 0:
                    sampled += 1
                    for k, field in enumerate(self.fields):
                        if field.agrees(records[i], records[j]):
                            agree_counts[k] += 1
                index += 1
        for k, field in enumerate(self.fields):
            u = agree_counts[k] / sampled if sampled else 0.5
            field.u = min(max(u, 1e-4), 1.0 - 1e-4)

    def fit_em(
        self,
        pairs: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]],
        iterations: int = 20,
        initial_match_rate: float = 0.1,
    ) -> float:
        """Fit m/u by expectation-maximization over unlabelled pairs.

        Uses the conditional-independence two-class mixture.  Returns the
        final estimated match proportion.  Probabilities are clamped away
        from 0/1 for numerical stability.
        """
        if not pairs:
            raise LinkageError("EM requires at least one pair")
        if not 0.0 < initial_match_rate < 1.0:
            raise LinkageError("initial_match_rate must be in (0, 1)")
        patterns = [self.agreement_pattern(a, b) for a, b in pairs]
        p = initial_match_rate
        m = [field.m for field in self.fields]
        u = [field.u for field in self.fields]

        def clamp(x: float) -> float:
            return min(max(x, 1e-4), 1.0 - 1e-4)

        for _ in range(iterations):
            # E step: responsibility of the match class for each pattern.
            responsibilities = []
            for pattern in patterns:
                like_m = p
                like_u = 1.0 - p
                for k, agrees in enumerate(pattern):
                    like_m *= m[k] if agrees else (1.0 - m[k])
                    like_u *= u[k] if agrees else (1.0 - u[k])
                total = like_m + like_u
                responsibilities.append(like_m / total if total > 0 else 0.5)
            # M step.
            weight_sum = sum(responsibilities)
            p = clamp(weight_sum / len(patterns))
            for k in range(len(self.fields)):
                agree_m = sum(
                    r for r, pattern in zip(responsibilities, patterns) if pattern[k]
                )
                agree_u = sum(
                    (1.0 - r)
                    for r, pattern in zip(responsibilities, patterns)
                    if pattern[k]
                )
                m[k] = clamp(agree_m / weight_sum) if weight_sum else m[k]
                non_match_sum = len(patterns) - weight_sum
                u[k] = clamp(agree_u / non_match_sum) if non_match_sum else u[k]
        for k, field in enumerate(self.fields):
            field.m = m[k]
            field.u = u[k]
        return p

    def __repr__(self) -> str:
        return (
            f"FellegiSunterModel({[f.field for f in self.fields]}, "
            f"thresholds=({self.lower_threshold}, {self.upper_threshold}))"
        )
