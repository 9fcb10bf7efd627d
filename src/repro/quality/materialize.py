"""Materialized, incrementally maintained parameter scores.

ROADMAP item 4 (the paper's Step 2/3 at scale): registered
:class:`~repro.quality.scoring.ParameterScorer` functions map objective
*indicators* to subjective *parameters* (timeliness, credibility), and
the acceptable score is context-relative — the §4 mass-mailing vs
fund-raising example.  This module makes those scores first-class
storage:

- a :class:`ScoringProfile` names one application view: its parameter
  scorers, the scoring context (e.g. ``today``), and per-parameter
  acceptability thresholds;
- a module-level registry binds profiles to relations *by schema name*,
  so frozen :meth:`~repro.tagging.relation.TaggedRelation.read_snapshot`
  copies (same schema object, different relation object) resolve to the
  same profile — service snapshots read frozen score columns for free;
- a :class:`ScoreMaterializer` reads **score blocks** kept beside the
  relation's value and tag arrays: one aligned
  ``parameter → [score | None]`` array per segment (the relation
  itself, or one partition shard), cached on that segment against its
  epoch, its row count and the profile's registration
  (:class:`~repro.relational.versioned.Carried`).  A block is rescored
  only for the rows appended since it was built, and a read snapshot
  extends its predecessor's blocks the same way — the incremental-
  maintenance contract the BENCH_SCORING floor enforces.

The QSQL surface reads these blocks: wherever ``QUALITY(credibility)``
appears (a WHERE leaf, an ORDER BY key, an aggregate input, a select
item), the physical executor's operand reads the block's
:meth:`ScoreMaterializer.score_array` while the relation's bound
profile defines the parameter.

Observability (under :func:`repro.obs.metrics.enabled`): per refresh,
``scores.recomputed`` counts the rows actually scored and
``scores.reused`` the rows served without scoring (fresh blocks and the
part of a block carried over); the ``scores.staleness`` gauge reports
the fraction of score blocks found stale on the most recent refresh.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.errors import AssessmentError
from repro.obs import metrics as _obs_metrics
from repro.quality.scoring import ParameterScorer
from repro.relational.versioned import carry
from repro.tagging.query import OPERATORS
from repro.tagging.relation import TaggedRelation

__all__ = [
    "ScoreMaterializer",
    "ScoringProfile",
    "bind_profile",
    "clear_profiles",
    "materializer_for",
    "parameter_defined",
    "profile_for",
    "register_profile",
    "registered_profiles",
    "registry_version",
]

class ScoringProfile:
    """One application view's parameter scorers and thresholds.

    Parameters
    ----------
    name:
        The view's name (e.g. ``"fund_raising"``).
    scorers:
        The :class:`ParameterScorer` objects defining this view's
        parameters; parameter names must be unique.
    context:
        The scoring context passed to every scorer (e.g. ``today`` for
        timeliness decay).
    thresholds:
        Optional per-parameter acceptability thresholds in [0, 1] —
        the context-dependent cut the application considers "good
        enough" (documentation + tooling; queries state their own).
    doc:
        Human-readable description of the view.
    """

    def __init__(
        self,
        name: str,
        scorers: Sequence[ParameterScorer],
        *,
        context: Optional[Mapping[str, Any]] = None,
        thresholds: Optional[Mapping[str, float]] = None,
        doc: str = "",
    ) -> None:
        if not name:
            raise AssessmentError("scoring profile must be named")
        if not scorers:
            raise AssessmentError(
                f"scoring profile {name!r} requires at least one scorer"
            )
        parameters = [scorer.parameter for scorer in scorers]
        if len(set(parameters)) != len(parameters):
            raise AssessmentError(
                f"scoring profile {name!r} has duplicate parameters: "
                f"{parameters}"
            )
        self.name = name
        self.scorers: dict[str, ParameterScorer] = {
            scorer.parameter: scorer for scorer in scorers
        }
        self.context = dict(context or {})
        self.thresholds = dict(thresholds or {})
        unknown = set(self.thresholds) - set(parameters)
        if unknown:
            raise AssessmentError(
                f"scoring profile {name!r} has thresholds for unknown "
                f"parameters: {sorted(unknown)}"
            )
        for parameter, threshold in self.thresholds.items():
            if not 0.0 <= float(threshold) <= 1.0:
                raise AssessmentError(
                    f"threshold for {parameter!r} must be in [0, 1], "
                    f"got {threshold!r}"
                )
        self.doc = doc
        #: Assigned by :func:`register_profile`; cached plans, strict
        #: verdicts and score blocks that read the profile record it.
        self.version = 0

    @property
    def parameters(self) -> tuple[str, ...]:
        """The parameter names this profile defines, in scorer order."""
        return tuple(self.scorers)

    def defines(self, parameter: str) -> bool:
        return parameter in self.scorers

    def scorer(self, parameter: str) -> ParameterScorer:
        try:
            return self.scorers[parameter]
        except KeyError:
            raise AssessmentError(
                f"scoring profile {self.name!r} defines no parameter "
                f"{parameter!r} (defined: {list(self.scorers)})"
            ) from None

    def threshold(self, parameter: str) -> Optional[float]:
        """The view's acceptability cut for ``parameter`` (or None)."""
        return self.thresholds.get(parameter)

    def __repr__(self) -> str:
        return (
            f"ScoringProfile({self.name!r}, "
            f"parameters={list(self.scorers)})"
        )


# -- the profile registry -----------------------------------------------------

_registry_lock = threading.RLock()
_profiles: dict[str, ScoringProfile] = {}
_bindings: dict[str, str] = {}  # relation/schema name → profile name
_registry_version = 0


def registry_version() -> int:
    """Monotonic registry mutation counter."""
    return _registry_version


def register_profile(
    profile: ScoringProfile,
    relations: Iterable[str] = (),
) -> ScoringProfile:
    """Register (or replace) a profile, optionally binding relations.

    Every registration bumps :func:`registry_version` and stamps the
    profile's ``version``, so cached plans and verdicts that read the
    old registration replan and stale materializations rebuild.
    """
    global _registry_version
    with _registry_lock:
        _registry_version += 1
        profile.version = _registry_version
        _profiles[profile.name] = profile
        for relation in relations:
            _bindings[relation] = profile.name
    return profile


def bind_profile(relation_name: str, profile_name: str) -> None:
    """Bind one relation (by schema name) to a registered profile."""
    global _registry_version
    with _registry_lock:
        if profile_name not in _profiles:
            raise AssessmentError(
                f"unknown scoring profile {profile_name!r} "
                f"(registered: {sorted(_profiles)})"
            )
        _bindings[relation_name] = profile_name
        _registry_version += 1


def profile_for(source: Any) -> Optional[ScoringProfile]:
    """The profile bound to a relation (object or schema name), or None.

    Resolution is by *schema name*, so a frozen ``read_snapshot()``
    relation resolves exactly like the live relation it was cut from.
    """
    if isinstance(source, str):
        name = source
    else:
        schema = getattr(source, "schema", None)
        name = getattr(schema, "name", None)
    if name is None:
        return None
    with _registry_lock:
        profile_name = _bindings.get(name)
        if profile_name is None:
            return None
        return _profiles.get(profile_name)


def registered_profiles() -> dict[str, ScoringProfile]:
    """A copy of the registered profiles, by name."""
    with _registry_lock:
        return dict(_profiles)


def parameter_defined(parameter: str) -> bool:
    """True when *any* registered profile defines ``parameter``."""
    with _registry_lock:
        return any(
            profile.defines(parameter) for profile in _profiles.values()
        )


def clear_profiles() -> None:
    """Drop every profile and binding (test isolation support)."""
    global _registry_version
    with _registry_lock:
        _profiles.clear()
        _bindings.clear()
        _registry_version += 1


# -- per-row scoring ----------------------------------------------------------


def row_parameter_score(
    profile: ScoringProfile,
    parameter: str,
    row: Any,
    positions: Sequence[int],
) -> Optional[float]:
    """One row's parameter score: mean over its scorable tagged cells.

    ``positions`` are the cell positions of the relation's tagged
    columns; cells the scorer cannot score (missing tags) drop out, and
    a row with no scorable cell scores ``None`` (SQL NULL semantics).
    """
    scorer = profile.scorer(parameter)
    context = profile.context
    cells = row.cells
    total = 0.0
    scorable = 0
    for position in positions:
        score = scorer.score(cells[position], context)
        if score is not None:
            total += score
            scorable += 1
    if not scorable:
        return None
    return total / scorable


def tagged_positions(relation: TaggedRelation) -> tuple[int, ...]:
    """Cell positions of the relation's tagged columns (schema order)."""
    index_of = relation.schema.index_of
    return tuple(
        index_of(column) for column in relation.tag_schema.tagged_columns
    )


def _record_refresh(recomputed: int, reused: int, staleness: float) -> None:
    registry = _obs_metrics.global_registry()
    registry.counter(
        "scores.recomputed", "row-scores recomputed by materializer refresh"
    ).inc(recomputed)
    registry.counter(
        "scores.reused", "row-scores served without scoring (fresh or carried over)"
    ).inc(reused)
    registry.gauge(
        "scores.staleness",
        "fraction of score blocks found stale on the last refresh",
    ).set(staleness)


def _score_block(
    segment: TaggedRelation,
    profile: ScoringProfile,
    base: Optional[dict[str, list[Optional[float]]]],
    count: int,
) -> dict[str, list[Optional[float]]]:
    """``segment``'s ``parameter → scores`` block, each array carried
    over from ``base``'s (:func:`~repro.relational.versioned.carry`)."""
    rows = segment.row_batch()
    positions = tagged_positions(segment)
    block: dict[str, list[Optional[float]]] = {}
    for parameter in profile.parameters:

        def score(fresh: list) -> list[Optional[float]]:
            return [
                row_parameter_score(profile, parameter, row, positions)
                for row in fresh
            ]

        block[parameter] = carry(
            None if base is None else base[parameter], count, rows, score
        )
    return block


class ScoreMaterializer:
    """Materialized score columns for one tagged relation.

    Blocks mirror the relation's storage layout: one per partition
    shard (by bucket) plus an on-demand flat block (the relation's own
    row order) for unpruned access.  Each block lives on its segment
    and follows it through appends and snapshot generations: a refresh
    scores only the rows appended since the block was built, and a
    rewrite of the segment (delete, update, redistribution) or a
    profile re-registration scores it from scratch.
    """

    def __init__(self, relation: TaggedRelation) -> None:
        # A weak backref: the module cache maps relation → materializer,
        # and a strong ref here would make those entries immortal.
        self._relation_ref = weakref.ref(relation)

    # -- plumbing -------------------------------------------------------------

    def _relation(self) -> TaggedRelation:
        relation = self._relation_ref()
        if relation is None:  # pragma: no cover - defensive
            raise AssessmentError("the materialized relation was dropped")
        return relation

    def _ensure_blocks(
        self, relation: TaggedRelation, buckets: Sequence[Optional[int]]
    ) -> tuple[ScoringProfile, list[dict[str, list[Optional[float]]]]]:
        """Bring the named blocks (bucket ``None``: the flat block) up to
        date; returns the bound profile and the blocks, in order."""
        profile = profile_for(relation)
        if profile is None:
            raise AssessmentError(
                f"no scoring profile is bound to relation "
                f"{relation.schema.name!r}; register one with "
                f"repro.quality.materialize.register_profile"
            )
        generation = (profile, profile.version)
        scored = 0
        stale = 0
        total = 0
        blocks = []
        for bucket in buckets:
            segment = relation if bucket is None else relation.partition(bucket)

            def make(base: Any, count: int) -> dict:
                nonlocal scored, stale
                stale += 1
                scored += len(segment) - min(count, len(segment))
                return _score_block(segment, profile, base, count)

            blocks.append(
                segment._derived.fetch("scores", segment, make, generation)
            )
            total += len(segment)
        if _obs_metrics.enabled():
            _record_refresh(
                scored, total - scored, stale / len(buckets) if buckets else 0.0
            )
        return profile, blocks

    def _block(
        self, bucket: Optional[int]
    ) -> tuple[ScoringProfile, dict[str, list[Optional[float]]]]:
        profile, blocks = self._ensure_blocks(self._relation(), [bucket])
        return profile, blocks[0]

    # -- public API -----------------------------------------------------------

    def refresh(self) -> None:
        """Bring every storage-layout block up to date (incrementally).

        Partitioned relations refresh one block per shard — only shards
        written since their last refresh score anything, and only their
        appended rows unless the shard was rewritten; unpartitioned
        relations refresh the single flat block.
        """
        relation = self._relation()
        if relation.partition_spec is None:
            buckets: list[Optional[int]] = [None]
        else:
            buckets = list(range(relation.partition_spec.count))
        self._ensure_blocks(relation, buckets)

    def row_scores(
        self, parameter: str, bucket: Optional[int] = None
    ) -> list[Optional[float]]:
        """A copy of :meth:`score_array`."""
        return list(self.score_array(parameter, bucket))

    def score_array(
        self, parameter: str, bucket: Optional[int] = None
    ) -> list[Optional[float]]:
        """The materialized score array for one block (flat by default),
        aligned with that block's row order — the block's own list, not
        a copy (treat as read-only)."""
        profile, block = self._block(bucket)
        if parameter not in block:
            raise AssessmentError(
                f"scoring profile {profile.name!r} defines no "
                f"parameter {parameter!r} "
                f"(defined: {list(profile.parameters)})"
            )
        return block[parameter]

    def filter_indices(
        self,
        constraints: Sequence[tuple[str, str, Any]],
        bucket: Optional[int] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Row indices of one block satisfying a score conjunction.

        Each constraint is ``(parameter, op, operand)`` with ``op``
        from :data:`repro.tagging.query.OPERATORS`.  ``None`` scores
        (no scorable cell) never match, mirroring SQL NULL semantics.
        ``candidates`` restricts the scan to those (ascending) indices.
        """
        profile, block = self._block(bucket)
        hits: Optional[list[int]] = (
            None if candidates is None else list(candidates)
        )
        for parameter, op, operand in constraints:
            if op not in OPERATORS:
                raise AssessmentError(f"unknown operator {op!r}")
            if parameter not in block:
                raise AssessmentError(
                    f"scoring profile {profile.name!r} defines no "
                    f"parameter {parameter!r} "
                    f"(defined: {list(profile.parameters)})"
                )
            compare = OPERATORS[op]
            array = block[parameter]
            survivors: list[int] = []
            emit = survivors.append
            pool = range(len(array)) if hits is None else hits
            for index in pool:
                score = array[index]
                if score is None:
                    continue
                try:
                    if compare(score, operand):
                        emit(index)
                except TypeError:
                    continue
            hits = survivors
            if not hits:
                break
        return hits if hits is not None else []


# -- the per-relation materializer cache --------------------------------------

_materializers: "weakref.WeakKeyDictionary[TaggedRelation, ScoreMaterializer]"
_materializers = weakref.WeakKeyDictionary()
_materializers_lock = threading.Lock()


def materializer_for(relation: TaggedRelation) -> ScoreMaterializer:
    """The (cached) score materializer of one tagged relation object.

    Keyed weakly by the relation object itself, and dropped relations
    release it.  The score blocks themselves live on the segments they
    score, so a new snapshot's materializer extends the blocks of the
    snapshot before it.
    """
    with _materializers_lock:
        materializer = _materializers.get(relation)
        if materializer is None:
            materializer = ScoreMaterializer(relation)
            _materializers[relation] = materializer
        return materializer
