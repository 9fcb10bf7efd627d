"""Step 4: quality view integration and application view refinement.

"Much like schema integration, when the design is large and more than
one set of application requirements is involved, multiple quality views
may result.  To eliminate redundancy and inconsistency, these views must
be consolidated into a single global view."  (§3.4)

Three mechanisms are implemented:

1. **Union with deduplication** — identical (target, indicator)
   annotations from different views merge, keeping the union of their
   parameter provenance.
2. **Derivability analysis** — a registry of
   :class:`DerivabilityRule` objects captures facts like *age is
   computable from creation time (given current time)*; when both
   indicators annotate the same target, the derived one is dropped in
   favour of the base (the paper's worked example).
3. **Application view refinement** — Premise 1.1 reclassification: a
   quality indicator may be promoted into an application attribute (the
   paper's *company name* example), or an application attribute demoted
   to an indicator.  Refinements are explicit design-team decisions
   passed into :func:`integrate_views`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.terminology import QualityIndicatorSpec
from repro.core.views import (
    ApplicationView,
    IndicatorAnnotation,
    QualitySchema,
    QualityView,
)
from repro.er.model import ERAttribute
from repro.errors import ViewIntegrationError


class DerivabilityRule:
    """Records that ``derived`` is computable from ``base``.

    When both appear at the same target during integration, ``derived``
    is removed and a note documents the decision.
    """

    __slots__ = ("derived", "base", "explanation")

    def __init__(self, derived: str, base: str, explanation: str) -> None:
        self.derived = derived
        self.base = base
        self.explanation = explanation

    def __repr__(self) -> str:
        return f"DerivabilityRule({self.derived!r} ← {self.base!r})"


#: Built-in rules, led by the paper's own example: "one quality view may
#: have age as an indicator, whereas another ... creation time.  The
#: design team may choose creation time ... because age can be computed
#: given current time and creation time."
DEFAULT_DERIVABILITY_RULES: tuple[DerivabilityRule, ...] = (
    DerivabilityRule(
        "age",
        "creation_time",
        "age is computable as (current time − creation time)",
    ),
    DerivabilityRule(
        "coverage_ratio",
        "population_method",
        "coverage can be estimated from how the table was populated",
    ),
)


class Refinement:
    """One application-view refinement decision (Premise 1.1).

    ``kind`` is ``"promote"`` (indicator → application attribute, the
    paper's company-name example) or ``"demote"`` (application attribute
    → quality indicator, the bank-teller example).
    """

    PROMOTE = "promote"
    DEMOTE = "demote"

    def __init__(
        self,
        kind: str,
        owner: str,
        name: str,
        rationale: str = "",
        domain: str = "STR",
    ) -> None:
        if kind not in (self.PROMOTE, self.DEMOTE):
            raise ViewIntegrationError(
                f"unknown refinement kind {kind!r} (promote/demote)"
            )
        self.kind = kind
        self.owner = owner  # entity or relationship name
        self.name = name  # indicator or attribute name
        self.rationale = rationale
        self.domain = domain

    def describe(self) -> str:
        if self.kind == self.PROMOTE:
            action = (
                f"promote quality indicator {self.name!r} on {self.owner!r} "
                f"to an application attribute"
            )
        else:
            action = (
                f"demote application attribute {self.owner}.{self.name} "
                f"to a quality indicator"
            )
        if self.rationale:
            action += f" — {self.rationale}"
        return action

    def __repr__(self) -> str:
        return f"Refinement({self.describe()})"


def _check_same_application_view(views: Sequence[QualityView]) -> ApplicationView:
    """All component views must share one application view structure.

    Full ER *schema integration* across different application views is
    classical database design ([2], cited by the paper) and out of the
    methodology's scope; Step 4 integrates *quality* views over a common
    application view.
    """
    first = views[0].application_view
    reference = first.er_schema.to_dict()
    for view in views[1:]:
        if view.application_view.er_schema.to_dict() != reference:
            raise ViewIntegrationError(
                "component quality views are defined over different "
                "application views; integrate the application views first "
                "(schema integration, Batini et al. [2])"
            )
    return first


def _dedupe_annotations(
    views: Sequence[QualityView], notes: list[str]
) -> list[IndicatorAnnotation]:
    merged: dict[tuple[tuple[str, ...], str], IndicatorAnnotation] = {}
    conflicts: list[str] = []
    for view in views:
        for annotation in view.annotations:
            key = (annotation.target, annotation.indicator.name)
            existing = merged.get(key)
            if existing is None:
                merged[key] = annotation
                continue
            if existing.indicator.domain != annotation.indicator.domain:
                conflicts.append(
                    f"indicator {annotation.indicator.name!r} at "
                    f"{'.'.join(annotation.target)} has conflicting domains "
                    f"({existing.indicator.domain.name} vs "
                    f"{annotation.indicator.domain.name})"
                )
                continue
            merged[key] = IndicatorAnnotation(
                existing.target,
                existing.indicator,
                derived_from=tuple(
                    dict.fromkeys(existing.derived_from + annotation.derived_from)
                ),
                rationale=existing.rationale or annotation.rationale,
                mandatory=existing.mandatory or annotation.mandatory,
            )
            notes.append(
                f"merged duplicate annotation {annotation.indicator.name!r} at "
                f"{'.'.join(annotation.target)} from multiple views"
            )
    if conflicts:
        raise ViewIntegrationError(
            "quality view integration found domain conflicts: "
            + "; ".join(conflicts)
        )
    return list(merged.values())


def _apply_derivability(
    annotations: list[IndicatorAnnotation],
    rules: Sequence[DerivabilityRule],
    notes: list[str],
) -> list[IndicatorAnnotation]:
    by_target: dict[tuple[str, ...], set[str]] = {}
    for annotation in annotations:
        by_target.setdefault(annotation.target, set()).add(
            annotation.indicator.name
        )
    keep: list[IndicatorAnnotation] = []
    for annotation in annotations:
        dropped = False
        for rule in rules:
            present = by_target[annotation.target]
            if (
                annotation.indicator.name == rule.derived
                and rule.base in present
            ):
                base_annotation = next(
                    a
                    for a in annotations
                    if a.target == annotation.target
                    and a.indicator.name == rule.base
                )
                base_annotation.derived_from = tuple(
                    dict.fromkeys(
                        base_annotation.derived_from + annotation.derived_from
                    )
                )
                notes.append(
                    f"dropped {rule.derived!r} at "
                    f"{'.'.join(annotation.target)} in favour of "
                    f"{rule.base!r}: {rule.explanation}"
                )
                dropped = True
                break
        if not dropped:
            keep.append(annotation)
    return keep


def _apply_refinements(
    application_view: ApplicationView,
    annotations: list[IndicatorAnnotation],
    refinements: Sequence[Refinement],
    notes: list[str],
) -> tuple[ApplicationView, list[IndicatorAnnotation]]:
    if not refinements:
        return application_view, annotations
    er_schema = application_view.er_schema.copy()
    result = list(annotations)
    for refinement in refinements:
        kind, _ = er_schema.resolve_target((refinement.owner,))
        if kind not in ("entity", "relationship"):  # pragma: no cover
            raise ViewIntegrationError(
                f"refinement owner {refinement.owner!r} is not an entity "
                f"or relationship"
            )
        owner_obj = (
            er_schema.entity(refinement.owner)
            if kind == "entity"
            else er_schema.relationship(refinement.owner)
        )
        if refinement.kind == Refinement.PROMOTE:
            victims = [
                a
                for a in result
                if a.target[0] == refinement.owner
                and a.indicator.name == refinement.name
            ]
            if not victims:
                raise ViewIntegrationError(
                    f"cannot promote {refinement.name!r}: no such indicator "
                    f"annotation under {refinement.owner!r}"
                )
            domain = victims[0].indicator.domain
            owner_obj.add_attribute(ERAttribute(refinement.name, domain))
            result = [a for a in result if a not in victims]
        else:  # DEMOTE
            attribute = owner_obj.attribute(refinement.name)
            if kind == "entity" and refinement.name in owner_obj.key:
                raise ViewIntegrationError(
                    f"cannot demote key attribute {refinement.name!r} of "
                    f"{refinement.owner!r}"
                )
            owner_obj.remove_attribute(refinement.name)
            result = [
                a
                for a in result
                if a.target != (refinement.owner, refinement.name)
            ]
            result.append(
                IndicatorAnnotation(
                    (refinement.owner,),
                    QualityIndicatorSpec(
                        refinement.name,
                        attribute.domain,
                        doc=refinement.rationale
                        or f"demoted from application attribute "
                        f"{refinement.owner}.{refinement.name}",
                    ),
                    rationale=refinement.rationale,
                    mandatory=False,
                )
            )
        notes.append(refinement.describe())
    refined_view = ApplicationView(er_schema, application_view.requirements_doc)
    return refined_view, result


def integrate_views(
    quality_views: Sequence[QualityView],
    rules: Sequence[DerivabilityRule] = DEFAULT_DERIVABILITY_RULES,
    refinements: Sequence[Refinement] = (),
) -> QualitySchema:
    """Consolidate quality views into one integrated quality schema.

    Order of operations: structural check → union/dedup → derivability
    reduction → application-view refinement.  Every decision taken is
    recorded in the schema's ``integration_notes``.
    """
    if not quality_views:
        raise ViewIntegrationError("integration requires at least one quality view")
    notes: list[str] = []
    application_view = _check_same_application_view(quality_views)
    if len(quality_views) == 1:
        notes.append(
            "single quality view: no cross-view integration necessary (§3.4)"
        )
    annotations = _dedupe_annotations(quality_views, notes)
    annotations = _apply_derivability(annotations, rules, notes)
    application_view, annotations = _apply_refinements(
        application_view, annotations, refinements, notes
    )
    return QualitySchema(
        application_view,
        annotations,
        component_views=quality_views,
        integration_notes=notes,
    )
