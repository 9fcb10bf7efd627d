"""The four steps of the data quality modeling methodology (Figure 2).

Each step is a small class with ``input`` / ``output`` documented in the
paper's terms and a ``run`` method performing the transformation.  Steps
validate their inputs and record human decisions so that the resulting
artifacts are auditable (the "quality requirements specification
documentation" the paper asks for at each step).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.catalog import CandidateCatalog, default_catalog
from repro.core.terminology import (
    AttributeKind,
    QualityIndicatorSpec,
    QualityParameter,
)
from repro.core.views import (
    ApplicationView,
    INSPECTION_PARAMETER,
    IndicatorAnnotation,
    ParameterAnnotation,
    ParameterView,
    QualityView,
)
from repro.er.model import ERSchema
from repro.er.validation import require_valid
from repro.errors import MethodologyError, StepOrderError


class Step1ApplicationView:
    """Step 1: establish the application view.

    Input: application requirements (an ER schema built by traditional
    data modeling, plus the requirements narrative).
    Output: the :class:`ApplicationView`.

    The paper treats this step as classical data modeling ([17][23]) and
    does not elaborate it; we validate well-formedness and wrap the
    artifact.
    """

    def run(
        self,
        er_schema: ERSchema,
        requirements_doc: str = "",
        require_keys: bool = True,
    ) -> ApplicationView:
        """Validate the ER schema and produce the application view."""
        require_valid(er_schema, require_keys=require_keys)
        return ApplicationView(er_schema, requirements_doc)


class Step2QualityParameters:
    """Step 2: determine (subjective) quality parameters.

    Input: application view + application quality requirements +
    candidate quality attributes (Appendix A catalog).
    Output: the :class:`ParameterView`.

    The design team walks the application view and, for each component,
    decides which quality parameters matter.  Requests name either a
    catalog candidate or a team-defined parameter ("the design team may
    choose to consider additional parameters not listed").
    """

    def __init__(self, catalog: Optional[CandidateCatalog] = None) -> None:
        self.catalog = catalog or default_catalog()

    def suggest(self, *keywords: str) -> list[str]:
        """Catalog names matching elicitation keywords (thinking aid)."""
        return [a.name for a in self.catalog.suggest_for_keywords(*keywords)]

    def resolve_parameter(self, name: str, doc: str = "") -> QualityParameter:
        """A parameter object for ``name``: catalog-backed if known."""
        if name == INSPECTION_PARAMETER.name:
            return INSPECTION_PARAMETER
        if name in self.catalog:
            return self.catalog.get(name).as_parameter()
        if not doc:
            # Team-defined parameter without documentation: allowed but
            # flagged in the view's rationale by the caller if desired.
            return QualityParameter(name)
        return QualityParameter(name, doc)

    def run(
        self,
        application_view: ApplicationView,
        requests: Iterable[tuple[Sequence[str], str, str]],
    ) -> ParameterView:
        """Attach requested parameters to the application view.

        ``requests`` is an iterable of ``(target, parameter_name,
        rationale)`` triples.  The special parameter name
        ``"inspection"`` produces the paper's "√ inspection" annotation.
        """
        view = ParameterView(application_view)
        for target, parameter_name, rationale in requests:
            parameter = self.resolve_parameter(parameter_name)
            view.add(ParameterAnnotation(target, parameter, rationale))
        return view


class Step3QualityIndicators:
    """Step 3: determine (objective) quality indicators.

    Input: the parameter view.
    Output: the :class:`QualityView` (indicators replace parameters).

    Each subjective parameter is *operationalized* into measurable
    quality indicators.  Operationalization decisions come from three
    places, in priority order:

    1. explicit ``decisions`` supplied by the design team
       (``(target, parameter_name) → [indicator specs]``);
    2. a parameter that is already "sufficiently objective" — its
       catalog entry's kind is INDICATOR — remains, converted in place
       (the paper's *age* example);
    3. with ``auto=True``, the catalog's standard operationalizations
       for the parameter.

    A parameter with no decision and no catalog suggestion raises, so
    unexamined quality requirements cannot silently vanish.
    """

    def __init__(self, catalog: Optional[CandidateCatalog] = None) -> None:
        self.catalog = catalog or default_catalog()

    def _operationalize(
        self,
        annotation: ParameterAnnotation,
        decisions: dict[tuple[tuple[str, ...], str], list[QualityIndicatorSpec]],
        auto: bool,
    ) -> list[QualityIndicatorSpec]:
        key = (annotation.target, annotation.parameter.name)
        if key in decisions:
            chosen = decisions[key]
            if not chosen:
                raise MethodologyError(
                    f"empty operationalization decision for "
                    f"{annotation.describe()}"
                )
            return list(chosen)
        name = annotation.parameter.name
        if name in self.catalog:
            candidate = self.catalog.get(name)
            if candidate.kind is AttributeKind.INDICATOR:
                # Already objective: remains as an indicator (paper: "if
                # age had been defined as a quality parameter, and is
                # deemed objective, it can remain").
                domain = (
                    candidate.operationalizations[0][1]
                    if candidate.operationalizations
                    else "STR"
                )
                return [candidate.as_indicator(domain)]
            if auto and candidate.operationalizations:
                return self.catalog.operationalizations_for(name)
        raise MethodologyError(
            f"no operationalization for parameter {name!r} at target "
            f"{'.'.join(annotation.target)!r}: supply a decision or enable "
            f"auto mode with a catalog-known parameter"
        )

    def run(
        self,
        parameter_view: ParameterView,
        decisions: Optional[
            dict[tuple[tuple[str, ...], str], list[QualityIndicatorSpec]]
        ] = None,
        auto: bool = True,
    ) -> QualityView:
        """Operationalize every parameter annotation into indicators."""
        if not parameter_view.annotations:
            raise StepOrderError(
                "Step 3 requires a parameter view with at least one "
                "parameter annotation (run Step 2 first)"
            )
        decisions = decisions or {}
        view = QualityView(
            parameter_view.application_view, parameter_view=parameter_view
        )
        for annotation in parameter_view.annotations:
            for indicator in self._operationalize(annotation, decisions, auto):
                candidate = IndicatorAnnotation(
                    annotation.target,
                    indicator,
                    derived_from=(annotation.parameter.name,),
                    rationale=annotation.rationale,
                )
                existing = next(
                    (a for a in view.annotations if a == candidate), None
                )
                if existing is None:
                    view.add(candidate)
                else:
                    # Same indicator requested by several parameters at
                    # the same target: merge the provenance.
                    merged = IndicatorAnnotation(
                        existing.target,
                        existing.indicator,
                        derived_from=tuple(
                            dict.fromkeys(
                                existing.derived_from + candidate.derived_from
                            )
                        ),
                        rationale=existing.rationale,
                        mandatory=existing.mandatory,
                    )
                    view.annotations[view.annotations.index(existing)] = merged
        return view


class Step4ViewIntegration:
    """Step 4: perform quality view integration.

    Input: one or more quality views.
    Output: the integrated :class:`~repro.core.views.QualitySchema`.

    Thin wrapper around :func:`repro.core.integration.integrate_views`,
    kept as a step class so the pipeline reads as the paper's Figure 2.
    """

    def run(
        self,
        quality_views: Sequence[QualityView],
        refinements: Sequence["Refinement"] = (),
    ):
        """Integrate the views (see :mod:`repro.core.integration`)."""
        from repro.core.integration import integrate_views

        return integrate_views(quality_views, refinements=refinements)


# Re-exported for typing convenience; defined in integration.py.
from repro.core.integration import Refinement  # noqa: E402  (cycle-free tail import)
