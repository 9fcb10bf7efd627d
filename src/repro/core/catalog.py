"""The Appendix-A candidate quality attribute catalog.

Step 2 consults "a list of candidate quality attributes ... resulting
from survey responses from several hundred data users" (Wang &
Guarrascio, CISL-91-06 [26]).  The list "is not orthogonal, and ... not
provably exhaustive; the aim is to stimulate thinking by the design
team".  This module reproduces that catalog as structured data:

- each :class:`CandidateAttribute` carries a *category* (the survey's
  facet grouping), a *boundary* classification — whether the item
  applies to the data itself, the information system, the information
  service, or the information user (the §4 discussion names "resolution
  of graphics" as a system item, "clear data responsibility" as a
  service item, and "past experience" as a user item);
- a default *kind* (subjective parameter vs. objective indicator);
- *related* attribute names (Premise 1.2: attributes need not be
  orthogonal — timeliness relates to volatility and currency);
- *operationalizations*: the indicators commonly used to make the
  parameter measurable (the paper's worked pairs: timeliness → age /
  creation time; credibility → source / analyst name; cost → price /
  age-of-data; plus collection method, media, and inspection from the
  Figure 5 discussion).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.terminology import (
    AttributeKind,
    QualityIndicatorSpec,
    QualityParameter,
)
from repro.errors import CatalogError

#: Boundary classifications discussed in §4.
BOUNDARY_DATA = "data"
BOUNDARY_SYSTEM = "system"
BOUNDARY_SERVICE = "service"
BOUNDARY_USER = "user"

_BOUNDARIES = (BOUNDARY_DATA, BOUNDARY_SYSTEM, BOUNDARY_SERVICE, BOUNDARY_USER)


class CandidateAttribute:
    """One candidate quality attribute from the survey catalog."""

    __slots__ = (
        "name",
        "kind",
        "category",
        "boundary",
        "doc",
        "related",
        "operationalizations",
    )

    def __init__(
        self,
        name: str,
        kind: AttributeKind,
        category: str,
        boundary: str = BOUNDARY_DATA,
        doc: str = "",
        related: Sequence[str] = (),
        operationalizations: Sequence[tuple[str, str]] = (),
    ) -> None:
        if boundary not in _BOUNDARIES:
            raise CatalogError(
                f"unknown boundary {boundary!r} (known: {_BOUNDARIES})"
            )
        self.name = name
        self.kind = kind
        self.category = category
        self.boundary = boundary
        self.doc = doc
        self.related = tuple(related)
        #: (indicator name, value domain name) pairs suggested by Step 3.
        self.operationalizations = tuple(operationalizations)

    def as_parameter(self) -> QualityParameter:
        """This candidate as a quality parameter object."""
        return QualityParameter(self.name, self.doc)

    def as_indicator(self, domain: str = "STR") -> QualityIndicatorSpec:
        """This candidate as a quality indicator spec."""
        return QualityIndicatorSpec(self.name, domain, doc=self.doc)

    def __repr__(self) -> str:
        return (
            f"CandidateAttribute({self.name!r}, {self.kind.value}, "
            f"category={self.category!r})"
        )


class CandidateCatalog:
    """A queryable collection of candidate quality attributes."""

    def __init__(self, attributes: Iterable[CandidateAttribute]) -> None:
        self._by_name: dict[str, CandidateAttribute] = {}
        for attribute in attributes:
            if attribute.name in self._by_name:
                raise CatalogError(f"duplicate catalog entry {attribute.name!r}")
            self._by_name[attribute.name] = attribute

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[CandidateAttribute]:
        return iter(self._by_name.values())

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def get(self, name: str) -> CandidateAttribute:
        """Look up one candidate by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"catalog has no candidate attribute {name!r}"
            ) from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_name))

    def parameters(self) -> list[CandidateAttribute]:
        """Candidates whose default kind is subjective parameter."""
        return [a for a in self if a.kind is AttributeKind.PARAMETER]

    def indicators(self) -> list[CandidateAttribute]:
        """Candidates whose default kind is objective indicator."""
        return [a for a in self if a.kind is AttributeKind.INDICATOR]

    def by_category(self, category: str) -> list[CandidateAttribute]:
        """All candidates of one survey category."""
        return [a for a in self if a.category == category]

    def by_boundary(self, boundary: str) -> list[CandidateAttribute]:
        """All candidates of one boundary classification (§4)."""
        if boundary not in _BOUNDARIES:
            raise CatalogError(f"unknown boundary {boundary!r}")
        return [a for a in self if a.boundary == boundary]

    @property
    def categories(self) -> tuple[str, ...]:
        return tuple(sorted({a.category for a in self}))

    def related_to(self, name: str) -> list[CandidateAttribute]:
        """Candidates related to ``name`` (non-orthogonality, Premise 1.2).

        Relatedness is symmetric: a link recorded on either endpoint
        counts.
        """
        self.get(name)
        return [
            a
            for a in self
            if a.name != name and (name in a.related or a.name in self.get(name).related)
        ]

    def operationalizations_for(self, parameter_name: str) -> list[QualityIndicatorSpec]:
        """Suggested indicators for operationalizing one parameter (Step 3)."""
        candidate = self.get(parameter_name)
        return [
            QualityIndicatorSpec(
                ind_name,
                domain,
                measure=f"standard operationalization of {parameter_name}",
                doc=f"operationalizes the quality parameter {parameter_name!r}",
            )
            for ind_name, domain in candidate.operationalizations
        ]

    def suggest_for_keywords(self, *keywords: str) -> list[CandidateAttribute]:
        """Keyword search over names, categories, and docs (elicitation aid)."""
        lowered = [k.lower() for k in keywords]
        hits = []
        for attribute in self:
            haystack = " ".join(
                (attribute.name, attribute.category, attribute.doc)
            ).lower()
            if any(k in haystack for k in lowered):
                hits.append(attribute)
        return hits


_P = AttributeKind.PARAMETER
_I = AttributeKind.INDICATOR

#: The catalog entries.  Categories follow the survey's facet groups;
#: entries marked system/service/user reflect the §4 boundary discussion.
_DEFAULT_ENTRIES: tuple[CandidateAttribute, ...] = (
    # --- intrinsic data quality -------------------------------------------------
    CandidateAttribute(
        "accuracy", _P, "intrinsic", BOUNDARY_DATA,
        "The data reflects real-world conditions",
        related=("precision", "reliability", "freedom_from_error"),
        operationalizations=(("collection_method", "STR"), ("inspection", "STR"),
                             ("source", "STR")),
    ),
    CandidateAttribute(
        "precision", _P, "intrinsic", BOUNDARY_DATA,
        "Granularity/exactness of recorded values",
        related=("accuracy",),
        operationalizations=(("measurement_unit", "STR"), ("significant_digits", "INT")),
    ),
    CandidateAttribute(
        "reliability", _P, "intrinsic", BOUNDARY_DATA,
        "The data can be depended upon across uses",
        related=("accuracy", "consistency", "credibility"),
        operationalizations=(("inspection", "STR"), ("source", "STR")),
    ),
    CandidateAttribute(
        "freedom_from_error", _P, "intrinsic", BOUNDARY_DATA,
        "Absence of recording and processing errors",
        related=("accuracy",),
        operationalizations=(("inspection", "STR"), ("entry_method", "STR")),
    ),
    CandidateAttribute(
        "consistency", _P, "intrinsic", BOUNDARY_DATA,
        "Agreement of the data with itself and with related data",
        related=("reliability", "integrity"),
        operationalizations=(("validation_rule", "STR"),),
    ),
    CandidateAttribute(
        "integrity", _P, "intrinsic", BOUNDARY_DATA,
        "The data respects declared structural rules",
        related=("consistency",),
        operationalizations=(("validation_rule", "STR"),),
    ),
    # --- credibility / source ------------------------------------------------------
    CandidateAttribute(
        "credibility", _P, "believability", BOUNDARY_DATA,
        "The data (and its source) can be believed",
        related=("reputation", "objectivity", "source_credibility"),
        operationalizations=(("source", "STR"), ("analyst_name", "STR"),
                             ("collection_method", "STR")),
    ),
    CandidateAttribute(
        "source_credibility", _P, "believability", BOUNDARY_DATA,
        "Trustworthiness of the originating source",
        related=("credibility", "reputation"),
        operationalizations=(("source", "STR"),),
    ),
    CandidateAttribute(
        "reputation", _P, "believability", BOUNDARY_DATA,
        "Standing of the source among its users",
        related=("credibility",),
        operationalizations=(("source", "STR"),),
    ),
    CandidateAttribute(
        "objectivity", _P, "believability", BOUNDARY_DATA,
        "The data is unbiased and impartial",
        related=("credibility",),
        operationalizations=(("source", "STR"), ("collection_method", "STR")),
    ),
    CandidateAttribute(
        "believability", _P, "believability", BOUNDARY_DATA,
        "The data is regarded as true and credible",
        related=("credibility", "accuracy"),
        operationalizations=(("source", "STR"),),
    ),
    # --- time-related -------------------------------------------------------------------
    CandidateAttribute(
        "timeliness", _P, "time", BOUNDARY_DATA,
        "The data is sufficiently current for the use at hand",
        related=("currency", "volatility", "age"),
        operationalizations=(("age", "FLOAT"), ("creation_time", "DATE"),
                             ("update_frequency", "STR")),
    ),
    CandidateAttribute(
        "currency", _P, "time", BOUNDARY_DATA,
        "How recently the data was created or refreshed",
        related=("timeliness", "age"),
        operationalizations=(("creation_time", "DATE"), ("age", "FLOAT")),
    ),
    CandidateAttribute(
        "volatility", _P, "time", BOUNDARY_DATA,
        "How quickly the real-world value changes",
        related=("timeliness",),
        operationalizations=(("update_frequency", "STR"),),
    ),
    CandidateAttribute(
        "age", _I, "time", BOUNDARY_DATA,
        "Elapsed time since the datum was created (objective)",
        related=("timeliness", "currency"),
        operationalizations=(("age", "FLOAT"),),
    ),
    CandidateAttribute(
        "creation_time", _I, "time", BOUNDARY_DATA,
        "When the datum was created (objective)",
        related=("age",),
        operationalizations=(("creation_time", "DATE"),),
    ),
    # --- completeness / scope -------------------------------------------------------------
    CandidateAttribute(
        "completeness", _P, "scope", BOUNDARY_DATA,
        "All real-world states of interest are represented",
        related=("coverage",),
        operationalizations=(("population_method", "STR"), ("coverage_ratio", "FLOAT")),
    ),
    CandidateAttribute(
        "coverage", _P, "scope", BOUNDARY_DATA,
        "Breadth of the population the data spans",
        related=("completeness",),
        operationalizations=(("population_method", "STR"),),
    ),
    CandidateAttribute(
        "relevance", _P, "scope", BOUNDARY_DATA,
        "The data applies to the task at hand",
        related=("completeness", "value_added"),
        operationalizations=(("collection_purpose", "STR"),),
    ),
    CandidateAttribute(
        "level_of_detail", _P, "scope", BOUNDARY_DATA,
        "Appropriate granularity of representation",
        related=("precision",),
        operationalizations=(("aggregation_level", "STR"),),
    ),
    # --- interpretability / representation ---------------------------------------------------
    CandidateAttribute(
        "interpretability", _P, "representation", BOUNDARY_DATA,
        "Users can understand what the data means",
        related=("understandability", "clarity"),
        operationalizations=(("media", "STR"), ("language", "STR"),
                             ("measurement_unit", "STR")),
    ),
    CandidateAttribute(
        "understandability", _P, "representation", BOUNDARY_DATA,
        "The data is easily comprehended",
        related=("interpretability",),
        operationalizations=(("media", "STR"),),
    ),
    CandidateAttribute(
        "clarity", _P, "representation", BOUNDARY_DATA,
        "Unambiguous representation of values",
        related=("interpretability",),
        operationalizations=(("measurement_unit", "STR"),),
    ),
    CandidateAttribute(
        "conciseness", _P, "representation", BOUNDARY_DATA,
        "Compact representation without excess",
        related=("level_of_detail",),
    ),
    CandidateAttribute(
        "consistency_of_representation", _P, "representation", BOUNDARY_DATA,
        "The same things are represented the same way",
        related=("interpretability", "consistency"),
        operationalizations=(("format_standard", "STR"),),
    ),
    CandidateAttribute(
        "media", _I, "representation", BOUNDARY_DATA,
        "Stored format of documents (bitmap, ASCII, postscript)",
        operationalizations=(("media", "STR"),),
    ),
    # --- cost / value ------------------------------------------------------------------------------
    CandidateAttribute(
        "cost", _P, "value", BOUNDARY_DATA,
        "What acquiring or using the data costs the user",
        related=("value_added",),
        operationalizations=(("price", "FLOAT"), ("age", "FLOAT")),
    ),
    CandidateAttribute(
        "value_added", _P, "value", BOUNDARY_DATA,
        "The data provides competitive or operational advantage",
        related=("cost", "relevance"),
        operationalizations=(("collection_purpose", "STR"),),
    ),
    # --- accessibility / system (boundary: information system, §4) -------------------------------------
    CandidateAttribute(
        "accessibility", _P, "accessibility", BOUNDARY_SYSTEM,
        "The data can be obtained when needed",
        related=("availability", "retrieval_time"),
        operationalizations=(("access_path", "STR"),),
    ),
    CandidateAttribute(
        "availability", _P, "accessibility", BOUNDARY_SYSTEM,
        "The system holding the data is up and reachable",
        related=("accessibility",),
    ),
    CandidateAttribute(
        "retrieval_time", _P, "accessibility", BOUNDARY_SYSTEM,
        "How long a query takes to answer",
        related=("accessibility",),
    ),
    CandidateAttribute(
        "resolution_of_graphics", _P, "accessibility", BOUNDARY_SYSTEM,
        "Display fidelity of graphical data (a system property, §4)",
        related=("interpretability",),
    ),
    CandidateAttribute(
        "security", _P, "accessibility", BOUNDARY_SYSTEM,
        "The data is protected from unauthorized access",
        related=("privacy",),
    ),
    CandidateAttribute(
        "privacy", _P, "accessibility", BOUNDARY_SYSTEM,
        "Personal information is appropriately shielded",
        related=("security",),
    ),
    # --- service (boundary: information service, §4) -----------------------------------------------------
    CandidateAttribute(
        "clear_data_responsibility", _P, "service", BOUNDARY_SERVICE,
        "It is clear who is accountable for the data (a service property, §4)",
        related=("credibility",),
        operationalizations=(("steward", "STR"),),
    ),
    CandidateAttribute(
        "support", _P, "service", BOUNDARY_SERVICE,
        "Help is available for using and interpreting the data",
    ),
    CandidateAttribute(
        "flexibility", _P, "service", BOUNDARY_SERVICE,
        "The data can be adapted to new needs",
    ),
    # --- user (boundary: information user, §4) --------------------------------------------------------------
    CandidateAttribute(
        "past_experience", _P, "user", BOUNDARY_USER,
        "The user's prior experience with this data (a user property, §4)",
        related=("credibility",),
    ),
    CandidateAttribute(
        "familiarity", _P, "user", BOUNDARY_USER,
        "How well the user knows the data's conventions",
        related=("past_experience", "interpretability"),
    ),
    # --- objective manufacturing-process indicators -----------------------------------------------------------
    CandidateAttribute(
        "source", _I, "manufacturing", BOUNDARY_DATA,
        "Who/what supplied the datum",
        operationalizations=(("source", "STR"),),
    ),
    CandidateAttribute(
        "collection_method", _I, "manufacturing", BOUNDARY_DATA,
        "How the datum was captured (phone, scanner, service, ...)",
        operationalizations=(("collection_method", "STR"),),
    ),
    CandidateAttribute(
        "entry_method", _I, "manufacturing", BOUNDARY_DATA,
        "How the datum was keyed/recorded into the database",
        operationalizations=(("entry_method", "STR"),),
    ),
    CandidateAttribute(
        "analyst_name", _I, "manufacturing", BOUNDARY_DATA,
        "Analyst credited for a report (credibility evidence)",
        operationalizations=(("analyst_name", "STR"),),
    ),
    CandidateAttribute(
        "inspection", _P, "manufacturing", BOUNDARY_DATA,
        "Verification/certification the data must undergo (the paper's "
        "special '√ inspection' requirement)",
        related=("accuracy", "reliability"),
        operationalizations=(("inspection", "STR"),),
    ),
)


def default_catalog() -> CandidateCatalog:
    """The built-in Appendix-A candidate attribute catalog."""
    return CandidateCatalog(_DEFAULT_ENTRIES)
