"""Terms and definitions of data quality management (paper §1.3).

The paper defines a small vocabulary that everything else builds on:

- a **quality parameter** is a qualitative/subjective dimension by which
  a user evaluates data quality (source credibility, timeliness);
- a **quality indicator** is an objective data dimension providing
  information about the data's manufacturing process (source, creation
  time, collection method);
- a **quality attribute** is the collective term for both (Figure 1);
- a **quality indicator value** is a measured characteristic of stored
  data (source = "Wall Street Journal") — implemented by
  :class:`repro.tagging.indicators.IndicatorValue`;
- a **quality parameter value** is determined from underlying indicator
  values by user-defined functions — implemented by
  :class:`repro.core.mapping.ParameterMapping`;
- **data quality requirements** specify the indicators to be tagged so
  users can retrieve data of specific quality at query time.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.errors import MethodologyError
from repro.relational.types import Domain, domain_by_name
from repro.tagging.indicators import IndicatorDefinition


class AttributeKind(enum.Enum):
    """The two kinds of quality attribute (Figure 1)."""

    PARAMETER = "parameter"  # subjective
    INDICATOR = "indicator"  # objective

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class QualityParameter:
    """A subjective dimension by which a user evaluates data quality.

    >>> timeliness = QualityParameter(
    ...     "timeliness", doc="How current the data is for the task at hand")
    >>> timeliness.kind
    <AttributeKind.PARAMETER: 'parameter'>
    """

    __slots__ = ("name", "doc")

    kind = AttributeKind.PARAMETER

    def __init__(self, name: str, doc: str = "") -> None:
        if not name:
            raise MethodologyError("quality parameter must have a name")
        self.name = name
        self.doc = doc

    def __repr__(self) -> str:
        return f"QualityParameter({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QualityParameter) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("QualityParameter", self.name))


class QualityIndicatorSpec:
    """An objective, taggable dimension of the data manufacturing process.

    A specification (name + value domain + measurement note) rather than
    a measured value; at the tagging layer it materializes as an
    :class:`~repro.tagging.indicators.IndicatorDefinition` via
    :meth:`to_definition`.

    Parameters
    ----------
    name:
        Indicator name (e.g. ``"creation_time"``).
    domain:
        Domain of measured values (default STR).
    measure:
        How the indicator value is generated — the paper requires "a
        well-defined and accepted measure" (§1.3 footnote 1).
    doc:
        What the indicator records.
    """

    __slots__ = ("name", "domain", "measure", "doc")

    kind = AttributeKind.INDICATOR

    def __init__(
        self,
        name: str,
        domain: Domain | str = "STR",
        measure: str = "",
        doc: str = "",
    ) -> None:
        if not name:
            raise MethodologyError("quality indicator must have a name")
        self.name = name
        self.domain = domain_by_name(domain) if isinstance(domain, str) else domain
        self.measure = measure
        self.doc = doc

    def to_definition(self) -> IndicatorDefinition:
        """The tagging-layer definition of this indicator."""
        return IndicatorDefinition(self.name, self.domain, self.doc)

    def __repr__(self) -> str:
        return f"QualityIndicatorSpec({self.name!r}: {self.domain.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QualityIndicatorSpec)
            and other.name == self.name
            and other.domain == self.domain
        )

    def __hash__(self) -> int:
        return hash(("QualityIndicatorSpec", self.name, self.domain))


#: The collective term (Figure 1): either kind of quality attribute.
QualityAttribute = QualityParameter | QualityIndicatorSpec


class QualityRequirement:
    """One entry of the data quality requirements (§1.3).

    Specifies that an indicator must be tagged (or otherwise documented)
    on a target so that, at query time, users can retrieve data within
    an acceptable range of indicator values.  Acceptability cut-offs are
    deliberately *not* part of the requirement — the methodology defers
    them to query time (§3, "the methodology does not require the design
    team to define cut-off points").

    Parameters
    ----------
    target:
        Annotation-target path in the ER schema (see
        :meth:`repro.er.model.ERSchema.annotation_targets`).
    indicator:
        The indicator to be tagged at that target.
    rationale:
        Which quality parameter(s) the indicator operationalizes, and
        why — carried into the specification document.
    mandatory:
        If True, every cell of the target must carry the tag (maps to
        the tag schema's *required* set); if False, tagging is allowed
        but optional.
    """

    __slots__ = ("target", "indicator", "rationale", "mandatory")

    def __init__(
        self,
        target: Sequence[str],
        indicator: QualityIndicatorSpec,
        rationale: str = "",
        mandatory: bool = True,
    ) -> None:
        self.target = tuple(target)
        self.indicator = indicator
        self.rationale = rationale
        self.mandatory = mandatory

    def describe(self) -> str:
        """One-line human-readable form."""
        strength = "must" if self.mandatory else "may"
        where = ".".join(self.target)
        return (
            f"{where} {strength} be tagged with {self.indicator.name} "
            f"({self.indicator.domain.name})"
            + (f" — {self.rationale}" if self.rationale else "")
        )

    def __repr__(self) -> str:
        return f"QualityRequirement({self.describe()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QualityRequirement)
            and other.target == self.target
            and other.indicator == self.indicator
            and other.mandatory == self.mandatory
        )

    def __hash__(self) -> int:
        return hash(
            ("QualityRequirement", self.target, self.indicator, self.mandatory)
        )
