"""Application quality profiles: stored "grades" of data (§4).

"Data quality profiles may be stored for different applications.  For
a mass mailing application ... a query with no constraints over quality
indicators may be appropriate.  For more sensitive applications, such
as fund raising, the user may query over and constrain quality
indicator values."

An :class:`ApplicationProfile` names a
:class:`~repro.tagging.query.QualityFilter` for an application; a
:class:`ProfileRegistry` stores them (the clearinghouse's "several
classes of data").
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import QualityError
from repro.tagging.query import QualityFilter
from repro.tagging.relation import TaggedRelation


class ApplicationProfile:
    """One application's quality grade.

    Parameters
    ----------
    name:
        Profile name, e.g. ``"mass_mailing"`` or ``"fund_raising"``.
    quality_filter:
        The indicator constraints the application requires.
    doc:
        Why the application needs (or does not need) those constraints.
    """

    def __init__(
        self, name: str, quality_filter: QualityFilter, doc: str = ""
    ) -> None:
        if not name:
            raise QualityError("application profile must have a name")
        self.name = name
        self.quality_filter = quality_filter
        self.doc = doc

    def retrieve(self, relation: TaggedRelation) -> TaggedRelation:
        """Apply the profile's grade to a tagged relation."""
        return self.quality_filter.apply(relation)

    def describe(self) -> str:
        lines = [f"Profile {self.name!r}" + (f": {self.doc}" if self.doc else "")]
        lines.append("  " + self.quality_filter.describe().replace("\n", "\n  "))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ApplicationProfile({self.name!r}, "
            f"{len(self.quality_filter)} constraints)"
        )


class ProfileRegistry:
    """A named store of application profiles."""

    def __init__(self) -> None:
        self._profiles: dict[str, ApplicationProfile] = {}

    def register(self, profile: ApplicationProfile) -> ApplicationProfile:
        """Add a profile; duplicate names raise."""
        if profile.name in self._profiles:
            raise QualityError(f"profile {profile.name!r} already registered")
        self._profiles[profile.name] = profile
        return profile

    def get(self, name: str) -> ApplicationProfile:
        """Look up a profile by name."""
        try:
            return self._profiles[name]
        except KeyError:
            raise QualityError(
                f"no profile {name!r} (registered: {sorted(self._profiles)})"
            ) from None

    def retrieve(self, name: str, relation: TaggedRelation) -> TaggedRelation:
        """Apply a named profile to a relation."""
        return self.get(name).retrieve(relation)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._profiles))

    def __iter__(self) -> Iterator[ApplicationProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, name: object) -> bool:
        return name in self._profiles

    def describe(self) -> str:
        """All profiles, rendered for the administrator's documentation."""
        if not self._profiles:
            return "(no profiles registered)"
        return "\n".join(
            self._profiles[name].describe() for name in sorted(self._profiles)
        )
