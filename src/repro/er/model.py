"""Entity-relationship model objects.

The model covers what the paper's running example needs (Figure 3):
entities with typed attributes and identifying keys, binary (and n-ary)
relationships with cardinalities, and relationship attributes (the
*trade* relationship carries date, quantity, and trade price).

ER objects are the *anchors* that quality parameters and indicators
attach to in Steps 2-3: an annotation target is an entity, an attribute
of an entity, or a relationship (see
:meth:`ERSchema.annotation_targets`).
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, Optional, Sequence

from repro.errors import ERModelError
from repro.relational.types import Domain, domain_by_name


class Cardinality(enum.Enum):
    """Participation cardinality of an entity in a relationship."""

    ONE = "1"
    MANY = "N"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ERAttribute:
    """A typed attribute of an entity or relationship.

    Parameters
    ----------
    name:
        Attribute name, unique within its owner.
    domain:
        Value domain (a :class:`~repro.relational.types.Domain` or name).
    doc:
        Optional description carried into specification documents.
    """

    __slots__ = ("name", "domain", "doc")

    def __init__(self, name: str, domain: Domain | str = "STR", doc: str = "") -> None:
        if not name:
            raise ERModelError("attribute must have a name")
        self.name = name
        self.domain = domain_by_name(domain) if isinstance(domain, str) else domain
        self.doc = doc

    def __repr__(self) -> str:
        return f"ERAttribute({self.name}: {self.domain.name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ERAttribute)
            and other.name == self.name
            and other.domain == self.domain
        )

    def __hash__(self) -> int:
        return hash(("ERAttribute", self.name, self.domain))


class Entity:
    """An entity type with attributes and an identifying key.

    >>> client = Entity(
    ...     "client",
    ...     attributes=[ERAttribute("account_number", "STR"),
    ...                 ERAttribute("name", "STR")],
    ...     key=["account_number"])
    >>> client.key
    ('account_number',)
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[ERAttribute] = (),
        key: Optional[Sequence[str]] = None,
        doc: str = "",
    ) -> None:
        if not name:
            raise ERModelError("entity must have a name")
        self.name = name
        self.doc = doc
        self._attributes: dict[str, ERAttribute] = {}
        for attribute in attributes:
            self.add_attribute(attribute)
        self.key: tuple[str, ...] = ()
        if key:
            self.set_key(key)

    # -- attributes ------------------------------------------------------------

    def add_attribute(self, attribute: ERAttribute) -> ERAttribute:
        """Add an attribute; duplicate names raise."""
        if attribute.name in self._attributes:
            raise ERModelError(
                f"entity {self.name!r} already has attribute {attribute.name!r}"
            )
        self._attributes[attribute.name] = attribute
        return attribute

    def remove_attribute(self, name: str) -> ERAttribute:
        """Remove and return the named attribute (key members refuse)."""
        if name in self.key:
            raise ERModelError(
                f"cannot remove key attribute {name!r} of entity {self.name!r}"
            )
        try:
            return self._attributes.pop(name)
        except KeyError:
            raise ERModelError(
                f"entity {self.name!r} has no attribute {name!r}"
            ) from None

    @property
    def attributes(self) -> tuple[ERAttribute, ...]:
        return tuple(self._attributes.values())

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._attributes)

    def attribute(self, name: str) -> ERAttribute:
        """Look up one attribute by name."""
        try:
            return self._attributes[name]
        except KeyError:
            raise ERModelError(
                f"entity {self.name!r} has no attribute {name!r} "
                f"(attributes: {list(self._attributes)})"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    def set_key(self, key: Sequence[str]) -> None:
        """Declare the identifying key (all members must be attributes)."""
        missing = [k for k in key if k not in self._attributes]
        if missing:
            raise ERModelError(
                f"key attributes {missing} are not attributes of entity {self.name!r}"
            )
        if not key:
            raise ERModelError("key must contain at least one attribute")
        self.key = tuple(key)

    def __repr__(self) -> str:
        return f"Entity({self.name}, attributes={list(self.attribute_names)})"


class Participant:
    """One entity's participation in a relationship."""

    __slots__ = ("entity_name", "cardinality", "role")

    def __init__(
        self,
        entity_name: str,
        cardinality: Cardinality = Cardinality.MANY,
        role: str = "",
    ) -> None:
        self.entity_name = entity_name
        self.cardinality = cardinality
        self.role = role or entity_name

    def __repr__(self) -> str:
        return f"Participant({self.entity_name}:{self.cardinality.value})"


class Relationship:
    """A relationship type among two or more entities.

    The paper's *trade* relationship links client and company stock and
    carries attributes (date, quantity, trade price).
    """

    def __init__(
        self,
        name: str,
        participants: Sequence[Participant],
        attributes: Sequence[ERAttribute] = (),
        doc: str = "",
    ) -> None:
        if not name:
            raise ERModelError("relationship must have a name")
        if len(participants) < 2:
            raise ERModelError(
                f"relationship {name!r} needs at least two participants"
            )
        roles = [p.role for p in participants]
        if len(set(roles)) != len(roles):
            raise ERModelError(
                f"relationship {name!r} has duplicate participant roles {roles}"
            )
        self.name = name
        self.doc = doc
        self.participants: tuple[Participant, ...] = tuple(participants)
        self._attributes: dict[str, ERAttribute] = {}
        for attribute in attributes:
            self.add_attribute(attribute)

    def add_attribute(self, attribute: ERAttribute) -> ERAttribute:
        """Add a relationship attribute; duplicate names raise."""
        if attribute.name in self._attributes:
            raise ERModelError(
                f"relationship {self.name!r} already has attribute "
                f"{attribute.name!r}"
            )
        self._attributes[attribute.name] = attribute
        return attribute

    @property
    def attributes(self) -> tuple[ERAttribute, ...]:
        return tuple(self._attributes.values())

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._attributes)

    def attribute(self, name: str) -> ERAttribute:
        """Look up one relationship attribute by name."""
        try:
            return self._attributes[name]
        except KeyError:
            raise ERModelError(
                f"relationship {self.name!r} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    @property
    def entity_names(self) -> tuple[str, ...]:
        return tuple(p.entity_name for p in self.participants)

    def __repr__(self) -> str:
        ends = ", ".join(
            f"{p.entity_name}:{p.cardinality.value}" for p in self.participants
        )
        return f"Relationship({self.name}: {ends})"


class ERSchema:
    """A named ER schema: entities + relationships.

    This is the "application view" artifact of Step 1.
    """

    def __init__(self, name: str, doc: str = "") -> None:
        if not name:
            raise ERModelError("ER schema must have a name")
        self.name = name
        self.doc = doc
        self._entities: dict[str, Entity] = {}
        self._relationships: dict[str, Relationship] = {}

    # -- construction ------------------------------------------------------------

    def add_entity(self, entity: Entity) -> Entity:
        """Register an entity; duplicate names raise."""
        if entity.name in self._entities:
            raise ERModelError(f"schema {self.name!r} already has entity {entity.name!r}")
        if entity.name in self._relationships:
            raise ERModelError(
                f"schema {self.name!r} has a relationship named {entity.name!r}"
            )
        self._entities[entity.name] = entity
        return entity

    def add_relationship(self, relationship: Relationship) -> Relationship:
        """Register a relationship; unknown participants raise."""
        if relationship.name in self._relationships:
            raise ERModelError(
                f"schema {self.name!r} already has relationship {relationship.name!r}"
            )
        if relationship.name in self._entities:
            raise ERModelError(
                f"schema {self.name!r} has an entity named {relationship.name!r}"
            )
        for participant in relationship.participants:
            if participant.entity_name not in self._entities:
                raise ERModelError(
                    f"relationship {relationship.name!r} references unknown "
                    f"entity {participant.entity_name!r}"
                )
        self._relationships[relationship.name] = relationship
        return relationship

    def entity(self, name: str) -> Entity:
        """Look up an entity by name."""
        try:
            return self._entities[name]
        except KeyError:
            raise ERModelError(
                f"schema {self.name!r} has no entity {name!r} "
                f"(entities: {sorted(self._entities)})"
            ) from None

    def relationship(self, name: str) -> Relationship:
        """Look up a relationship by name."""
        try:
            return self._relationships[name]
        except KeyError:
            raise ERModelError(
                f"schema {self.name!r} has no relationship {name!r} "
                f"(relationships: {sorted(self._relationships)})"
            ) from None

    @property
    def entities(self) -> tuple[Entity, ...]:
        return tuple(self._entities.values())

    @property
    def relationships(self) -> tuple[Relationship, ...]:
        return tuple(self._relationships.values())

    def __contains__(self, name: object) -> bool:
        return name in self._entities or name in self._relationships

    def __repr__(self) -> str:
        return (
            f"ERSchema({self.name!r}, entities={sorted(self._entities)}, "
            f"relationships={sorted(self._relationships)})"
        )

    # -- annotation targets (used by the methodology's Steps 2-3) -----------------

    def annotation_targets(self) -> Iterator[tuple[str, ...]]:
        """Yield every position a quality annotation may attach to.

        Targets are path tuples:

        - ``(entity,)`` — a whole entity,
        - ``(entity, attribute)`` — one attribute of an entity,
        - ``(relationship,)`` — a whole relationship,
        - ``(relationship, attribute)`` — a relationship attribute.
        """
        for entity in self._entities.values():
            yield (entity.name,)
            for attribute in entity.attributes:
                yield (entity.name, attribute.name)
        for relationship in self._relationships.values():
            yield (relationship.name,)
            for attribute in relationship.attributes:
                yield (relationship.name, attribute.name)

    def resolve_target(self, target: Sequence[str]) -> tuple[str, Any]:
        """Validate an annotation target path and classify it.

        Returns ``(kind, object)`` where kind is one of ``"entity"``,
        ``"entity_attribute"``, ``"relationship"``,
        ``"relationship_attribute"``.
        """
        path = tuple(target)
        if len(path) == 1:
            name = path[0]
            if name in self._entities:
                return "entity", self._entities[name]
            if name in self._relationships:
                return "relationship", self._relationships[name]
            raise ERModelError(
                f"annotation target {path!r} names no entity or relationship"
            )
        if len(path) == 2:
            owner, attr = path
            if owner in self._entities:
                return "entity_attribute", self._entities[owner].attribute(attr)
            if owner in self._relationships:
                return (
                    "relationship_attribute",
                    self._relationships[owner].attribute(attr),
                )
            raise ERModelError(
                f"annotation target {path!r} names no entity or relationship"
            )
        raise ERModelError(
            f"annotation target {path!r} must have one or two components"
        )

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dict (JSON-compatible)."""
        return {
            "name": self.name,
            "doc": self.doc,
            "entities": [
                {
                    "name": e.name,
                    "doc": e.doc,
                    "attributes": [
                        {"name": a.name, "domain": a.domain.name, "doc": a.doc}
                        for a in e.attributes
                    ],
                    "key": list(e.key),
                }
                for e in self.entities
            ],
            "relationships": [
                {
                    "name": r.name,
                    "doc": r.doc,
                    "participants": [
                        {
                            "entity": p.entity_name,
                            "cardinality": p.cardinality.value,
                            "role": p.role,
                        }
                        for p in r.participants
                    ],
                    "attributes": [
                        {"name": a.name, "domain": a.domain.name, "doc": a.doc}
                        for a in r.attributes
                    ],
                }
                for r in self.relationships
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ERSchema":
        """Deserialize a schema produced by :meth:`to_dict`."""
        schema = cls(data["name"], doc=data.get("doc", ""))
        for entity_data in data["entities"]:
            entity = Entity(
                entity_data["name"],
                attributes=[
                    ERAttribute(a["name"], a["domain"], a.get("doc", ""))
                    for a in entity_data["attributes"]
                ],
                key=entity_data.get("key") or None,
                doc=entity_data.get("doc", ""),
            )
            schema.add_entity(entity)
        for rel_data in data["relationships"]:
            relationship = Relationship(
                rel_data["name"],
                participants=[
                    Participant(
                        p["entity"],
                        Cardinality(p["cardinality"]),
                        p.get("role", ""),
                    )
                    for p in rel_data["participants"]
                ],
                attributes=[
                    ERAttribute(a["name"], a["domain"], a.get("doc", ""))
                    for a in rel_data["attributes"]
                ],
                doc=rel_data.get("doc", ""),
            )
            schema.add_relationship(relationship)
        return schema

    def copy(self) -> "ERSchema":
        """A deep copy (used when methodology steps refine the view)."""
        return ERSchema.from_dict(self.to_dict())
