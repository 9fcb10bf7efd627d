"""The recorded view of mutable state behind every cached query decision.

Planning (:func:`~repro.sql.plancache.plan_statement` and the rewrite
rules of :func:`~repro.sql.optimizer.optimize`) and strict analysis
(:func:`~repro.analysis.query.analyze_statement`) read the source's
mutable state only through a :class:`PlanContext`.  Each accessor reads
one *fact* about one relation and records the value it saw:

=============== =============================================== ===========
fact            what is read                                    compared by
=============== =============================================== ===========
``kind``        ``"tagged"`` / ``"plain"`` (None: name unbound) equality
``schema``      the relation's schema object                    identity
``tag_schema``  the tagged relation's tag-schema object         identity
``catalog``     a Database source's ``catalog_version``         equality
``layout``      the relation's ``partition_spec``               equality
``profile``     the bound scoring profile and its registration  equality
``cardinality`` the row count (hash-join build side)            equality
=============== =============================================== ===========

Only strict analysis reads ``profile`` (DQ212, an undefined
``QUALITY(parameter)``): plans never do, because the physical executor
looks up the bound profile on each execution.

The recorded :attr:`PlanContext.reads` are the whole validity condition
of whatever was decided from the context: :meth:`PlanContext.unchanged`
re-reads exactly those facts against a live source, and a cached plan
or strict verdict is reused iff every one is unchanged.  Schemas compare
by identity because :class:`~repro.relational.schema.RelationSchema`
equality is structural and a dropped-and-recreated relation must still
replan; relation kind is its own fact because
:meth:`~repro.tagging.relation.TaggedRelation.values_relation` shares
the tagged relation's schema object.  Row mutations are not facts,
except through the row count a hash-join build side reads.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.errors import UnknownRelationError
from repro.relational.catalog import Database
from repro.relational.relation import RowStore
from repro.tagging.relation import TaggedRelation

#: Recorded reads: ``(fact, relation name or None, value)`` triples.
Reads = tuple[tuple[str, Optional[str], Any], ...]

#: Facts whose value must be the *same object* on re-read.
_BY_IDENTITY = frozenset({"schema", "tag_schema"})

#: Sources a compiled plan can run against (``execute()``'s contract).
_EXECUTABLE = (RowStore, Database, Mapping)


def _bound_profile(relation: Any) -> Any:
    from repro.quality.materialize import profile_for

    profile = profile_for(relation)
    return None if profile is None else (profile, profile.version)


#: fact → how to read it off a resolved relation.
_PROBES: dict[str, Callable[[Any], Any]] = {
    "kind": lambda r: "tagged" if isinstance(r, TaggedRelation) else "plain",
    "schema": lambda r: r.schema,
    "tag_schema": lambda r: r.tag_schema if isinstance(r, TaggedRelation) else None,
    "layout": lambda r: getattr(r, "partition_spec", None),
    "profile": _bound_profile,
    "cardinality": len,
}


def _lookup(source: Any, name: str) -> Any:
    """The relation ``name`` denotes in ``source``, or None."""
    if isinstance(source, RowStore):
        return source if source.schema.name == name else None
    if isinstance(source, Database):
        try:
            return source.relation(name)
        except UnknownRelationError:
            return None
    if isinstance(source, Mapping):
        try:
            return source[name]
        except (KeyError, UnknownRelationError):
            return None
    if hasattr(source, "relation") and hasattr(source, "relation_names"):
        # QualityDatabase and other catalog-likes (analysis only).
        if name in source.relation_names:
            return source.relation(name)
    return None


def same_read(fact: str, recorded: Any, live: Any) -> bool:
    """Whether a re-read ``live`` value matches the ``recorded`` one."""
    return live is recorded or (fact not in _BY_IDENTITY and live == recorded)


class PlanContext:
    """What planning and strict analysis may know about a source.

    ``source`` is anything ``execute()`` accepts (or, for analysis, a
    catalog-like with ``relation``/``relation_names``).  Accessors
    return None for names the source does not bind.
    """

    __slots__ = ("source", "_reads", "_relations")

    def __init__(self, source: Any) -> None:
        self.source = source
        self._reads: dict[tuple[str, Optional[str]], Any] = {}
        self._relations: dict[str, Any] = {}

    @classmethod
    def from_relations(cls, relations: Mapping[str, Any]) -> "PlanContext":
        return cls(dict(relations))

    @property
    def reads(self) -> Reads:
        """Every fact read so far, in read order."""
        return tuple(
            (fact, name, value) for (fact, name), value in self._reads.items()
        )

    # -- recorded facts ---------------------------------------------------------

    def kind(self, name: str) -> Optional[str]:
        return self._read("kind", name)

    def schema(self, name: str):
        return self._read("schema", name)

    def tag_schema(self, name: str):
        return self._read("tag_schema", name)

    def partition_spec(self, name: str):
        return self._read("layout", name)

    def profile(self, name: str):
        """The scoring profile bound to the relation, or None."""
        bound = self._read("profile", name)
        return None if bound is None else bound[0]

    def cardinality(self, name: str) -> int:
        return self._read("cardinality", name) or 0

    def bind(self, name: str) -> Any:
        """The relation a compiled plan over ``name`` runs against.

        Records what compilation closes over — kind, schema and, when
        tagged, the tag schema — and raises the executor's
        :class:`~repro.sql.errors.SQLError` for names it cannot run.
        """
        relation = self._relation(name)
        if relation is None or not isinstance(self.source, _EXECUTABLE):
            from repro.sql.executor import _resolve_relation

            return _resolve_relation(name, self.source)  # raises
        self._read("kind", name)
        self._read("schema", name)
        if isinstance(relation, TaggedRelation):
            self._read("tag_schema", name)
        return relation

    # -- validation -------------------------------------------------------------

    def unchanged(self, reads: Reads) -> bool:
        """Whether every one of ``reads`` sees the same value here (each
        re-read is recorded here too)."""
        recorded = self._reads
        for fact, name, value in reads:
            live = recorded[fact, name] = self._probe(fact, name)
            if not same_read(fact, value, live):
                return False
        return True

    # -- plumbing ---------------------------------------------------------------

    def _read(self, fact: str, name: Optional[str]) -> Any:
        key = (fact, name)
        reads = self._reads
        if key not in reads:
            reads[key] = self._probe(fact, name)
        return reads[key]

    def _probe(self, fact: str, name: Optional[str]) -> Any:
        if fact == "catalog":
            source = self.source
            return source.catalog_version if isinstance(source, Database) else None
        relation = self._relation(name)
        return None if relation is None else _PROBES[fact](relation)

    def _relation(self, name: Optional[str]) -> Any:
        relations = self._relations
        if name not in relations:
            if isinstance(self.source, Database):
                # Resolving a name consults the catalog.
                self._read("catalog", None)
            relations[name] = _lookup(self.source, name)
        return relations[name]
