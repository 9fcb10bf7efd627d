"""JSON persistence for databases, relations, and tagged relations.

The engine is in-memory; experiments and examples still need durable
snapshots (to ship a designed quality schema plus its data, or to diff
two monitoring runs).  Everything here round-trips exactly: values are
encoded with type markers so DATE/DATETIME survive.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from pathlib import Path
from typing import Any

from repro.errors import SchemaError
from repro.relational.catalog import Database
from repro.relational.partition import PartitionSpec
from repro.relational.relation import Relation, RowStore
from repro.relational.schema import RelationSchema
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue, TagSchema
from repro.tagging.relation import TaggedRelation


def encode_value(value: Any) -> Any:
    """Encode one cell value with a type marker where needed."""
    if isinstance(value, _dt.datetime):
        return {"$type": "datetime", "value": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$type": "date", "value": value.isoformat()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SchemaError(
        f"value {value!r} of type {type(value).__name__} is not serializable"
    )


def decode_value(data: Any) -> Any:
    """Decode a value produced by :func:`encode_value`."""
    if isinstance(data, dict) and "$type" in data:
        if data["$type"] == "date":
            return _dt.date.fromisoformat(data["value"])
        if data["$type"] == "datetime":
            return _dt.datetime.fromisoformat(data["value"])
        raise SchemaError(f"unknown value type marker {data['$type']!r}")
    return data


# ---------------------------------------------------------------------------
# Plain relations
# ---------------------------------------------------------------------------


def relation_to_dict(relation: Relation) -> dict[str, Any]:
    """Serialize a relation with typed values."""
    return {
        "kind": "relation",
        "schema": relation.schema.to_dict(),
        "rows": [
            {name: encode_value(value) for name, value in row.to_dict().items()}
            for row in relation
        ],
    }


def relation_from_dict(data: dict[str, Any]) -> Relation:
    """Deserialize a relation produced by :func:`relation_to_dict`."""
    if data.get("kind") != "relation":
        raise SchemaError(f"not a serialized relation: kind={data.get('kind')!r}")
    schema = RelationSchema.from_dict(data["schema"])
    relation = Relation(schema)
    for row in data["rows"]:
        relation.insert({name: decode_value(value) for name, value in row.items()})
    return relation


# ---------------------------------------------------------------------------
# Tagged relations
# ---------------------------------------------------------------------------


def _encode_tag(tag: IndicatorValue) -> dict[str, Any]:
    encoded: dict[str, Any] = {
        "name": tag.name,
        "value": encode_value(tag.value),
    }
    if tag.meta:
        encoded["meta"] = {
            key: encode_value(value) for key, value in tag.meta
        }
    return encoded


def _decode_tag(data: dict[str, Any]) -> IndicatorValue:
    meta = {
        key: decode_value(value)
        for key, value in data.get("meta", {}).items()
    }
    return IndicatorValue(data["name"], decode_value(data["value"]), meta=meta)


def tagged_relation_to_dict(relation: TaggedRelation) -> dict[str, Any]:
    """Serialize a tagged relation (schema + tag schema + cells)."""
    rows = []
    for row in relation:
        cells = {}
        for name in relation.schema.column_names:
            cell = row[name]
            cells[name] = {
                "value": encode_value(cell.value),
                "tags": [_encode_tag(tag) for tag in cell.tags],
            }
        rows.append(cells)
    return {
        "kind": "tagged_relation",
        "schema": relation.schema.to_dict(),
        "tag_schema": relation.tag_schema.to_dict(),
        "rows": rows,
    }


def tagged_relation_from_dict(data: dict[str, Any]) -> TaggedRelation:
    """Deserialize a tagged relation."""
    if data.get("kind") != "tagged_relation":
        raise SchemaError(
            f"not a serialized tagged relation: kind={data.get('kind')!r}"
        )
    schema = RelationSchema.from_dict(data["schema"])
    tag_schema = TagSchema.from_dict(data["tag_schema"])
    relation = TaggedRelation(schema, tag_schema)
    for row in data["rows"]:
        cells = {}
        for name, cell_data in row.items():
            cells[name] = QualityCell(
                decode_value(cell_data["value"]),
                [_decode_tag(tag) for tag in cell_data.get("tags", [])],
            )
        relation.insert(cells)
    return relation


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------


def database_to_dict(database: Database) -> dict[str, Any]:
    """Serialize a database's relations (constraints are code, not data)."""
    relations: dict[str, Any] = {}
    for name in database.relation_names:
        relation = database.relation(name)
        encoded = relation_to_dict(relation)
        if relation.partition_spec is not None:
            encoded["partition"] = _encode_partition_spec(
                relation.partition_spec
            )
        relations[name] = encoded
    return {
        "kind": "database",
        "name": database.name,
        "relations": relations,
    }


def database_from_dict(data: dict[str, Any]) -> Database:
    """Deserialize a database; primary keys are re-enforced from schemas."""
    if data.get("kind") != "database":
        raise SchemaError(f"not a serialized database: kind={data.get('kind')!r}")
    database = Database(data["name"])
    for relation_data in data["relations"].values():
        restored = relation_from_dict(relation_data)
        database.create_relation(restored.schema)
        if "partition" in relation_data:
            database.repartition(
                restored.schema.name,
                _decode_partition_spec(relation_data["partition"]),
            )
        for row in restored:
            database.insert(restored.schema.name, row.to_dict())
    return database


# ---------------------------------------------------------------------------
# Partitioned snapshots (directory-per-partition layout)
# ---------------------------------------------------------------------------


def _encode_partition_spec(spec: PartitionSpec) -> dict[str, Any]:
    data = spec.to_dict()
    if "bounds" in data:
        data["bounds"] = [encode_value(bound) for bound in data["bounds"]]
    return data


def _decode_partition_spec(data: dict[str, Any]) -> PartitionSpec:
    decoded = dict(data)
    if "bounds" in decoded:
        decoded["bounds"] = [decode_value(bound) for bound in decoded["bounds"]]
    return PartitionSpec.from_dict(decoded)


def _bucket_of_dir(path: Path) -> int:
    """The bucket number of one ``key=<bucket>`` partition directory."""
    try:
        return int(path.name.split("=", 1)[1])
    except (IndexError, ValueError):
        raise SchemaError(
            f"not a partition directory: {path.name!r}"
        ) from None


def _save_partitioned(obj: RowStore, target: Path) -> Path:
    """Write a partitioned relation as ``<dir>/key=<bucket>/part.json``.

    Each partition file records its rows' flat-order sequence numbers
    (``"seqs"``), so :func:`_load_partitioned` restores the flat row
    order.  Each partition file (and ``_meta.json``) is written with
    the same atomic mkstemp+fsync+replace protocol as flat snapshots,
    so a crash mid-save never corrupts a previously-saved partition.
    Only dirty buckets — plus any bucket missing from the target — are
    rewritten, and the per-partition writes fan out over a thread pool
    (file I/O releases the GIL).
    """
    spec = obj.partition_spec
    assert spec is not None
    count = spec.count
    tagged = isinstance(obj, TaggedRelation)
    serializer = tagged_relation_to_dict if tagged else relation_to_dict
    target.mkdir(parents=True, exist_ok=True)

    meta: dict[str, Any] = {
        "kind": "partitioned",
        "payload_kind": "tagged_relation" if tagged else "relation",
        "schema": obj.schema.to_dict(),
        "partition": _encode_partition_spec(spec),
    }
    if tagged:
        meta["tag_schema"] = obj.tag_schema.to_dict()
    _atomic_write_json(meta, target / "_meta.json")

    present: set[int] = set()
    for child in target.glob("key=*"):
        bucket = _bucket_of_dir(child)
        if bucket >= count:
            # Stale leftovers from a wider previous layout.
            shutil.rmtree(child)
        elif (child / "part.json").exists():
            present.add(bucket)

    dirty = obj.dirty_partitions
    rewrites = sorted(
        bucket
        for bucket in range(count)
        if bucket in dirty or bucket not in present
    )

    def write_bucket(bucket: int) -> None:
        part_dir = target / f"key={bucket}"
        part_dir.mkdir(exist_ok=True)
        shard = obj.partition(bucket)
        payload = serializer(shard)
        payload["seqs"] = list(shard.row_sequence())
        _atomic_write_json(payload, part_dir / "part.json")

    if len(rewrites) > 1:
        with ThreadPoolExecutor(
            max_workers=min(8, len(rewrites))
        ) as pool:
            # Consume the iterator so worker exceptions propagate.
            list(pool.map(write_bucket, rewrites))
    else:
        for bucket in rewrites:
            write_bucket(bucket)
    obj.mark_partitions_clean()
    return target


def _load_partitioned(path: Path) -> RowStore:
    """Read back a directory snapshot written by :func:`_save_partitioned`.

    The rows come back in their flat order, merged on the sequence
    numbers the partition files record, and keep those numbers (so an
    incremental save of the loaded relation stays consistent with the
    files it does not rewrite).  Files written without them load in
    bucket order.
    """
    with open(path / "_meta.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("kind") != "partitioned":
        raise SchemaError(
            f"not a partitioned snapshot: kind={meta.get('kind')!r}"
        )
    spec = _decode_partition_spec(meta["partition"])
    payload_kind = meta["payload_kind"]
    schema = RelationSchema.from_dict(meta["schema"])
    if payload_kind == "tagged_relation":
        assembled: RowStore = TaggedRelation(
            schema, TagSchema.from_dict(meta["tag_schema"])
        )
    elif payload_kind == "relation":
        assembled = Relation(schema)
    else:
        raise SchemaError(f"unknown partition payload kind {payload_kind!r}")
    assembled.repartition(spec)

    part_files = sorted(
        (part for part in path.glob("key=*/part.json")),
        key=lambda part: _bucket_of_dir(part.parent),
    )
    deserializer = _DESERIALIZERS[payload_kind]

    def read_bucket(part: Path) -> tuple[Any, Any]:
        with open(part, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return deserializer(data), data.get("seqs")

    if len(part_files) > 1:
        with ThreadPoolExecutor(
            max_workers=min(8, len(part_files))
        ) as pool:
            shards = list(pool.map(read_bucket, part_files))
    else:
        shards = [read_bucket(part) for part in part_files]
    entries: list[tuple[int, Any]] = []
    for shard, seqs in shards:
        if seqs is None:
            seqs = range(len(entries), len(entries) + len(shard))
        entries.extend(zip(seqs, shard))
    entries.sort(key=itemgetter(0))
    # Stable bucketing re-routes each row into the same partition its
    # file came from.
    assembled._replace_rows(
        [assembled._prepare(row) for _, row in entries],
        [seq for seq, _ in entries],
    )
    assembled.mark_partitions_clean()
    return assembled


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

_SERIALIZERS = {
    Relation: relation_to_dict,
    TaggedRelation: tagged_relation_to_dict,
    Database: database_to_dict,
}

_DESERIALIZERS = {
    "relation": relation_from_dict,
    "tagged_relation": tagged_relation_from_dict,
    "database": database_from_dict,
}


def _atomic_write_json(payload: Any, target: Path) -> Path:
    """Write ``payload`` as JSON via mkstemp + fsync + ``os.replace``."""
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent or Path("."), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def save(obj: RowStore | Database, path: str | Path) -> Path:
    """Write a relation / tagged relation / database to disk.

    Unpartitioned objects become one JSON file; the write is atomic: the
    payload goes to a temporary file in the target directory, is
    fsynced, and only then renamed over the destination
    (``os.replace``).  A crash or encode error mid-write can therefore
    never leave a truncated snapshot — the previous file, if any,
    survives intact.

    A *partitioned* relation becomes a **directory** snapshot
    (``<path>/key=<bucket>/part.json`` plus ``_meta.json``); each
    partition file gets the same atomic protocol independently, only
    dirty buckets are rewritten over an existing snapshot, and the
    per-partition writes run on a thread pool.
    """
    target = Path(path)
    if isinstance(obj, RowStore) and obj.partition_spec is not None:
        return _save_partitioned(obj, target)
    for cls, serializer in _SERIALIZERS.items():
        if isinstance(obj, cls):
            payload = serializer(obj)
            break
    else:
        raise SchemaError(f"cannot serialize object of type {type(obj).__name__}")
    return _atomic_write_json(payload, target)


def load(path: str | Path) -> RowStore | Database:
    """Read back an object written by :func:`save`.

    A directory path loads a partitioned snapshot (the stable hash
    re-routes every row into the bucket its file came from); a file
    path loads a flat one.
    """
    source = Path(path)
    if source.is_dir():
        return _load_partitioned(source)
    with open(source, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    kind = data.get("kind")
    deserializer = _DESERIALIZERS.get(kind)
    if deserializer is None:
        raise SchemaError(f"unknown serialized kind {kind!r}")
    return deserializer(data)
