"""Set-up, closed-loop drivers and output checks of the two workloads.

Every caller waits for its reply: the HTTP clients each hold one
keep-alive connection and send their next request only after reading
the last response, and the ingest client blocks on
``Session.execute``.  Checks that cost engine work (the ``planner=False``
oracle) run after the measured phase.  Cheap ones run in the loop,
outside the per-operation timings: decoding each HTTP reply, and
comparing the reads of one ingest cycle with each other.
"""

from __future__ import annotations

import http.client
import json
import threading
from time import perf_counter
from typing import Any, Callable, Optional

from repro.experiments.scenarios import CUSTOMER_SCHEMA, customer_tag_schema
from repro.quality.materialize import ScoringProfile, clear_profiles, register_profile
from repro.quality.scoring import credibility_scorer, timeliness_scorer
from repro.relational import hash_partitions
from repro.service.core import QueryService
from repro.service.http import make_server
from repro.sql import clear_plan_cache, execute
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue
from repro.tagging.relation import TaggedRelation

from gen import BATCH_ROWS, TODAY, Inputs, Row, lookup_sql
from spans import PARENT_HEADER, REQUEST_HEADER, Recorder

PARTITIONS = 64
WORKERS = 2
HTTP_CLIENTS = 2
#: Set-up warms the plan cache with this many of the hottest lookups
#: (the default cache's capacity).
LOOKUP_WARM_KEYS = 256
READS_PER_WRITE = 3
#: Most ``ingest_mixed`` cycles checked against the planner=False oracle
#: (each check re-scores every visible row).
ORACLE_CYCLES = 64
CREDIBILITY = {"acct'g": 0.9, "Nexis": 0.8, "sales": 0.6, "estimate": 0.3}
SHELF_LIFE_DAYS = 365.0


def to_cells(row: Row) -> dict[str, Any]:
    """One generated row as the mapping ``TaggedRelation.insert`` takes."""

    def cell(value: Any, created: Any, source: str) -> QualityCell:
        return QualityCell(
            value,
            [IndicatorValue("creation_time", created), IndicatorValue("source", source)],
        )

    return {
        "co_name": row.co_name,
        "address": cell(row.address, row.address_created, row.address_source),
        "employees": cell(row.employees, row.employees_created, row.employees_source),
    }


def batches(cells: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    return [cells[i : i + BATCH_ROWS] for i in range(0, len(cells), BATCH_ROWS)]


class System:
    """One set-up of the program: relation, service and HTTP server."""

    def __init__(self, relation: TaggedRelation, service: QueryService) -> None:
        self.relation = relation
        self.service = service
        self.server: Any = None
        self._server_thread: Optional[threading.Thread] = None
        self.connections: list[http.client.HTTPConnection] = []

    def start_http(self) -> None:
        self.server = make_server(self.service, port=0)
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http", daemon=True
        )
        self._server_thread.start()
        port = self.server.server_address[1]
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            for _ in range(HTTP_CLIENTS)
        ]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._server_thread.join(timeout=30)
        self.service.close(wait=True)


def set_up(inputs: Inputs, initial: list[list[dict[str, Any]]]) -> tuple[System, float]:
    """Partition, ingest, register the profile, start, and warm.

    Returns the system and the seconds its set-up took.
    """
    clear_plan_cache()
    clear_profiles()
    start = perf_counter()
    relation = TaggedRelation(CUSTOMER_SCHEMA, customer_tag_schema())
    relation.repartition(hash_partitions("co_name", PARTITIONS))
    for batch in initial:
        relation.insert_many(batch)
    register_profile(
        ScoringProfile(
            "perfbench",
            [credibility_scorer(CREDIBILITY), timeliness_scorer(SHELF_LIFE_DAYS)],
            context={"today": TODAY},
        ),
        relations=[CUSTOMER_SCHEMA.name],
    )
    system = System(relation, QueryService(relation, workers=WORKERS))
    if inputs.workload == "http_lookup":
        system.start_http()
        for key in inputs.names_by_rank[:LOOKUP_WARM_KEYS]:
            system.service.execute(lookup_sql(key), strict=True)
        for connection, key in zip(system.connections, inputs.names_by_rank):
            status, _ = _post_lookup(connection, key, {})
            if status != 200:
                raise RuntimeError(f"warm-up lookup of {key!r} returned {status}")
    else:
        with system.service.session() as session:
            for sql in inputs.scan_statements():
                session.execute(sql)
    return system, perf_counter() - start


class Phase:
    """What one measured phase observed."""

    def __init__(self) -> None:
        self.reads: list[float] = []
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.response_bytes = 0
        self.problems: list[str] = []
        #: Output checks that cost engine work, run by :meth:`verify`
        #: once the phase (and any tracing) has ended.
        self.checks: list[Callable[[], None]] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def verify(self) -> None:
        for check in self.checks:
            check()


def _post_lookup(
    connection: http.client.HTTPConnection, key: str, headers: dict[str, str]
) -> tuple[int, bytes]:
    body = json.dumps({"sql": lookup_sql(key), "strict": True, "tags": True})
    connection.request(
        "POST",
        "/query",
        body=body.encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
    )
    response = connection.getresponse()
    return response.status, response.read()


def _expected_lookup(row: Row) -> dict[str, Any]:
    return {
        "columns": ["co_name", "address", "employees"],
        "rows": [[row.co_name, row.address, row.employees]],
        "row_count": 1,
        "tags": [
            {
                "address": {
                    "creation_time": str(row.address_created),
                    "source": row.address_source,
                },
                "employees": {
                    "creation_time": str(row.employees_created),
                    "source": row.employees_source,
                },
            }
        ],
    }


def _running(deadline: float, recorder: Optional[Recorder]) -> bool:
    """Whether a phase issues another request."""
    return perf_counter() < deadline and (recorder is None or not recorder.full())


def _as_read(recorder: Optional[Recorder], fn: Any, *args: Any) -> Any:
    if recorder is None:
        return fn(*args)
    return recorder.root("read", fn, *args)


def _check_lookup(key: str, status: int, body: bytes, rows: dict[str, Row]) -> Optional[str]:
    if status != 200:
        return f"lookup {key!r}: HTTP {status}"
    if json.loads(body) != _expected_lookup(rows[key]):
        return f"lookup {key!r}: wrong row or tags"
    return None


def run_http_lookup(
    system: System, inputs: Inputs, seconds: float, recorder: Optional[Recorder] = None
) -> Phase:
    # Replies are checked as they arrive, outside the request's timing,
    # so memory stays flat however many requests a run completes.
    phase = Phase()
    rows = {row.co_name: row for row in inputs.rows}
    outcomes: list[tuple[list[float], int, int, list[str]]] = []
    lock = threading.Lock()
    start = perf_counter()
    deadline = start + seconds

    def client(index: int) -> None:
        connection = system.connections[index]
        keys = inputs.lookup_keys(index)
        latencies: list[float] = []
        attempted = size = 0
        problems: list[str] = []

        def one(key: str) -> tuple[int, bytes]:
            headers = {}
            if recorder is not None:
                local = recorder.context()
                headers = {
                    REQUEST_HEADER: str(local.rid),
                    PARENT_HEADER: str(local.stack[-1]),
                }
            return _post_lookup(connection, key, headers)

        while _running(deadline, recorder):
            key = next(keys)
            attempted += 1
            began = perf_counter()
            try:
                status, body = _as_read(recorder, one, key)
            except (OSError, http.client.HTTPException) as exc:
                problems.append(f"lookup {key!r}: {exc!r}")
                connection.close()  # reconnects on the next request
                continue
            latencies.append(perf_counter() - began)
            size += len(body)
            problem = _check_lookup(key, status, body, rows)
            if problem is not None:
                problems.append(problem)
        with lock:
            outcomes.append((latencies, attempted, size, problems))

    threads = [
        threading.Thread(target=client, args=(index,), name=f"perfbench-client-{index}")
        for index in range(len(system.connections))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.seconds = perf_counter() - start
    for latencies, attempted, size, problems in outcomes:
        phase.reads.extend(latencies)
        phase.attempted += attempted
        phase.response_bytes += size
        for problem in problems:
            phase.fail(problem)
    return phase


def _fingerprint(result: Any) -> tuple:
    return tuple(result.schema.column_names), result.rows


def _timed_read(phase: Phase, recorder: Optional[Recorder], session: Any, sql: str) -> Any:
    """One session read, timed; an exception counts as a failed read."""
    phase.attempted += 1
    began = perf_counter()
    try:
        result = _as_read(recorder, session.execute, sql)
    except Exception as exc:  # the run goes on and reports the failure
        phase.fail(f"read {sql!r}: {exc!r}")
        return None
    phase.reads.append(perf_counter() - began)
    return result


def _oracle(sql: str, snapshot: Any) -> tuple:
    return _fingerprint(execute(sql, snapshot, planner=False))


def run_ingest_mixed(
    system: System, inputs: Inputs, seconds: float, recorder: Optional[Recorder] = None
) -> Phase:
    phase = Phase()
    relation = system.relation
    statements = inputs.scan_statements()
    ops = inputs.ingest_ops()
    initial = len(relation)
    written = 0
    # Per cycle: rows visible, pair index, and a hash of the result (a
    # hash keeps memory flat however many cycles a run completes).
    cycles: list[tuple[int, int, int]] = []
    with system.service.session() as session:
        start = perf_counter()
        deadline = start + seconds
        while _running(deadline, recorder):
            rows, index = next(ops)
            batch = [to_cells(row) for row in rows]
            phase.attempted += 1
            try:
                if recorder is None:
                    relation.insert_many(batch)
                else:
                    recorder.root("write", relation.insert_many, batch)
            except Exception as exc:  # the run goes on and reports the failure
                phase.fail(f"insert_many: {exc!r}")
                continue
            written += len(batch)
            # One writer, and it is this thread: every read of this cycle
            # pins the first ``visible`` rows of the live relation.
            visible = len(relation)
            seen = set()
            for _ in range(READS_PER_WRITE):
                result = _timed_read(phase, recorder, session, statements[index])
                if result is not None:
                    seen.add(hash(_fingerprint(result)))
            if len(seen) > 1:
                phase.fail(f"ingest reads of pair {index}: repeated reads differ")
            elif seen:
                cycles.append((visible, index, seen.pop()))
        phase.seconds = perf_counter() - start

    def check() -> None:
        count = system.service.execute("SELECT COUNT(*) AS n FROM customer").rows[0]["n"]
        if count != initial + written:
            phase.fail(f"ingest_mixed: {count} rows after the run, expected {initial} + {written}")
        # Rows are only appended, so the snapshot a cycle's reads pinned
        # is the prefix of the live relation that was visible then.  The
        # oracle re-scores every row, so at most ORACLE_CYCLES evenly
        # spaced cycles (first and last included) are checked against it.
        rows = relation.rows
        picked = cycles
        if len(cycles) > ORACLE_CYCLES:
            last = len(cycles) - 1
            picked = [cycles[round(i * last / (ORACLE_CYCLES - 1))] for i in range(ORACLE_CYCLES)]
        for visible, index, seen in picked:
            snapshot = TaggedRelation.from_rows(relation.schema, relation.tag_schema, rows[:visible])
            if seen != hash(_oracle(statements[index], snapshot)):
                phase.fail(f"ingest read of pair {index} at {visible} rows differs from the oracle")

    phase.checks.append(check)
    return phase


DRIVERS = {
    "http_lookup": run_http_lookup,
    "ingest_mixed": run_ingest_mixed,
}
