"""Seeded inputs for every workload of the request-path benchmark.

Everything a run feeds the program is derived here from the ``--seed``
argument: the customer rows, each HTTP client's Zipf key stream, the
32 ``(x, t)`` pairs of the quality-scan statement and the ingest op
sequence.  The program only ever sees these values.

Rows follow the paper's Table 2 schema (``CUSTOMER_SCHEMA`` with
``address`` and ``employees`` tagged by ``creation_time`` and
``source``).  They are plain tuples, so inputs compare by value and
this module imports nothing from the program.
"""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import random
from typing import Iterator, NamedTuple

#: The scoring context's "today"; every creation_time falls in the two
#: years before it.
TODAY = dt.date(1993, 4, 19)
MAX_AGE_DAYS = 730
#: The four fixed values of the ``source`` indicator.
SOURCES = ("acct'g", "sales", "Nexis", "estimate")
STREETS = ("Jay St", "Lois Av", "Main St", "Elm St", "Oak Av", "Pine Rd")
MAX_EMPLOYEES = 20_000

#: Rows loaded at set-up, per workload.
INITIAL_ROWS = {"http_lookup": 40_000, "ingest_mixed": 10_000}
WORKLOADS = tuple(INITIAL_ROWS)
#: Rows per ``insert_many`` batch, at set-up and in ``ingest_mixed``.
BATCH_ROWS = 10
SCAN_PAIRS = 32
ZIPF_S = 1.1


class Row(NamedTuple):
    co_name: str
    address: str
    address_created: dt.date
    address_source: str
    employees: int
    employees_created: dt.date
    employees_source: str


def company_name(index: int) -> str:
    return f"Co {index:06d}"


def scan_sql(x: int, t: float) -> str:
    """The one quality-scan statement shape (§4's fund-raising query)."""
    return (
        "SELECT co_name, employees FROM customer "
        f"WHERE employees > {x} "
        "AND QUALITY(employees.source) <> 'estimate' "
        f"AND QUALITY(timeliness) > {t} "
        "ORDER BY employees DESC LIMIT 20"
    )


def lookup_sql(key: str) -> str:
    return (
        "SELECT co_name, address, employees FROM customer "
        f"WHERE co_name = '{key}'"
    )


def _stream(seed: int, name: str) -> random.Random:
    """An independent generator per input stream (str seeds are stable)."""
    return random.Random(f"{seed}:{name}")


def _make_row(rng: random.Random, index: int) -> Row:
    def created() -> dt.date:
        return TODAY - dt.timedelta(days=rng.randrange(MAX_AGE_DAYS))

    return Row(
        company_name(index),
        f"{rng.randint(1, 999)} {rng.choice(STREETS)}",
        created(),
        rng.choice(SOURCES),
        rng.randint(1, MAX_EMPLOYEES),
        created(),
        rng.choice(SOURCES),
    )


class Inputs:
    """All generated inputs of one workload under one seed."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in INITIAL_ROWS:
            raise ValueError(
                f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})"
            )
        self.workload = workload
        self.seed = seed
        rng = _stream(seed, "rows")
        self.rows = tuple(
            _make_row(rng, index) for index in range(INITIAL_ROWS[workload])
        )
        # Narrow bands keep every statement's selectivity (and so its
        # cost) close: the read latency distribution stays single-moded.
        pairs = _stream(seed, "pairs")
        self.pairs = tuple(
            (pairs.randrange(9_000, 11_000), round(pairs.uniform(0.2, 0.3), 3))
            for _ in range(SCAN_PAIRS)
        )
        # Zipf ranks map onto names through a seeded permutation, so the
        # hot keys land in different hash buckets under different seeds.
        names = [row.co_name for row in self.rows]
        _stream(seed, "ranks").shuffle(names)
        self.names_by_rank = tuple(names)
        weights = [rank ** -ZIPF_S for rank in range(1, len(names) + 1)]
        self._zipf_cdf = list(itertools.accumulate(weights))

    def scan_statements(self) -> list[str]:
        return [scan_sql(x, t) for x, t in self.pairs]

    def lookup_keys(self, client: int) -> Iterator[str]:
        """One HTTP client's endless Zipf(s=1.1) key stream."""
        rng = _stream(self.seed, f"keys-{client}")
        cdf, names = self._zipf_cdf, self.names_by_rank
        total = cdf[-1]
        while True:
            yield names[bisect.bisect_left(cdf, rng.random() * total)]

    def ingest_ops(self) -> Iterator[tuple[tuple[Row, ...], int]]:
        """Endless ingest cycles: 10 fresh rows, then a pair index that
        the cycle's three reads use."""
        rng = _stream(self.seed, "ingest")
        for start in itertools.count(len(self.rows), BATCH_ROWS):
            batch = tuple(
                _make_row(rng, index) for index in range(start, start + BATCH_ROWS)
            )
            yield batch, rng.randrange(SCAN_PAIRS)
