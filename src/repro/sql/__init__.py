"""QSQL: a small SQL dialect with quality predicates.

The paper's mechanism is "the ability to query over [tags]" at query
time.  The fluent builders (:class:`repro.relational.query.Query`,
:class:`repro.tagging.query.QualityQuery`) give that ability to Python
code; QSQL gives it to strings, so applications and the administrator's
tooling can store and exchange quality-constrained queries:

    SELECT co_name, employees
    FROM customer
    WHERE employees > 100
      AND QUALITY(employees.source) <> 'estimate'
      AND QUALITY(address.creation_time) >= DATE '1991-06-01'
    ORDER BY co_name
    LIMIT 10

Supported: projections (or ``*``) with ``AS`` aliases and
``QUALITY(...)`` value columns; comparison/IN/IS NULL predicates over
values and ``QUALITY(column.indicator)`` tag references; AND/OR/NOT with
parentheses; aggregates ``COUNT/SUM/AVG/MIN/MAX`` (including over
``QUALITY(...)`` tag values — the administrator's quality reports) with
``GROUP BY``; ORDER BY (values, ``QUALITY(...)``, or aggregate outputs);
LIMIT; and typed literals (numbers, strings, booleans, NULL,
``DATE '...'``)::

    SELECT ticker, COUNT(*) AS quotes, AVG(QUALITY(price.age)) AS mean_age
    FROM ticks GROUP BY ticker ORDER BY mean_age

Statements run through a query planner by default: the AST lowers to a
logical plan (:mod:`repro.sql.plan`), rewrite rules route
``QUALITY(...)`` predicates into columnar tag-array scans and fuse
ORDER BY + LIMIT into a bounded heap (:mod:`repro.sql.optimizer`), a
batch physical executor runs the plan (:mod:`repro.sql.physical`), and
a plan cache keyed on statement text, and valid while the facts its
planning read are unchanged, skips lexing/parsing/planning for
repeated statements (:mod:`repro.sql.plancache`).  ``EXPLAIN SELECT ...`` returns the
rendered optimized plan.  That batch engine is the one way statements
execute; results are tested against one independent oracle,
:func:`repro.experiments.naive.naive_execute`.

Entry point: :func:`execute` (or :func:`parse` for the AST).
"""

from repro.sql.executor import execute
from repro.sql.parser import parse
from repro.sql.errors import SQLError
from repro.sql.plan import logical_plan, render_plan
from repro.sql.optimizer import PlanContext, optimize
from repro.sql.physical import compile_plan, execute_plan
from repro.sql.plancache import (
    PlanCache,
    clear_plan_cache,
    plan_cache_stats,
)

__all__ = [
    "PlanCache",
    "PlanContext",
    "SQLError",
    "clear_plan_cache",
    "compile_plan",
    "execute",
    "execute_plan",
    "logical_plan",
    "optimize",
    "parse",
    "plan_cache_stats",
    "render_plan",
]
