"""Static analysis for QSQL queries and quality schemas.

The subsystem has three parts (DESIGN.md §8):

- the **diagnostics engine** (:mod:`repro.analysis.diagnostics`,
  :mod:`repro.analysis.codes`) — stable ``DQ`` codes, severities,
  source spans, caret rendering;
- the **query analyzer** (:mod:`repro.analysis.query`) — resolves a
  parsed statement against a catalog and tag schemas *before
  execution*: unknown names, type mismatches, coverage gaps,
  contradictions, style;
- the **schema linter** (:mod:`repro.analysis.schema`) — batched
  checks over tag schemas and methodology artifacts;
- the **plan verifier** (:mod:`repro.analysis.verifier`) — walks an
  optimized plan checking schema derivation, QUALITY placement,
  fusion parameters, partition pruning and plan-cache entries
  (``DQ40x``);
- the **workload analyzer** (:mod:`repro.analysis.workload`) —
  cross-statement lint over a corpus (``DQ42x``).

Entry points: the ``repro-lint`` CLI (``python -m repro.analysis``),
``execute(sql, source, strict=True)`` in :mod:`repro.sql`, and the
``REPRO_VERIFY_PLANS=1`` environment flag (verify every plan and
sanitize every operator's batch at runtime).
"""

from repro.analysis.codes import CODES, CodeInfo, code_info
from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    Diagnostics,
    QueryAnalysisError,
    Severity,
    Span,
)
from repro.analysis.query import analyze_query, analyze_statement
from repro.analysis.schema import (
    lint_database,
    lint_merge,
    lint_quality_schema,
    lint_rename,
    lint_tag_schema,
)
from repro.analysis.verifier import (
    PlanVerificationError,
    assert_plan_verifies,
    verify_cache_entry,
    verify_plan,
    verify_plans_enabled,
)
from repro.analysis.workload import analyze_workload, statement_fingerprint

__all__ = [
    "CODES",
    "CodeInfo",
    "code_info",
    "ERROR",
    "INFO",
    "WARNING",
    "Diagnostic",
    "Diagnostics",
    "QueryAnalysisError",
    "Severity",
    "Span",
    "PlanVerificationError",
    "analyze_query",
    "analyze_statement",
    "analyze_workload",
    "assert_plan_verifies",
    "lint_database",
    "lint_merge",
    "lint_quality_schema",
    "lint_rename",
    "lint_tag_schema",
    "statement_fingerprint",
    "verify_cache_entry",
    "verify_plan",
    "verify_plans_enabled",
]
