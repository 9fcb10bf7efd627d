"""The diagnostic-code registry: every ``DQ`` code, documented.

Codes are stable identifiers (they appear in golden tests, CI output,
and user suppressions), grouped by the paper's artifact they check:

- ``DQ1xx`` — quality-schema lint: the Step 3/Step 4 view-integration
  checks (operationalization gaps, dangling references, schema drift,
  merge conflicts);
- ``DQ2xx`` — query analysis: semantic errors a QSQL statement would
  hit (or silently mis-answer) at execution time;
- ``DQ3xx`` — query style: legal but suspicious constructs;
- ``DQ40x`` — plan verification: structural invariants of optimized
  plan trees and plan-cache entries (the plan-IR static verifier);
- ``DQ42x`` — workload lint: cross-statement findings over a corpus of
  QSQL queries (``repro-lint --workload``).

:data:`CODES` maps each code to its :class:`CodeInfo`; the registry is
closed — constructing a :class:`~repro.analysis.diagnostics.Diagnostic`
with an unregistered code raises, so every emitted diagnostic is
documented here by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import ERROR, INFO, WARNING, Severity


@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    doc: str


_CODES: tuple[CodeInfo, ...] = (
    # -- DQ1xx: quality-schema lint -----------------------------------------
    CodeInfo(
        "DQ101",
        "tag-schema drift",
        ERROR,
        "The tag schema requires or allows indicators on a column that "
        "does not exist in the relation schema (the batched form of "
        "TagSchema.check_against).",
    ),
    CodeInfo(
        "DQ102",
        "unused indicator",
        WARNING,
        "An indicator is defined in the tag schema but neither required "
        "nor allowed on any column — dead weight in the quality schema.",
    ),
    CodeInfo(
        "DQ103",
        "unoperationalized parameter",
        WARNING,
        "A Step 2 quality parameter has no Step 3 indicator "
        "operationalizing it: the user's subjective requirement was "
        "never made measurable (paper Step 3 coverage check).",
    ),
    CodeInfo(
        "DQ104",
        "dangling parameter reference",
        WARNING,
        "An indicator annotation's derived_from names a parameter that "
        "does not appear in the parameter view — broken Step 2 → Step 3 "
        "traceability.",
    ),
    CodeInfo(
        "DQ105",
        "conflicting indicator definitions",
        ERROR,
        "The same indicator name is defined with conflicting domains "
        "across the schemas being merged/integrated (TagSchema.merge "
        "or Step 4 view integration would raise).",
    ),
    CodeInfo(
        "DQ106",
        "tagged-column collision",
        ERROR,
        "A rename/projection maps two tagged columns onto one output "
        "name, silently merging their indicator requirements.",
    ),
    # -- DQ2xx: query analysis ----------------------------------------------
    CodeInfo(
        "DQ200",
        "syntax error",
        ERROR,
        "The query failed to lex or parse.",
    ),
    CodeInfo(
        "DQ201",
        "unknown relation",
        ERROR,
        "The FROM clause names a relation the catalog does not contain.",
    ),
    CodeInfo(
        "DQ202",
        "unknown column",
        ERROR,
        "A referenced column does not exist in the relation schema.",
    ),
    CodeInfo(
        "DQ203",
        "unknown indicator",
        ERROR,
        "A QUALITY(...) reference names an indicator the relation's tag "
        "schema does not define.",
    ),
    CodeInfo(
        "DQ204",
        "indicator coverage gap",
        WARNING,
        "The indicator exists but is neither required nor allowed on the "
        "referenced column, so its tag can never be present there — the "
        "predicate filters on data the quality schema says is untagged.",
    ),
    CodeInfo(
        "DQ205",
        "QUALITY on untagged source",
        ERROR,
        "The statement uses QUALITY(...) but the source relation carries "
        "no quality tags.",
    ),
    CodeInfo(
        "DQ206",
        "invalid post-aggregation ORDER BY",
        ERROR,
        "In an aggregate query, ORDER BY must name an output column of "
        "the aggregation (and cannot use QUALITY(...) — aggregated "
        "values have no single manufacturing history).",
    ),
    CodeInfo(
        "DQ207",
        "aggregate type mismatch",
        ERROR,
        "SUM/AVG over a non-numeric column or indicator.",
    ),
    CodeInfo(
        "DQ208",
        "duplicate output column",
        ERROR,
        "Two select-list items produce the same output name.",
    ),
    CodeInfo(
        "DQ210",
        "operand type mismatch",
        ERROR,
        "A comparison or IN list mixes incomparable domains (e.g. a STR "
        "column against a number, or a DATE against a bare string — use "
        "DATE '...'); the predicate can never be true.",
    ),
    CodeInfo(
        "DQ211",
        "comparison with NULL literal",
        WARNING,
        "Comparing against the literal NULL is never true under "
        "SQL-style semantics; use IS [NOT] NULL.",
    ),
    CodeInfo(
        "DQ212",
        "unresolvable quality parameter",
        ERROR,
        "A QUALITY(parameter) score reference names a parameter that no "
        "scoring profile bound to the statement's relation defines (or "
        "the relation has no bound profile at all); executing would "
        "raise instead of scoring.",
    ),
    CodeInfo(
        "DQ220",
        "unsatisfiable conjunction",
        ERROR,
        "The WHERE conjunction is contradictory (e.g. source = 'A' AND "
        "source = 'B', or bounds that exclude each other): the query "
        "provably returns no rows.",
    ),
    CodeInfo(
        "DQ221",
        "tautological disjunction",
        WARNING,
        "A disjunction is always true (e.g. p OR NOT p, or x = v OR "
        "x <> v): the predicate does not filter.",
    ),
    # -- DQ3xx: query style --------------------------------------------------
    CodeInfo(
        "DQ301",
        "duplicate predicate",
        WARNING,
        "The same conjunct appears more than once in the WHERE clause.",
    ),
    CodeInfo(
        "DQ302",
        "duplicate IN option",
        INFO,
        "An IN list contains the same literal more than once.",
    ),
    CodeInfo(
        "DQ303",
        "LIMIT 0",
        WARNING,
        "LIMIT 0 returns no rows.",
    ),
    CodeInfo(
        "DQ304",
        "self-comparison",
        WARNING,
        "An operand is compared with itself: always true for non-null "
        "values (=, <=, >=) or always false (<, >, <>).",
    ),
    CodeInfo(
        "DQ305",
        "constant predicate",
        WARNING,
        "Both comparison operands are literals, so the predicate is a "
        "constant.",
    ),
    CodeInfo(
        "DQ306",
        "redundant DISTINCT",
        INFO,
        "DISTINCT over a projection that contains the relation's key "
        "cannot remove any rows.",
    ),
    CodeInfo(
        "DQ307",
        "duplicate ORDER BY key",
        INFO,
        "The same key appears more than once in ORDER BY; later "
        "occurrences never affect the ordering.",
    ),
    # -- DQ40x: plan verification ---------------------------------------------
    CodeInfo(
        "DQ401",
        "unresolved plan column",
        ERROR,
        "An operator references a column its input subtree does not "
        "provide (broken per-operator schema derivation): the plan "
        "would raise or silently mis-resolve at compile time.",
    ),
    CodeInfo(
        "DQ402",
        "plan schema mismatch",
        ERROR,
        "An operator's derived output schema is inconsistent: duplicate "
        "output names, hash-join inputs whose columns overlap, stale "
        "left/right column annotations, or a Scan whose tagged flag "
        "disagrees with the catalog relation.",
    ),
    CodeInfo(
        "DQ404",
        "misplaced QUALITY reference",
        ERROR,
        "A plan operator evaluates QUALITY(...) over an untagged "
        "subtree (plain scan, join output, or post-aggregation), where "
        "no per-cell tags exist.",
    ),
    CodeInfo(
        "DQ407",
        "illegal fusion parameters",
        ERROR,
        "A TopK/Limit with a negative count or a Sort/TopK with no "
        "order keys — shapes no legal rewrite sequence produces.",
    ),
    CodeInfo(
        "DQ408",
        "missed TopK fusion",
        WARNING,
        "An optimized plan still contains LIMIT directly over ORDER BY "
        "(a full sort where a bounded heap suffices); fuse_topk should "
        "have rewritten it.",
    ),
    CodeInfo(
        "DQ409",
        "stale plan-cache entry",
        ERROR,
        "Re-planning a plan-cache entry's statement against the live "
        "source read a fact the entry did not record with the same "
        "value (its validity check cannot see that dependency), or "
        "produced a different plan than the cached one — so a hit "
        "could serve a plan built for different inputs.",
    ),
    CodeInfo(
        "DQ410",
        "illegal partition pruning",
        ERROR,
        "An optimized plan's pruned Scan (static surviving-bucket set) "
        "is not justified: no governing Filter predicate, a predicate "
        "that does not restrict the partition key, stale layout "
        "metadata, or a surviving set that drops buckets the predicate "
        "can still reach. Executing it would silently drop rows.",
    ),
    # -- DQ42x: workload lint --------------------------------------------------
    CodeInfo(
        "DQ420",
        "duplicate statement modulo literals",
        WARNING,
        "Two or more workload statements differ only in literal values. "
        "The plan cache keys on statement text, so each variant misses "
        "the cache and plans from scratch; parameterize the statement.",
    ),
    CodeInfo(
        "DQ421",
        "contradictory quality requirements",
        WARNING,
        "Two workload statements impose mutually exclusive constraints "
        "on the same QUALITY(column.indicator) — the application views "
        "disagree about acceptable quality (paper Step 4 view "
        "integration conflict).",
    ),
    CodeInfo(
        "DQ422",
        "subsumed quality filter",
        INFO,
        "One statement's quality filter accepts a strict subset of the "
        "values another statement accepts on the same indicator; the "
        "stricter view could be served from the looser one.",
    ),
    CodeInfo(
        "DQ423",
        "indicator never queried",
        INFO,
        "A tag schema defines an indicator on a workload relation that "
        "no statement in the corpus ever references — quality metadata "
        "is collected but never consulted.",
    ),
    CodeInfo(
        "DQ424",
        "partition-key candidate",
        INFO,
        "A workload column is repeatedly constrained by equality (or "
        "IN) predicates across distinct statements but its relation is "
        "not hash-partitioned on it; declaring it the partition key "
        "would let the planner prune those scans statically.",
    ),
    CodeInfo(
        "DQ425",
        "unregistered quality parameter",
        INFO,
        "A workload statement references QUALITY(parameter) for a "
        "parameter no registered scoring profile defines; until a "
        "profile is registered and bound, the statement cannot execute "
        "and nothing materializes the score.",
    ),
)

#: The closed registry: code → CodeInfo.
CODES: dict[str, CodeInfo] = {info.code: info for info in _CODES}


def code_info(code: str) -> CodeInfo:
    """Look up a registered code; raises KeyError for unknown codes."""
    try:
        return CODES[code]
    except KeyError:
        raise KeyError(
            f"unregistered diagnostic code {code!r} "
            f"(registered: {sorted(CODES)})"
        ) from None


def render_code_table() -> str:
    """The documentation table printed by ``repro-lint --codes``."""
    lines = ["code   severity  title", "-----  --------  -----"]
    for info in _CODES:
        lines.append(
            f"{info.code}  {info.default_severity.label:<8}  {info.title}"
        )
        lines.append(f"       {info.doc}")
    return "\n".join(lines)
