"""Repo-specific static analysis: the ``repro lint`` invariant linter.

An AST-based rule engine encoding the invariants the reproduction's
headline numbers rest on — per-seed bit determinism, the ``_s``/
``_ms``/``_bytes``/``_gb`` units discipline, ledger/observability
hygiene:

======= ==========================================================
code    invariant
======= ==========================================================
DET001  RNG draws come from an explicitly seeded ``default_rng``
DET002  wall-clock reads stay in the measured-host-span modules
DET003  sets / ``dict.keys()`` are sorted before iteration
UNIT001 no +/-/comparison across differing unit-name suffixes
OBS001  ``Tracer.span()`` is always a ``with`` context
LINT999 (engine) the file failed to parse at all
======= ==========================================================

Suppress a finding on its own line with a justified pragma::

    # repro-lint: disable=DET002 -- measured host span

or grandfather known debt in a JSON baseline (``--baseline`` /
``--update-baseline``).  ``python -m repro lint src`` is the CI gate
and ships at zero findings.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import (
    PARSE_FAILURE_CODE,
    LintReport,
    lint_paths,
    lint_source,
)
from repro.analysis.finding import Finding, Severity
from repro.analysis.formatting import (
    REPORT_SCHEMA,
    format_json,
    format_rule_list,
    format_text,
)
from repro.analysis.pragmas import collect_suppressions, is_suppressed
from repro.analysis.registry import (
    Rule,
    RuleContext,
    available_rules,
    get_rule,
    register_rule,
    rule_codes,
    unregister_rule,
)

__all__ = [
    "BASELINE_SCHEMA",
    "Baseline",
    "load_baseline",
    "save_baseline",
    "PARSE_FAILURE_CODE",
    "LintReport",
    "lint_paths",
    "lint_source",
    "Finding",
    "Severity",
    "REPORT_SCHEMA",
    "format_json",
    "format_rule_list",
    "format_text",
    "collect_suppressions",
    "is_suppressed",
    "Rule",
    "RuleContext",
    "available_rules",
    "get_rule",
    "register_rule",
    "rule_codes",
    "unregister_rule",
]
