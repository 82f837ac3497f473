"""Static analyses behind ``python -m repro lint``: races, flow, lints.

This package backs the lint command and the daemon's ``lint`` op; it
never decides a verification verdict (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.analysis.races` — Eraser-style lockset race detection over
  the may-happen-in-parallel structure of ``Par``/``Atomic``;
* :mod:`repro.analysis.flow` — Denning-style PC-taint flow analysis with
  sound ``secure``/``unknown`` verdicts;
* :mod:`repro.analysis.prepass` — both analyses combined into one
  accept-only ``secure``/``unknown`` verdict that no verification path
  calls;
* :mod:`repro.analysis.lint` — a pluggable lint framework
  (``python -m repro lint``) emitting structured diagnostics;
* :mod:`repro.analysis.diagnostics` — the shared diagnostic type with
  deterministic text/JSON rendering and baseline suppression.
"""

from .diagnostics import (
    DIAGNOSTICS_SCHEMA_VERSION,
    Baseline,
    Diagnostic,
    has_errors,
    max_severity,
    render_json,
    render_text,
    severity_counts,
    sort_diagnostics,
)
from .flow import FlowReport, analyze_flow, analyze_spec_flow
from .lint import (
    LINT_RULES,
    LintRule,
    LintTarget,
    collect_targets,
    lint_case,
    lint_paths,
    lint_program,
    lint_rule,
    run_lint,
    target_from_source,
)
from .prepass import PrepassReport, run_prepass
from .races import ATOMIC_LOCK, HeapAccess, check_races, collect_accesses

__all__ = [
    "ATOMIC_LOCK",
    "Baseline",
    "DIAGNOSTICS_SCHEMA_VERSION",
    "Diagnostic",
    "FlowReport",
    "HeapAccess",
    "LINT_RULES",
    "LintRule",
    "LintTarget",
    "PrepassReport",
    "analyze_flow",
    "analyze_spec_flow",
    "check_races",
    "collect_accesses",
    "collect_targets",
    "has_errors",
    "lint_case",
    "lint_paths",
    "lint_program",
    "lint_rule",
    "max_severity",
    "render_json",
    "render_text",
    "run_lint",
    "run_prepass",
    "severity_counts",
    "sort_diagnostics",
    "target_from_source",
]
