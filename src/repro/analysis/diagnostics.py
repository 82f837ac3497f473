"""Structured diagnostics for the static analyses and lints.

Every analysis in :mod:`repro.analysis` (lockset race detection, flow
analysis, lint rules) reports findings as :class:`Diagnostic` values: a
stable code, a severity, an optional source span, and a human-readable
message.  Diagnostics are JSON-round-trippable (``to_wire``/``from_wire``)
so they travel over the daemon protocol unchanged, and rendering is
deterministic (sorted by source, position, code, message) so CI output
and golden tests are stable.

Diagnostic codes
----------------

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
``R001``  error     data race: conflicting parallel accesses, empty lockset
``R002``  error     shared-cell access outside an atomic block
``R003``  error     unique action used by both branches of a ``||``
``F001``  error     explicit flow: secret-tainted value reaches an output
``F002``  error     implicit flow: output under a secret-dependent branch
``L001``  warning   variable is written but never read
``L002``  warning   unreachable code after a non-terminating loop
``L003``  warning   shadowing: procedure parameter hides an outer variable
``L004``  warning   annotated atomic block never touches the shared cell
``L005``  error     ``fork`` without a matching ``join``
``L006``  warning   declared low view is never applied by the program
``P001``  error     source file does not parse
========  ========  =====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..lang.ast import Node, node_pos

#: Wire-schema version for JSON diagnostic reports.
DIAGNOSTICS_SCHEMA_VERSION = 1

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analysis or lint rule."""

    code: str
    severity: str  # 'error' | 'warning' | 'info'
    message: str
    source: str = "<program>"
    line: Optional[int] = None
    column: Optional[int] = None

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.source, self.line or 0, self.column or 0, self.code, self.message)

    def render(self) -> str:
        """One-line text rendering, ``source:line:col: severity[code]: message``."""
        where = self.source
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        return f"{where}: {self.severity}[{self.code}]: {self.message}"

    def to_wire(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "source": self.source,
        }
        if self.line is not None:
            payload["line"] = self.line
        if self.column is not None:
            payload["column"] = self.column
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Diagnostic":
        return cls(
            code=str(payload["code"]),
            severity=str(payload["severity"]),
            message=str(payload["message"]),
            source=str(payload.get("source", "<program>")),
            line=payload.get("line"),
            column=payload.get("column"),
        )


def diagnostic_at(
    code: str,
    severity: str,
    message: str,
    node: Optional[Node] = None,
    source: str = "<program>",
) -> Diagnostic:
    """Build a diagnostic citing ``node``'s source position when it has one."""
    pos = node_pos(node) if node is not None else None
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        source=source,
        line=None if pos is None else pos.line,
        column=None if pos is None else pos.column,
    )


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return sorted(diagnostics, key=Diagnostic.sort_key)


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """The most severe level present, or ``None`` for an empty report."""
    best: Optional[str] = None
    for diagnostic in diagnostics:
        if best is None or _SEVERITY_RANK[diagnostic.severity] < _SEVERITY_RANK[best]:
            best = diagnostic.severity
    return best


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(diagnostic.is_error for diagnostic in diagnostics)


def severity_counts(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    counts = {name: 0 for name in SEVERITIES}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return counts


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Deterministic multi-line text report (one :meth:`Diagnostic.render` per line)."""
    ordered = sort_diagnostics(diagnostics)
    lines = [diagnostic.render() for diagnostic in ordered]
    counts = severity_counts(ordered)
    lines.append(
        f"{len(ordered)} diagnostic(s): "
        f"{counts['error']} error(s), {counts['warning']} warning(s), {counts['info']} info"
    )
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Deterministic JSON report with a schema version and severity summary."""
    ordered = sort_diagnostics(diagnostics)
    report = {
        "version": DIAGNOSTICS_SCHEMA_VERSION,
        "diagnostics": [diagnostic.to_wire() for diagnostic in ordered],
        "summary": severity_counts(ordered),
    }
    return json.dumps(report, indent=2, sort_keys=True)


# =============================================================================
# Baseline suppression
# =============================================================================


@dataclass
class Baseline:
    """A recorded set of accepted findings, keyed by ``(source, code)``.

    CI lints the shipped corpus with a baseline file: known findings are
    suppressed up to the recorded count per key, anything beyond that (a
    regression) still fails.  ``python -m repro lint --write-baseline``
    records the current findings.
    """

    allowed: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def from_diagnostics(cls, diagnostics: Iterable[Diagnostic]) -> "Baseline":
        allowed: Dict[Tuple[str, str], int] = {}
        for diagnostic in diagnostics:
            key = (diagnostic.source, diagnostic.code)
            allowed[key] = allowed.get(key, 0) + 1
        return cls(allowed)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        payload = json.loads(path.read_text())
        allowed: Dict[Tuple[str, str], int] = {}
        for entry in payload.get("suppressions", ()):
            allowed[(str(entry["source"]), str(entry["code"]))] = int(entry.get("count", 1))
        return cls(allowed)

    def save(self, path: Path) -> None:
        suppressions = [
            {"source": source, "code": code, "count": count}
            for (source, code), count in sorted(self.allowed.items())
        ]
        payload = {"version": DIAGNOSTICS_SCHEMA_VERSION, "suppressions": suppressions}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def apply(self, diagnostics: Sequence[Diagnostic]) -> Tuple[List[Diagnostic], int]:
        """Split ``diagnostics`` into (kept, suppressed-count)."""
        remaining = dict(self.allowed)
        kept: List[Diagnostic] = []
        suppressed = 0
        for diagnostic in sort_diagnostics(diagnostics):
            key = (diagnostic.source, diagnostic.code)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                suppressed += 1
            else:
                kept.append(diagnostic)
        return kept, suppressed
