"""The combined static pass: races and flow in one verdict.

``run_prepass`` composes the lockset race detector and the flow analysis
into one verdict —

* ``secure`` — the program is race-free under the lockset abstraction
  *and* the flow analysis proves every observable trace a function of
  the low inputs;
* ``unknown`` — anything else.

The prepass never claims a program *insecure*: its analyses over-
approximate, so findings (potential leaks, potential races) only appear
as diagnostics, and the verdict degrades to ``unknown``.

No verification path calls it: every request runs the full
pipeline of :func:`repro.verifier.frontend.verify`.  It stays public
because the end-to-end benchmark's tracer wraps it by name; once that
tracer drops it, this module can go.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..verifier.declarations import ProgramSpec
from .diagnostics import Diagnostic
from .flow import FlowReport, analyze_spec_flow
from .races import check_races


@dataclass(frozen=True)
class PrepassReport:
    """Outcome of the combined static pass."""

    verdict: str  # 'secure' | 'unknown'
    flow: FlowReport
    race_diagnostics: Tuple[Diagnostic, ...]
    reasons: Tuple[str, ...]

    @property
    def secure(self) -> bool:
        return self.verdict == "secure"

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return self.race_diagnostics + self.flow.findings


def run_prepass(spec: ProgramSpec) -> PrepassReport:
    """Run both static analyses over a fully-specified program."""
    races = tuple(check_races(spec.program, spec, source=spec.name))
    flow = analyze_spec_flow(spec)
    reasons = list(flow.reasons)
    for diagnostic in races:
        reasons.append(f"{diagnostic.code}: {diagnostic.message}")
    for finding in flow.findings:
        reasons.append(f"{finding.code}: {finding.message}")
    if flow.secure and not races:
        return PrepassReport("secure", flow, races, ())
    return PrepassReport("unknown", flow, races, tuple(reasons))
