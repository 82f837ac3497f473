"""The verification frontend (the HyperViper analogue's entry point).

``verify(program_spec, ...)`` runs the full pipeline:

1. **Specification validity** (Def. 3.1) for every declared resource —
   the abstract-commutativity core of the technique;
2. **Static analysis**: the relational taint walk plus the CSL/guard
   discipline checks of :mod:`repro.verifier.analysis`;
3. **Action conformance**: every annotated atomic block semantically
   implements its declared action (:mod:`repro.verifier.conformance`);
4. **Retroactive obligations**: obligations the static analysis deferred
   (high-context action counts, retroactive preconditions, unary argument
   constraints) are discharged with the bounded relational checker of
   :mod:`repro.security.noninterference` on caller-supplied instances —
   the executable counterpart of the paper's check-at-unshare mechanism.
   :func:`~repro.security.noninterference.check_noninterference` explores
   every reachable final state of each instance when its reduced state
   space fits the checker's state budget; sampled schedules decide only
   beyond it.  A check that ran no execution discharges nothing.

Every program takes this one path.  The verdict is ``verified`` only
when every stage passes; every failure carries a human-readable reason,
and counterexamples are concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..security.noninterference import NIReport, channel_observer, check_noninterference
from ..smt.session import SolverSession
from ..spec.validity import ValidityReport, check_validity_batch
from .analysis import Obligation, TaintAnalyzer
from .conformance import ConformanceReport, check_conformance
from .declarations import ProgramSpec

InstanceGenerator = Callable[[], Sequence[Sequence[dict]]]


@dataclass
class VerificationResult:
    """The outcome of verifying one program."""

    name: str
    verified: bool
    errors: tuple[str, ...]
    obligations: tuple[Obligation, ...]
    validity_reports: dict[str, ValidityReport]
    conformance_reports: tuple[ConformanceReport, ...]
    ni_report: Optional[NIReport] = None
    #: (action, solver verdict string) per block discharged symbolically.
    symbolic_conformance: tuple = ()

    def summary(self) -> str:
        lines = [f"{self.name}: {'VERIFIED' if self.verified else 'REJECTED'}"]
        for error in self.errors:
            lines.append(f"  error: {error}")
        for obligation in self.obligations:
            lines.append(f"  obligation: {obligation}")
        return "\n".join(lines)


def verify(
    program_spec: ProgramSpec,
    bounded_instances: Optional[InstanceGenerator] = None,
    session: Optional[SolverSession] = None,
) -> VerificationResult:
    """Run the full verification pipeline on one program.

    Stage 3 (atomic bodies implement their actions) is discharged by
    symbolic VC generation + the SMT solver (all paths covered by
    construction); blocks outside the symbolic fragment (loops in atomic
    bodies, blocking guards, foreign heap cells) fall back to semantic
    sampling.

    The run's conformance VCs are discharged on one shared incremental
    :class:`~repro.smt.session.SolverSession`: its own, built for this
    run, unless ``session`` passes a caller-owned one (a batch of
    requests, or a fuzz campaign, shares one this way).  The verdict
    does not depend on what that session solved before.

    Stage 4 discharges retroactive obligations on ``bounded_instances``
    with :func:`~repro.security.noninterference.check_noninterference`:
    exhaustive within its state budget, sampled beyond it.  Each
    obligation's ``method`` names the mode that decided.  Instances with
    no execution to check are rejected like missing instances.
    """
    errors: list[str] = []

    # Stage 1: specification validity (Def. 3.1), one report per resource.
    validity_reports: dict[str, ValidityReport] = {}
    reports = check_validity_batch(decl.spec for decl in program_spec.resources)
    for decl, report in zip(program_spec.resources, reports):
        validity_reports[decl.name] = report
        if not report.valid:
            for counterexample in report.counterexamples:
                errors.append(f"resource {decl.name}: invalid specification — {counterexample}")

    # Stage 2: static analysis (taint + CSL discipline).
    analyzer = TaintAnalyzer(program_spec)
    analysis = analyzer.analyze()
    errors.extend(analysis.errors)

    # Stage 3: action conformance of every annotated atomic block —
    # symbolically where possible, by semantic sampling otherwise.  The
    # symbolic discharges share one solver session.
    from ..smt.solver import Verdict
    from .vcgen import VCError, discharge_conformance

    run_session = session if session is not None else SolverSession()
    conformance_reports: list[ConformanceReport] = []
    symbolic_conformance: list[tuple[str, str]] = []
    for atomic in analysis.atomic_blocks:
        decl = program_spec.resource_by_action(atomic.action)
        # A blocking guard, a VCError (outside the symbolic fragment) or
        # an unknown verdict: the block is sampled below.
        symbolic_result = None
        if atomic.when is None:
            try:
                symbolic_result = discharge_conformance(decl, atomic, session=run_session)
            except VCError:
                pass
        if symbolic_result is not None and symbolic_result.verdict != Verdict.UNKNOWN:
            symbolic_conformance.append((atomic.action, symbolic_result.verdict.value))
            if symbolic_result.verdict == Verdict.REFUTED:
                errors.append(
                    f"atomic [{atomic.action}]: body does not implement the action — "
                    f"symbolic countermodel {dict(symbolic_result.model or {})}"
                )
            continue
        report = check_conformance(decl, atomic)
        conformance_reports.append(report)
        if not report.ok:
            errors.append(str(report))

    # Stage 4: retroactive obligations via bounded relational checking.
    ni_report: Optional[NIReport] = None
    obligations = list(analysis.obligations)
    if obligations and not errors:
        if bounded_instances is not None:
            ni_report = check_noninterference(
                program_spec.program,
                bounded_instances(),
                observe=channel_observer(program_spec.low_channels),
            )
        if ni_report is None or ni_report.executions_checked == 0:
            errors.append(
                f"{len(obligations)} retroactive obligation(s) and no bounded instances "
                f"supplied to discharge them"
            )
        elif ni_report.secure:
            exhaustive = ni_report.mode == "exhaustive"
            for obligation in obligations:
                obligation.discharged = True
                obligation.method = (
                    "exhaustive interleaving check" if exhaustive else "sampled schedules"
                )
        else:
            errors.append(
                f"retroactive obligations refuted by bounded checking: {ni_report.witness}"
            )

    verified = not errors
    return VerificationResult(
        name=program_spec.name,
        verified=verified,
        errors=tuple(errors),
        obligations=tuple(obligations),
        validity_reports=validity_reports,
        conformance_reports=tuple(conformance_reports),
        ni_report=ni_report,
        symbolic_conformance=tuple(symbolic_conformance),
    )

