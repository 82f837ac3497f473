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

The verdict is ``verified`` only when every stage passes; every failure
carries a human-readable reason, and counterexamples are concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # imported lazily at run time: repro.analysis imports us
    from ..analysis.prepass import PrepassReport

from ..security.noninterference import NIReport, channel_observer, check_noninterference
from ..smt.session import SolverSession
from ..spec.validity import ValidityReport, check_validity_batch
from .analysis import Obligation, TaintAnalyzer
from .conformance import ConformanceReport, check_conformance
from .declarations import ProgramSpec

InstanceGenerator = Callable[[], Sequence[Sequence[dict]]]

#: One shared solver session per *worker process* for parallel
#: conformance discharge: obligations shipped to the same worker reuse
#: each other's learned clauses and Tseitin definitions, and the worker's
#: validity-cache delta flows back to the parent via repro.parallel.
_WORKER_SESSION: Optional[SolverSession] = None


def _discharge_one(decl, atomic, session) -> tuple:
    """Discharge one conformance VC; VCErrors become data (they must
    survive a process-pool hop)."""
    from .vcgen import VCError, discharge_conformance

    try:
        return ("ok", discharge_conformance(decl, atomic, session=session))
    except VCError as error:
        return ("vcerror", str(error))


def _conformance_task(payload: tuple) -> tuple:
    """Pool task: discharge one (decl, atomic) pair on the worker's
    shared session."""
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        _WORKER_SESSION = SolverSession()
    decl, atomic = payload
    return _discharge_one(decl, atomic, _WORKER_SESSION)


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
    #: The static pre-verification report (None when the prepass is off).
    #: When ``prepass.secure``, stages 3 and 4 were skipped entirely.
    prepass: Optional[PrepassReport] = None

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
    jobs: int = 1,
    session: Optional[SolverSession] = None,
    static_prepass: bool = True,
) -> VerificationResult:
    """Run the full verification pipeline on one program.

    Stage 3 (atomic bodies implement their actions) is discharged by
    symbolic VC generation + the SMT solver (all paths covered by
    construction); blocks outside the symbolic fragment (loops in atomic
    bodies, blocking guards, foreign heap cells) fall back to semantic
    sampling.

    ``jobs > 1`` fans the independent obligations — per-resource Def. 3.1
    validity in stage 1, per-block conformance VCs in stage 3 — out over
    a process pool, merging each worker's validity-cache delta back into
    the parent store (sequential fallback when the spec's callables do
    not pickle; verdicts are identical either way).  The run's
    conformance VCs are discharged on one shared incremental
    :class:`~repro.smt.session.SolverSession`: its own, built for this
    run, unless ``session`` passes a *caller-owned* warm session that is
    reused across verify() calls — how the verification daemon
    (:mod:`repro.server`) carries learned clauses and Tseitin
    definitions from one batch to the next.

    Stage 4 discharges retroactive obligations on ``bounded_instances``
    with :func:`~repro.security.noninterference.check_noninterference`:
    exhaustive within its state budget, sampled beyond it.  Each
    obligation's ``method`` names the mode that decided.  Instances with
    no execution to check are rejected like missing instances.

    ``static_prepass`` (default on) runs the sound static pre-verification
    of :mod:`repro.analysis` after stage 2: when the lockset race detector
    and the flow analysis jointly prove the program secure, stages 3 and 4
    are skipped — no VCs are generated and the SMT solver is never
    touched.  The prepass only ever *accepts*; any rejection still comes
    from the full pipeline, so disabling it (``static_prepass=False``)
    changes wall-clock time, never verdicts.
    """
    errors: list[str] = []

    # Stage 1: specification validity (Def. 3.1) — one independent
    # obligation per resource, fanned out when jobs > 1.
    validity_reports: dict[str, ValidityReport] = {}
    reports = check_validity_batch(
        (decl.spec for decl in program_spec.resources), jobs=jobs
    )
    for decl, report in zip(program_spec.resources, reports):
        validity_reports[decl.name] = report
        if not report.valid:
            for counterexample in report.counterexamples:
                errors.append(f"resource {decl.name}: invalid specification — {counterexample}")

    # Stage 2: static analysis (taint + CSL discipline).
    analyzer = TaintAnalyzer(program_spec)
    analysis = analyzer.analyze()
    errors.extend(analysis.errors)

    # Static pre-verification fast path: when the race detector and the
    # flow analysis jointly prove the program secure (and stages 1–2 are
    # clean), the security property holds without the abstract-
    # commutativity argument — skip VC generation and SMT discharge.
    # Deferred taint obligations (e.g. a retroactive action count under
    # a high branch) encode abstraction observability the flow model
    # does not cover, so any obligation disables the fast path.
    prepass_report: Optional["PrepassReport"] = None
    if static_prepass and not errors and not analysis.obligations:
        from ..analysis.prepass import run_prepass

        prepass_report = run_prepass(program_spec)
        if prepass_report.secure:
            return VerificationResult(
                name=program_spec.name,
                verified=True,
                errors=(),
                obligations=(),
                validity_reports=validity_reports,
                conformance_reports=(),
                ni_report=None,
                symbolic_conformance=(),
                prepass=prepass_report,
            )

    # Stage 3: action conformance of every annotated atomic block —
    # symbolically where possible, by semantic sampling otherwise.  The
    # symbolic discharges are independent VCs: they run up front, either
    # over the process pool (jobs > 1) or on one shared solver session.
    from ..smt.solver import Verdict

    eligible = [atomic for atomic in analysis.atomic_blocks if atomic.when is None]
    symbolic_outcomes: dict[int, tuple] = {}
    if eligible:
        payloads = [
            (program_spec.resource_by_action(atomic.action), atomic)
            for atomic in eligible
        ]
        run_session = session if session is not None else SolverSession()

        def _discharge_in_process(payload):
            decl, atomic = payload
            return _discharge_one(decl, atomic, run_session)

        if jobs > 1 and len(payloads) > 1:
            from ..parallel import parallel_map

            # The pool task keeps one session per *worker process*; when
            # the pool cannot engage (unpicklable spec callables, broken
            # pool), the fallback stays on this run's own session so
            # nothing leaks across verify() calls.
            outcomes = parallel_map(
                _conformance_task,
                payloads,
                jobs=jobs,
                fallback_fn=_discharge_in_process,
            )
        else:
            outcomes = [_discharge_in_process(payload) for payload in payloads]
        symbolic_outcomes = {
            id(atomic): outcome for atomic, outcome in zip(eligible, outcomes)
        }

    conformance_reports: list[ConformanceReport] = []
    symbolic_conformance: list[tuple[str, str]] = []
    for atomic in analysis.atomic_blocks:
        decl = program_spec.resource_by_action(atomic.action)
        # A blocking guard (no outcome), a VCError (outside the symbolic
        # fragment) or an unknown verdict: the block is sampled below.
        kind, symbolic_result = symbolic_outcomes.get(id(atomic), ("skipped", None))
        if kind == "ok" and symbolic_result.verdict != Verdict.UNKNOWN:
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
        prepass=prepass_report,
    )

