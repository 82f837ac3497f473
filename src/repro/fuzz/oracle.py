"""The differential soundness oracle.

For each generated case the oracle derives two independent verdicts:

1. **Verifier** — one :func:`repro.verifier.frontend.verify` call, the
   same pipeline every request takes.
2. **Empirical noninterference** — the Def. 2.1 checker that ``verify``'s
   stage 4 uses,
   :func:`~repro.security.noninterference.check_noninterference`, over
   the case's instance groups: every reachable final state when each
   variant's state space fits its state budget, seeded random schedules
   otherwise.  A case the verifier PROVED that empirically leaks is a
   *soundness failure* — the one verdict that must never occur.

Observed leaks are additionally quantified so a failure report says not
just *that* the case leaks but how much.  In exhaustive mode the bound
comes for free from the exploration (``NIReport.leak_bits``: log2 of the
number of distinct sets of reachable observations among the witness
group's variants).  Only on the sampled fallback is it estimated with
:func:`repro.security.leakage.mutual_information`.  In both modes
:func:`~repro.security.leakage.threshold_leak` checks whether
round-robin scheduling alone distinguishes the witness's secrets.

A variant with no terminating execution (every schedule deadlocks) is a
runtime error, not a vacuous pass; see
:mod:`repro.security.noninterference`.

``install_unsound_hook`` lets tests inject a deliberately unsound
verdict (forcing ``verified`` for selected cases) to prove end to end
that the oracle catches it and the shrinker minimizes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

# Unused here; kept as a module name because perfbench/tracer.py wraps it.
from ..lang.scheduler import enumerate_executions  # noqa: F401
from ..security.leakage import mutual_information, threshold_leak
from ..security.noninterference import Witness, channel_observer, check_noninterference
from ..smt.session import SolverSession
from ..verifier.frontend import verify
from .gen import GeneratedCase

# -- test hook ---------------------------------------------------------------

_UNSOUND_HOOK: Optional[Callable[[GeneratedCase], bool]] = None


def install_unsound_hook(hook: Optional[Callable[[GeneratedCase], bool]]) -> None:
    """Install (or clear, with ``None``) the injected-unsoundness hook.

    When the hook returns ``True`` for a case, the verifier's verdict is
    forced to *verified* — simulating a soundness bug the differential
    oracle must catch.  Testing only."""
    global _UNSOUND_HOOK
    _UNSOUND_HOOK = hook


def _hooked(case: GeneratedCase, verified: bool) -> bool:
    if _UNSOUND_HOOK is not None and _UNSOUND_HOOK(case):
        return True
    return verified


# -- outcome record ----------------------------------------------------------


@dataclass(frozen=True)
class OracleOutcome:
    """Everything the oracle concluded about one case."""

    case: GeneratedCase
    verified: bool
    empirical_secure: Optional[bool]
    empirical_mode: Optional[str]  # 'exhaustive' | 'sampled'
    #: ``NIReport.executions_checked``: distinct final states explored
    #: (exhaustive) or scheduled runs (sampled).
    executions: int
    witness: Optional[Witness]
    #: Size of an observed leak in bits (None without a leak).  In
    #: exhaustive mode, ``NIReport.leak_bits``; in sampled mode, the
    #: empirical mutual information along the witness's differing high
    #: input (None when it has none).
    leak_bits: Optional[float]
    leak_threshold: Optional[bool]
    runtime_error: Optional[str]
    elapsed: float

    @property
    def soundness_failure(self) -> bool:
        return self.verified and self.empirical_secure is False


# -- empirical check ---------------------------------------------------------


def _score_leak(
    case: GeneratedCase, witness: Witness, bits: Optional[float]
) -> tuple[Optional[float], Optional[bool]]:
    """Quantify an observed leak along the witness's differing high
    input: ``bits`` when the exploration already measured it, else the
    sampled mutual information; plus the round-robin threshold test."""
    differing = [
        name
        for name in sorted(case.high_inputs)
        if witness.inputs1.get(name) != witness.inputs2.get(name)
    ]
    if not differing:
        # Same inputs, different schedules: a pure scheduler channel.
        return bits, None
    high_var = differing[0]
    fixed = {k: v for k, v in witness.inputs1.items() if k != high_var}
    values = [witness.inputs1[high_var], witness.inputs2[high_var]]
    try:
        if bits is None:
            bits = mutual_information(
                case.program, high_var, values, runs_per_value=24, seed=7, fixed_inputs=fixed
            )
        threshold = threshold_leak(case.program, high_var, values, fixed_inputs=fixed)
        return bits, threshold.distinguishes
    except Exception:
        return bits, None


# -- the oracle --------------------------------------------------------------


def check_case(
    case: GeneratedCase,
    session: Optional[SolverSession] = None,
    schedules: int = 10,
    seed: int = 0,
) -> OracleOutcome:
    """Run the full differential check on one case."""
    start = time.perf_counter()
    verified = False
    empirical_secure: Optional[bool] = None
    empirical_mode: Optional[str] = None
    executions = 0
    witness: Optional[Witness] = None
    leak_bits: Optional[float] = None
    leak_threshold: Optional[bool] = None
    runtime_error: Optional[str] = None

    try:
        result = verify(case.program_spec(), bounded_instances=case.instances, session=session)
        verified = _hooked(case, result.verified)
    except Exception as error:  # a crash on a well-formed case is a finding
        return OracleOutcome(
            case=case, verified=False, empirical_secure=None, empirical_mode=None, executions=0,
            witness=None, leak_bits=None, leak_threshold=None,
            runtime_error=f"verify: {type(error).__name__}: {error}",
            elapsed=time.perf_counter() - start,
        )

    try:
        report = check_noninterference(
            case.program, case.instances(), observe=channel_observer(None),
            schedules=schedules, seed=seed,
        )
        empirical_mode = report.mode
        empirical_secure = report.secure
        executions = report.executions_checked
        witness = report.witness
        if witness is not None:
            leak_bits, leak_threshold = _score_leak(case, witness, report.leak_bits)
    except Exception as error:  # aborts, deadlocks, ill-typed pure calls
        runtime_error = f"{type(error).__name__}: {error}"

    return OracleOutcome(
        case=case,
        verified=verified,
        empirical_secure=empirical_secure,
        empirical_mode=empirical_mode,
        executions=executions,
        witness=witness,
        leak_bits=leak_bits,
        leak_threshold=leak_threshold,
        runtime_error=runtime_error,
        elapsed=time.perf_counter() - start,
    )


def failure_kind(outcome: OracleOutcome) -> Optional[str]:
    """The failure class of an outcome, if any (soundness dominates)."""
    if outcome.soundness_failure:
        return "soundness"
    if outcome.runtime_error is not None:
        return "runtime-error"
    return None


__all__ = [
    "OracleOutcome",
    "check_case",
    "failure_kind",
    "install_unsound_hook",
]
