"""The differential soundness oracle.

For each generated case the oracle derives three independent verdicts:

1. **Verifier, fast path on** — :func:`repro.verifier.frontend.verify`
   with ``static_prepass=True`` (the production configuration).
2. **Verifier, fast path off** — re-run with ``static_prepass=False``
   whenever the prepass actually engaged (it can only change the outcome
   when it reported ``secure``); any difference in the verified verdict
   is a *fast-path bug*.
3. **Empirical noninterference** — paired executions over the case's
   instance groups: every reachable final state, found by the
   partial-order-reduced explorer
   :func:`~repro.lang.scheduler.enumerate_executions`, when each
   variant's state space fits a budget of explored states; seeded
   :class:`~repro.lang.scheduler.RandomScheduler` sweeps otherwise.  A
   case the verifier PROVED that empirically leaks is a *soundness
   failure* — the one verdict that must never occur.

Observed leaks are additionally quantified so a failure report says not
just *that* the case leaks but how much.  In exhaustive mode the bound
comes for free from the exploration: ``leak_bits`` is log2 of the number
of distinct sets of reachable observations among the witness group's
variants, the possibilistic capacity of the channel on that group (one
set, 0 bits: the secret does not change what can be observed).  Only on
the sampled fallback is it estimated with
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

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..lang.ast import Command
from ..lang.interpreter import AbortError
from ..lang.scheduler import StateBudgetExceeded, enumerate_executions
from ..lang.semantics import ABORT, Config, State
from ..security.leakage import mutual_information, threshold_leak
from ..security.noninterference import NIReport, Witness, channel_observer
from ..security.noninterference import check_noninterference
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
    prepass: Optional[str]  # 'secure' | 'unknown' | None (did not engage)
    verified_no_prepass: Optional[bool]  # None when the fast path never fired
    empirical_secure: Optional[bool]
    empirical_mode: Optional[str]  # 'exhaustive' | 'sampled'
    #: ``NIReport.executions_checked``: distinct final states explored
    #: (exhaustive) or scheduled runs (sampled).
    executions: int
    witness: Optional[Witness]
    #: Size of an observed leak in bits (None without a leak).  In
    #: exhaustive mode, log2 of the number of distinct per-variant sets
    #: of reachable observations in the witness's instance group; in
    #: sampled mode, the empirical mutual information along the
    #: witness's differing high input (None when it has none).
    leak_bits: Optional[float]
    leak_threshold: Optional[bool]
    runtime_error: Optional[str]
    elapsed: float

    @property
    def soundness_failure(self) -> bool:
        return self.verified and self.empirical_secure is False

    @property
    def prepass_disagreement(self) -> bool:
        return self.verified_no_prepass is not None and self.verified_no_prepass != self.verified


# -- empirical check ---------------------------------------------------------


def _exhaustive_within_budget(
    program: Command,
    groups: Sequence[Sequence[dict]],
    budget: int,
    observe,
) -> Optional[tuple[NIReport, Optional[float]]]:
    """Exhaustive Def. 2.1 check and the leak size in bits (``None``
    when secure), or ``None`` if some variant's reachable state space
    exceeds ``budget`` explored configurations (a *completed* exploration
    is required — a truncated one could miss outputs asymmetrically
    across variants and fabricate witnesses).  Counts executions as
    :class:`NIReport` does: distinct final states.  Raises on an abort
    and on a variant with no terminating execution."""
    total = 0
    for variants in groups:
        seen: dict = {}
        per_variant = set()
        for inputs in variants:
            initial = Config(program, State.make(dict(inputs)))
            observed = set()
            try:
                for final in enumerate_executions(initial, max_steps=50_000, max_states=budget):
                    if final is ABORT:
                        raise AbortError(f"program aborts on inputs {inputs!r}")
                    total += 1
                    visible = observe(final.state.output)
                    observed.add(visible)
                    seen.setdefault(visible, inputs)
            except StateBudgetExceeded:
                return None
            if not observed:
                raise RuntimeError(f"deadlock on inputs {inputs!r}: no execution terminates")
            per_variant.add(frozenset(observed))
        if len(seen) > 1:
            ordered = sorted(seen.items(), key=lambda item: repr(item[0]))
            (out1, in1), (out2, in2) = ordered[0], ordered[1]
            witness = Witness(in1, in2, out1, out2, "exhaustive enumeration")
            return NIReport(False, witness, total), math.log2(len(per_variant))
    return NIReport(True, None, total), None


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
    exhaustive_budget: int = 2000,
    seed: int = 0,
) -> OracleOutcome:
    """Run the full differential check on one case."""
    start = time.perf_counter()
    verified = False
    prepass: Optional[str] = None
    verified_no_prepass: Optional[bool] = None
    empirical_secure: Optional[bool] = None
    empirical_mode: Optional[str] = None
    executions = 0
    witness: Optional[Witness] = None
    leak_bits: Optional[float] = None
    leak_threshold: Optional[bool] = None
    runtime_error: Optional[str] = None

    try:
        spec = case.program_spec()
        result_on = verify(
            spec, bounded_instances=case.instances, static_prepass=True, session=session
        )
        verified = _hooked(case, result_on.verified)
        prepass = result_on.prepass.verdict if result_on.prepass is not None else None
        if prepass == "secure":
            # Only a 'secure' prepass skips pipeline stages, so only then
            # can the fast path change the verdict — run the reference.
            result_off = verify(
                spec, bounded_instances=case.instances, static_prepass=False, session=session
            )
            verified_no_prepass = _hooked(case, result_off.verified)
    except Exception as error:  # a crash on a well-formed case is a finding
        return OracleOutcome(
            case=case, verified=False, prepass=None, verified_no_prepass=None,
            empirical_secure=None, empirical_mode=None, executions=0,
            witness=None, leak_bits=None, leak_threshold=None,
            runtime_error=f"verify: {type(error).__name__}: {error}",
            elapsed=time.perf_counter() - start,
        )

    observe = channel_observer(None)
    groups = case.instances()
    try:
        explored = _exhaustive_within_budget(case.program, groups, exhaustive_budget, observe)
        if explored is not None:
            empirical_mode = "exhaustive"
            report, bits = explored
        else:
            empirical_mode = "sampled"
            report = check_noninterference(
                case.program, groups, exhaustive=False, schedules=schedules,
                seed=seed, observe=observe,
            )
            bits = None
        empirical_secure = report.secure
        executions = report.executions_checked
        witness = report.witness
        if witness is not None:
            leak_bits, leak_threshold = _score_leak(case, witness, bits)
    except Exception as error:  # aborts, deadlocks, ill-typed pure calls
        runtime_error = f"{type(error).__name__}: {error}"

    return OracleOutcome(
        case=case,
        verified=verified,
        prepass=prepass,
        verified_no_prepass=verified_no_prepass,
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
    if outcome.prepass_disagreement:
        return "prepass-disagreement"
    if outcome.runtime_error is not None:
        return "runtime-error"
    return None


__all__ = [
    "OracleOutcome",
    "check_case",
    "failure_kind",
    "install_unsound_hook",
]
