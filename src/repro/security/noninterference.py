"""Empirical non-interference checking (Def. 2.1).

The property: for any two terminating executions — under *any* schedules —
whose low inputs agree, the low outputs agree.  This module checks it two
ways:

* :func:`check_exhaustive` — explore **every** reachable final state of a
  (small) instance for each high-input variant
  (:func:`~repro.lang.scheduler.enumerate_executions`, a state-space
  search with commutativity-based partial-order reduction) and compare
  the full set of reachable low outputs.  Sound and complete for the
  instance.  ``max_states`` bounds each variant's exploration; over it,
  :class:`~repro.lang.scheduler.StateBudgetExceeded` is raised.
* :func:`check_sampled` — run many seeded-random and round-robin schedules
  across high-input variants; a difference in low outputs is a genuine
  counterexample (a *witness* of a value channel), agreement is evidence.

Only terminating executions count (Def. 2.1): a variant in which some
schedules deadlock (every thread blocked on an ``atomic ... when`` guard)
and others terminate is judged on the ones that terminate.  A variant
with *no* terminating execution and no abort has nothing to compare, so
the exhaustive check raises ``RuntimeError`` for it, as
:func:`~repro.lang.interpreter.run` does on a deadlock — it never passes
vacuously.

:func:`check_noninterference` combines them (exhaustive within
:data:`STATE_BUDGET`, sampled beyond it) and is the one Def. 2.1 checker:
the verifier's stage 4 discharges retroactive obligations with it (Sec.
2.5's "check when unsharing") and the fuzz oracle judges every case with
it.  The test suite uses these checks as the executable counterpart of
the Isabelle soundness theorem: whatever the verifier accepts must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

from ..lang.ast import Command
from ..lang.interpreter import run
from ..lang.scheduler import RandomScheduler, RoundRobinScheduler, enumerate_executions
from ..lang.scheduler import StateBudgetExceeded
from ..lang.semantics import ABORT, Config, State

Observation = tuple  # the program's public output trace

ObserveFn = Callable[[tuple], tuple]

#: Explored configurations allowed per enumeration before
#: :func:`check_noninterference` falls back to sampled schedules (2.2x
#: the largest corpus enumeration).  Read at call time.
STATE_BUDGET = 20_000

_BUDGET: Any = object()  # check_noninterference's default: STATE_BUDGET


def observation(trace: tuple, low_channels: Optional[frozenset]) -> tuple:
    """Project an output trace to the channels an attacker observes.

    Default-channel prints appear as plain values (channel ``"out"``);
    other channels as ``(channel, value)`` pairs.  ``low_channels`` of
    ``None`` observes everything (the paper's single public output)."""
    if low_channels is None:
        return trace
    result = []
    for entry in trace:
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str):
            if entry[0] in low_channels:
                result.append(entry)
        elif "out" in low_channels:
            result.append(entry)
    return tuple(result)


def channel_observer(low_channels: Optional[frozenset]) -> ObserveFn:
    """An observation function for :func:`check_noninterference`."""

    def observe(trace: tuple) -> tuple:
        return observation(trace, low_channels)

    return observe


@dataclass(frozen=True)
class Witness:
    """A concrete non-interference violation."""

    inputs1: dict
    inputs2: dict
    output1: Observation
    output2: Observation
    detail: str

    def __str__(self) -> str:
        return (
            f"non-interference violated: inputs {self.inputs1!r} vs {self.inputs2!r} "
            f"gave outputs {self.output1!r} vs {self.output2!r} ({self.detail})"
        )


@dataclass(frozen=True)
class NIReport:
    """Outcome of a Def. 2.1 check.

    ``mode`` is ``"exhaustive"`` or ``"sampled"``.  ``executions_checked``
    counts, summed over the input variants checked, the distinct final
    states (store, heap and output) explored, or the scheduled runs.
    ``leak_bits``, on an exhaustive refutation only, is log2 of the number
    of distinct per-variant sets of observations in the witness's group:
    the possibilistic capacity of the channel on that group.
    """

    secure: bool
    witness: Optional[Witness]
    executions_checked: int
    mode: str
    leak_bits: Optional[float] = None

    def __bool__(self) -> bool:
        return self.secure


def _final_states(
    program: Command, inputs: dict, max_steps: int, max_states: Optional[int] = None
) -> list:
    """Every distinct final :class:`State` over all interleavings.

    Raises RuntimeError when an abort is reachable or when no execution
    terminates (a total deadlock)."""
    initial = Config(program, State.make(dict(inputs)))
    finals = []
    for final in enumerate_executions(initial, max_steps=max_steps, max_states=max_states):
        if final is ABORT:
            raise RuntimeError(f"program aborts on inputs {inputs!r}")
        finals.append(final.state)
    if not finals:
        raise RuntimeError(
            f"deadlock on inputs {inputs!r}: no execution terminates, "
            f"all threads end blocked on atomic guards"
        )
    return finals


def all_outputs(program: Command, inputs: dict, max_steps: int = 200_000) -> frozenset:
    """The set of output traces over *all* interleavings (exhaustive)."""
    return frozenset(state.output for state in _final_states(program, inputs, max_steps))


def check_exhaustive(
    program: Command,
    input_variants: Sequence[dict],
    max_steps: int = 200_000,
    observe: Optional[ObserveFn] = None,
    max_states: Optional[int] = None,
) -> NIReport:
    """Exhaustive Def. 2.1 check over input variants with equal low parts.

    ``input_variants`` are full input stores agreeing on low inputs and
    differing in high inputs.  Secure iff the union of all reachable
    outputs across all variants is a single trace.  ``observe`` projects
    traces to the attacker-visible part (default: everything).
    ``max_states`` bounds each variant's exploration
    (:class:`~repro.lang.scheduler.StateBudgetExceeded` beyond it).
    """
    observe = observe or (lambda trace: trace)
    seen: dict[Observation, dict] = {}
    per_variant: set = set()
    checked = 0
    for inputs in input_variants:
        finals = _final_states(program, inputs, max_steps, max_states)
        checked += len(finals)
        observed = frozenset(observe(state.output) for state in finals)
        per_variant.add(observed)
        for visible in observed:
            seen.setdefault(visible, inputs)
    if len(seen) <= 1:
        return NIReport(True, None, checked, "exhaustive")
    traces = sorted(seen.items(), key=lambda item: repr(item[0]))
    (out1, in1), (out2, in2) = traces[0], traces[1]
    witness = Witness(in1, in2, out1, out2, "exhaustive enumeration")
    return NIReport(False, witness, checked, "exhaustive", math.log2(len(per_variant)))


def check_sampled(
    program: Command,
    input_variants: Sequence[dict],
    schedules: int = 25,
    seed: int = 0,
    max_steps: int = 1_000_000,
    observe: Optional[ObserveFn] = None,
) -> NIReport:
    """Randomized Def. 2.1 check: many schedulers per input variant."""
    observe = observe or (lambda trace: trace)
    reference: Optional[Observation] = None
    reference_inputs: Optional[dict] = None
    checked = 0
    for inputs in input_variants:
        schedulers: list = [RoundRobinScheduler()]
        schedulers.extend(RandomScheduler(seed + index) for index in range(schedules))
        for scheduler in schedulers:
            result = run(program, dict(inputs), scheduler=scheduler, max_steps=max_steps)
            checked += 1
            visible = observe(result.output)
            if reference is None:
                reference = visible
                reference_inputs = inputs
            elif visible != reference:
                witness = Witness(
                    reference_inputs or {},
                    inputs,
                    reference,
                    visible,
                    f"sampled schedules (seed base {seed})",
                )
                return NIReport(False, witness, checked, "sampled")
    return NIReport(True, None, checked, "sampled")


def check_noninterference(
    program: Command,
    instances: Iterable[Sequence[dict]],
    observe: Optional[ObserveFn] = None,
    max_states: Optional[int] = _BUDGET,
    schedules: int = 25,
    seed: int = 0,
) -> NIReport:
    """Def. 2.1 over several instances (each a list of input variants
    with equal low inputs); secure iff every instance is secure.

    Exhaustive when every enumeration completes within ``max_states``
    (default :data:`STATE_BUDGET`; ``None`` is unbounded); a truncated
    one could miss outputs asymmetrically and fabricate a witness, so
    beyond it the whole check is rerun on ``schedules`` seeded random
    schedules per variant.  The report's ``mode`` names the deciding
    check."""
    groups = [tuple(variants) for variants in instances]
    budget = STATE_BUDGET if max_states is _BUDGET else max_states
    try:
        return _first_refutation(
            (check_exhaustive(program, v, observe=observe, max_states=budget) for v in groups),
            "exhaustive",
        )
    except StateBudgetExceeded:
        return _first_refutation(
            (check_sampled(program, v, schedules, seed, observe=observe) for v in groups),
            "sampled",
        )


def _first_refutation(reports: Iterable[NIReport], mode: str) -> NIReport:
    """The first insecure report, counting the executions of every group
    checked so far; a secure report if there is none."""
    total = 0
    for report in reports:
        total += report.executions_checked
        if not report.secure:
            return replace(report, executions_checked=total)
    return NIReport(True, None, total, mode)
