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

The verifier's frontend uses these as the retroactive discharge mechanism
for obligations (Sec. 2.5's "check when unsharing"): exhaustively within
a state budget, sampled beyond it.  The test suite uses them as the
executable counterpart of the Isabelle soundness theorem: whatever the
verifier accepts must pass these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..lang.ast import Command
from ..lang.interpreter import run
from ..lang.scheduler import RandomScheduler, RoundRobinScheduler, enumerate_executions
from ..lang.semantics import ABORT, Config, State

Observation = tuple  # the program's public output trace

ObserveFn = Callable[[tuple], tuple]


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

    ``executions_checked`` counts, summed over the input variants checked:
    in exhaustive mode, the distinct reachable final states (store, heap
    and output) explored; in sampled mode, the scheduled runs.
    """

    secure: bool
    witness: Optional[Witness]
    executions_checked: int

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
    checked = 0
    for inputs in input_variants:
        finals = _final_states(program, inputs, max_steps, max_states)
        checked += len(finals)
        for state in finals:
            seen.setdefault(observe(state.output), inputs)
    if len(seen) <= 1:
        return NIReport(True, None, checked)
    traces = sorted(seen.items(), key=lambda item: repr(item[0]))
    (out1, in1), (out2, in2) = traces[0], traces[1]
    return NIReport(False, Witness(in1, in2, out1, out2, "exhaustive enumeration"), checked)


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
                return NIReport(False, witness, checked)
    return NIReport(True, None, checked)


def check_noninterference(
    program: Command,
    instances: Iterable[Sequence[dict]],
    exhaustive: bool = False,
    schedules: int = 25,
    seed: int = 0,
    observe: Optional[ObserveFn] = None,
    max_states: Optional[int] = None,
) -> NIReport:
    """Check several instances (each a list of input variants with equal
    low inputs); secure iff every instance is secure.  ``max_states``
    bounds each exhaustive enumeration (ignored when sampling)."""
    total = 0
    for variants in instances:
        if exhaustive:
            report = check_exhaustive(program, variants, observe=observe, max_states=max_states)
        else:
            report = check_sampled(program, variants, schedules=schedules, seed=seed, observe=observe)
        total += report.executions_checked
        if not report.secure:
            return NIReport(False, report.witness, total)
    return NIReport(True, None, total)
