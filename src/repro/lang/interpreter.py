"""Execution driver: run a program under a scheduler to completion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .ast import Command
from .scheduler import Scheduler, left_first
from .semantics import ABORT, Config, State, step


class AbortError(Exception):
    """The program reached the ``abort`` configuration (memory fault)."""


class DeadlockError(RuntimeError):
    """No thread can move but the program is not final (every thread
    blocked on an atomic guard, or on a join that can never fire)."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of a terminated execution."""

    state: State
    steps_taken: int
    schedule: tuple[str, ...]

    @property
    def store(self) -> dict:
        return self.state.store_dict()

    @property
    def heap(self) -> dict:
        return self.state.heap_dict()

    @property
    def output(self) -> tuple:
        return self.state.output


def run(
    program: Command,
    inputs: Optional[dict[str, Any]] = None,
    heap: Optional[dict[int, Any]] = None,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 1_000_000,
) -> RunResult:
    """Run ``program`` from the given inputs under ``scheduler``.

    Raises :class:`AbortError` on a memory fault, :class:`DeadlockError`
    when every thread is blocked, and RuntimeError if the step budget is
    exhausted (likely divergence).
    """
    scheduler = scheduler or left_first
    config = Config(program, State.make(inputs, heap))
    schedule: list[str] = []
    for count in range(max_steps):
        if config.is_final():
            return RunResult(config.state, count, tuple(schedule))
        successors = step(config)
        if not successors:
            raise DeadlockError(
                f"deadlock after {count} steps: all threads blocked on atomic guards"
            )
        index = scheduler(config, successors)
        chosen = successors[index]
        if chosen.result == ABORT:
            raise AbortError(f"program aborted after {count} steps (choice {chosen.choice!r})")
        schedule.append(chosen.choice)
        config = chosen.result
    raise RuntimeError(f"program did not terminate within {max_steps} steps")
