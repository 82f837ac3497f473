"""The dynamic-thread pool: ``fork``/``join`` runtime (Sec. 5).

The paper formalizes structured parallel composition ``c1 || c2``;
HyperViper's implementation language instead creates threads dynamically
with ``fork`` and ``join`` (see the App. E example, which forks one worker
per input segment in a loop).  This module gives that language an
operational semantics as a *thread pool driven by the structured step
relation*: every command except ``fork``/``join`` steps by
:mod:`repro.lang.semantics`, so the two languages share one definition of
Fig. 9.

* every thread has a **private store** (the forked procedure's parameters
  and locals) — all communication goes through the shared heap, as in the
  paper's data-race-free model;
* the heap, the public output trace, and the allocation counter are
  **shared** by all threads; a thread steps in the state made of its own
  store and those shared components;
* ``fork p(args)`` spawns a thread whose store binds ``p``'s parameters to
  the evaluated arguments and stores a fresh token in the target variable;
* ``join p(t)`` is enabled only when the thread with token ``t`` has
  terminated (it then reaps the thread);
* these two redexes are found at the head of a thread's ``Seq``/``Par``
  spine and performed here; ``fork``/``join`` inside an atomic block is
  rejected when the pool is built (a fork is not a state transformation,
  so it has no place in an indivisible action).

The pool exposes the same scheduler interface as the structured
semantics, so the internal-timing-channel experiments can be replayed on
dynamically created threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional

from .ast import Atomic, Command, Fork, Join, Par, Seq, Skip, walk
from .interpreter import AbortError, DeadlockError
from .procedures import ProcedureError, ThreadedProgram
from .semantics import ABORT, State, _step, evaluate

MAIN_TID = 0


class ThreadError(Exception):
    """Raised on ill-formed thread operations (bad token, fork in atomic)."""


@dataclass(frozen=True)
class Thread:
    """One thread of the pool: token, remaining command, private store."""

    tid: int
    command: Command
    store: tuple  # sorted (name, value) pairs

    def is_finished(self) -> bool:
        return isinstance(self.command, Skip)

    def store_dict(self) -> dict:
        return dict(self.store)


@dataclass(frozen=True)
class TConfig:
    """A configuration of the thread pool.

    ``threads`` always contains the main thread (tid 0) plus all live
    forked threads, in tid order.  ``heap``/``output``/``next_location``
    are the shared components; ``next_tid`` numbers forked threads.
    """

    threads: tuple  # tuple[Thread, ...]
    heap: tuple
    output: tuple = ()
    next_location: int = 1
    next_tid: int = 1

    @classmethod
    def make(
        cls,
        program: ThreadedProgram,
        inputs: Optional[dict] = None,
        heap: Optional[dict] = None,
    ) -> "TConfig":
        """The initial pool; raises :class:`ThreadError` if any atomic
        block of ``program`` contains a ``fork`` or ``join``."""
        for body in (program.main, *(proc.body for proc in program.procedures)):
            for node in walk(body):
                if isinstance(node, Atomic) and any(isinstance(inner, (Fork, Join)) for inner in walk(node.body)):
                    raise ThreadError("fork/join inside an atomic block is not allowed")
        inputs = inputs or {}
        heap = heap or {}
        main = Thread(MAIN_TID, program.main, tuple(sorted(inputs.items())))
        return cls(
            threads=(main,),
            heap=tuple(sorted(heap.items())),
            next_location=max(heap, default=0) + 1,
        )

    def heap_dict(self) -> dict:
        return dict(self.heap)

    def thread(self, tid: int) -> Optional[Thread]:
        for thread in self.threads:
            if thread.tid == tid:
                return thread
        return None

    def finished_tids(self) -> frozenset[int]:
        return frozenset(thread.tid for thread in self.threads if thread.is_finished())

    def is_final(self) -> bool:
        return all(thread.is_finished() for thread in self.threads)


@dataclass(frozen=True)
class TStep:
    """One successor of a thread-pool configuration.

    ``choice`` is the moving thread's tid, followed by the ``L``/``R``
    path to its redex when that thread contains structured parallelism
    (``"0"``, ``"0L"``, ...); ``result`` is a :class:`TConfig` or the
    :data:`~repro.lang.semantics.ABORT` marker.
    """

    choice: str
    result: Any  # TConfig | "abort"

    def aborted(self) -> bool:
        return self.result == ABORT


def tstep(config: TConfig, program: ThreadedProgram) -> list[TStep]:
    """All one-step successors of ``config`` (empty iff final or deadlocked).

    Each live thread steps by the structured relation on its own store
    and the shared heap, output and allocation counter; its ``fork`` and
    ``join`` redexes, which have no step there, are performed here."""
    steps: list[TStep] = []
    for thread in config.threads:
        if thread.is_finished():
            continue
        state = State(thread.store, config.heap, config.output, config.next_location)
        moves = [
            TStep(move.choice, ABORT if move.aborted() else _moved(config, thread, move.result.command, move.result.state))
            for move in _step(thread.command, state, str(thread.tid))
        ]
        forks_joins = list(_fork_join_steps(config, thread, state, program))
        if forks_joins:
            # Left-to-right redex order, the order the structured relation uses.
            moves = sorted(moves + forks_joins, key=lambda move: move.choice)
        steps.extend(moves)
    return steps


def _moved(config: TConfig, thread: Thread, command: Command, state: State) -> TConfig:
    """``config`` after ``thread`` moved to ``command`` in ``state``."""
    threads = tuple(Thread(t.tid, command, state.store) if t is thread else t for t in config.threads)
    return replace(config, threads=threads, heap=state.heap, output=state.output, next_location=state.next_location)


def _fork_join_steps(config: TConfig, thread: Thread, state: State, program: ThreadedProgram) -> Iterator[TStep]:
    """The steps of ``thread``'s ``fork``/``join`` redexes: a fork spawns
    thread ``next_tid``; a join reaps a finished thread and has no step
    while its target is live."""
    store = thread.store_dict()
    for choice, redex, rest in _fork_join_redexes(thread.command, str(thread.tid)):
        if isinstance(redex, Fork):
            proc = program.table().get(redex.procedure)
            if proc is None:
                raise ProcedureError(f"fork of undeclared procedure {redex.procedure!r}")
            arg_values = tuple(evaluate(arg, store) for arg in redex.args)
            if len(arg_values) != len(proc.params):
                raise ProcedureError(
                    f"fork {redex.procedure}: expected {len(proc.params)} arguments, got {len(arg_values)}"
                )
            tid = config.next_tid
            child = Thread(tid, proc.body, tuple(sorted(zip(proc.params, arg_values))))
            moved = _moved(config, thread, rest, state.with_store({**store, redex.target: tid}))
            yield TStep(choice, replace(moved, threads=moved.threads + (child,), next_tid=tid + 1))
            continue
        token = evaluate(redex.token, store)
        if isinstance(token, bool) or not isinstance(token, int):
            raise ThreadError(f"join {redex.procedure}: token value {token!r} is not a thread id")
        if token in config.finished_tids():  # otherwise blocked until it terminates
            moved = _moved(config, thread, rest, state)
            yield TStep(choice, replace(moved, threads=tuple(t for t in moved.threads if t.tid != token)))


def _fork_join_redexes(cmd: Command, path: str) -> Iterator[tuple[str, Command, Command]]:
    """``(choice, redex, rest)`` for each ``fork``/``join`` at the head of
    the ``Seq``/``Par`` spine of ``cmd``; ``rest`` is ``cmd`` with that
    redex replaced by ``skip``."""
    if isinstance(cmd, (Fork, Join)):
        yield path, cmd, Skip()
    elif isinstance(cmd, Seq):
        for choice, redex, rest in _fork_join_redexes(cmd.first, path):
            yield choice, redex, Seq(rest, cmd.second)
    elif isinstance(cmd, Par):
        for choice, redex, rest in _fork_join_redexes(cmd.left, path + "L"):
            yield choice, redex, Par(rest, cmd.right)
        for choice, redex, rest in _fork_join_redexes(cmd.right, path + "R"):
            yield choice, redex, Par(cmd.left, rest)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreadedRunResult:
    """Outcome of a terminated threaded execution."""

    config: TConfig
    steps_taken: int
    schedule: tuple[str, ...]

    @property
    def main_store(self) -> dict:
        thread = self.config.thread(MAIN_TID)
        assert thread is not None
        return thread.store_dict()

    @property
    def heap(self) -> dict:
        return self.config.heap_dict()

    @property
    def output(self) -> tuple:
        return self.config.output


def run_threads(
    program: ThreadedProgram,
    inputs: Optional[dict] = None,
    heap: Optional[dict] = None,
    scheduler=None,
    max_steps: int = 1_000_000,
) -> ThreadedRunResult:
    """Run a threaded program to completion under a scheduler.

    The scheduler has the same interface as for the structured semantics:
    it receives the configuration and the enabled steps and returns an
    index.  ``None`` picks the first enabled step (deterministic).  Raises
    the errors :func:`repro.lang.interpreter.run` raises:
    :class:`AbortError` on a memory fault and :class:`DeadlockError` when
    no thread can move.
    """
    config = TConfig.make(program, inputs, heap)
    schedule: list[str] = []
    for count in range(max_steps):
        if config.is_final():
            return ThreadedRunResult(config, count, tuple(schedule))
        steps = tstep(config, program)
        if not steps:
            raise DeadlockError(
                f"deadlock after {count} steps: no thread can move "
                f"(live threads: {[t.tid for t in config.threads if not t.is_finished()]})"
            )
        index = scheduler(config, steps) if scheduler is not None else 0
        chosen = steps[index]
        if chosen.aborted():
            raise AbortError(f"program aborted after {count} steps (thread choice {chosen.choice!r})")
        schedule.append(chosen.choice)
        config = chosen.result
    raise RuntimeError(f"threaded program did not terminate within {max_steps} steps")


def enumerate_threaded_executions(
    program: ThreadedProgram,
    inputs: Optional[dict] = None,
    heap: Optional[dict] = None,
    max_steps: int = 10_000,
    max_executions: Optional[int] = None,
) -> Iterator[Any]:
    """Depth-first enumeration of every outcome of the pool.

    Yields each distinct final :class:`TConfig` once, the string
    ``"abort"`` once if some branch aborts, and the string ``"deadlock"``
    once if some non-final configuration is stuck.  A visited set expands
    every reachable configuration once, so the walk is linear in the
    state graph rather than in its interleavings; ``max_steps`` bounds
    the search depth and ``max_executions`` the number of outcomes.
    """
    initial = TConfig.make(program, inputs, heap)
    seen = {initial}
    stack: list[tuple[TConfig, int]] = [(initial, 0)]
    yielded: set = set()
    while stack:
        config, depth = stack.pop()
        if depth > max_steps:
            raise RuntimeError("execution exceeded max_steps (possible divergence)")
        if config.is_final():
            outcomes = [config]
        else:
            steps = tstep(config, program)
            outcomes = [] if steps else ["deadlock"]
            for successor in reversed(steps):
                if successor.aborted():
                    outcomes.append(ABORT)
                elif successor.result not in seen:
                    seen.add(successor.result)
                    stack.append((successor.result, depth + 1))
        for outcome in outcomes:
            if outcome not in yielded:
                yielded.add(outcome)
                yield outcome
                if max_executions is not None and len(yielded) >= max_executions:
                    return
