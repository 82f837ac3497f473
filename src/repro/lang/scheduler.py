"""Schedulers over the small-step semantics.

A scheduler is a policy for choosing among the successor steps returned by
:func:`repro.lang.semantics.step`.  Internal timing channels (Sec. 1) arise
precisely because this choice can correlate with secret-dependent timing;
the schedulers here let the test and benchmark harnesses explore that
space:

* :class:`RoundRobinScheduler` — the deterministic scheduler from the
  Fig. 1 discussion: threads take turns (modelled as alternating the
  chosen top-level branch of ``||`` when both can move);
* :class:`RandomScheduler` — seeded uniform choice, for probabilistic
  exploration;
* :class:`FixedScheduler` — replays a recorded choice sequence;
* :func:`enumerate_executions` — exhaustive exploration of the reachable
  state space with commutativity-based partial-order reduction, used by
  the exhaustive non-interference checks and the fuzz oracle;
* :func:`enumerate_paths` — the naive one-path-per-interleaving
  enumerator, kept as the reference the explorer is tested against.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional, Sequence

from .ast import (
    Assign,
    Command,
    If,
    Par,
    Seq,
    Share,
    Skip,
    Unshare,
    While,
    command_fv,
    command_mod,
    expr_fv,
)
from .semantics import ABORT, Config, State, Step, step

Scheduler = Callable[[Config, Sequence[Step]], int]


class RoundRobinScheduler:
    """Deterministic round-robin over the top-level thread labels.

    At every choice point the scheduler prefers the thread whose label
    comes next in a rotating order over the labels currently able to move.
    With two threads this alternates L, R, L, R, ... whenever both are
    enabled, matching the deterministic scheduler under which the Fig. 1
    program leaks whether ``h > 100``.
    """

    def __init__(self) -> None:
        self._turn = 0

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        if len(steps) == 1:
            return 0
        labels = sorted({step_.choice for step_ in steps})
        wanted = labels[self._turn % len(labels)]
        self._turn += 1
        for index, step_ in enumerate(steps):
            if step_.choice == wanted:
                return index
        return 0


class RandomScheduler:
    """Uniformly random scheduling with a private seeded RNG."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        return self._rng.randrange(len(steps))


class FixedScheduler:
    """Replay a fixed sequence of choice indices (pad with 0)."""

    def __init__(self, choices: Sequence[int]) -> None:
        self._choices = list(choices)
        self._position = 0

    def __call__(self, config: Config, steps: Sequence[Step]) -> int:
        if self._position < len(self._choices):
            index = self._choices[self._position] % len(steps)
        else:
            index = 0
        self._position += 1
        return index


def left_first(config: Config, steps: Sequence[Step]) -> int:
    """Always pick the first (leftmost) enabled step."""
    return 0


class StateBudgetExceeded(RuntimeError):
    """The explorer reached more distinct configurations than its
    ``max_states`` budget allows."""


_DIVERGES = "execution exceeded max_steps"


def enumerate_executions(
    initial: Config,
    max_steps: int = 10_000,
    max_executions: Optional[int] = None,
    max_states: Optional[int] = None,
) -> Iterator[Config | str]:
    """Every distinct reachable final configuration, each yielded once.

    A depth-first search over configurations with an exact visited set.
    Yields each reachable final :class:`Config` once, and the string
    ``"abort"`` once if an abort is reachable; stops after
    ``max_executions`` items.  Deadlocked configurations yield nothing.

    Partial-order reduction: when some thread's next step is thread-local
    and invisible (see :func:`_local_successor`), that step alone is
    explored.  It commutes with every step the other threads can still
    take, so the reachable final states and the reachability of abort are
    those of the full interleaving graph (:func:`enumerate_paths`).

    The visited set is hash-consed (see :class:`_Interner`): equal
    residual commands, store entries, stores and heaps share one
    instance, so a visited configuration costs little more than its own
    one or two objects.  Keys stay full configurations, compared exactly.

    Raises RuntimeError when an execution re-enters a configuration on its
    own path or runs deeper than ``max_steps`` (divergence is never
    silently dropped), and :class:`StateBudgetExceeded` when more than
    ``max_states`` distinct configurations are reached.
    """
    if initial.is_final():
        yield initial
        return
    fvs: dict = {}  # command -> command_fv, for this enumeration only
    mods: dict = {}  # command -> command_mod, likewise
    canonical = _Interner()
    initial = canonical.config(initial)
    visited = {initial: True}  # configuration -> on the current DFS path
    stack = [(initial, _successors(initial, fvs, mods))]
    yielded = 0
    aborted = False
    while stack:
        config, pending = stack[-1]
        if not pending:
            stack.pop()
            visited[config] = False
            continue
        successor = pending.pop()
        if successor is ABORT:
            if aborted:
                continue
            aborted = True
        else:
            on_path = visited.get(successor)
            if on_path is not None:
                if on_path:
                    raise RuntimeError(
                        f"{_DIVERGES}: it re-enters a configuration on its own path (divergence)"
                    )
                continue
            if max_states is not None and len(visited) >= max_states:
                raise StateBudgetExceeded(f"more than {max_states} reachable states")
            successor = canonical.config(successor)
            final = successor.is_final()
            visited[successor] = not final
            if not final:
                if len(stack) > max_steps:
                    raise RuntimeError(f"{_DIVERGES} (possible divergence)")
                stack.append((successor, _successors(successor, fvs, mods)))
                continue
        yield successor
        yielded += 1
        if max_executions is not None and yielded >= max_executions:
            return


class _Interner:
    """One shared instance per distinct residual command, store entry,
    store and heap, for one enumeration.

    Successor configurations are built afresh by :func:`step`; without
    sharing, each visited configuration would keep its own copy of the
    residual command's spine, of every ``(name, value)`` pair and of the
    heap."""

    __slots__ = ("commands", "pairs", "stores", "heaps")

    def __init__(self) -> None:
        self.commands: dict = {}
        self.pairs: dict = {}
        self.stores: dict = {}
        self.heaps: dict = {}

    def config(self, config: Config) -> Config:
        """An equal configuration built from the shared instances."""
        state = config.state
        store = self.stores.get(state.store)
        if store is None:
            pairs = self.pairs
            store = tuple([pairs.setdefault(pair, pair) for pair in state.store])
            self.stores[store] = store
        command = self.commands.setdefault(config.command, config.command)
        heap = self.heaps.setdefault(state.heap, state.heap)
        if store is not state.store or heap is not state.heap:
            state = State(store, heap, state.output, state.next_location)
        elif command is config.command:
            return config
        return Config(command, state)


def _successors(config: Config, fvs: dict, mods: dict) -> list:
    """Successor configurations (or ABORT) in reverse scheduling order,
    reduced to a singleton when a thread-local invisible step is enabled."""
    local = _local_successor(config.command, config.state, (), fvs, mods)
    if local is not None:
        return [local]
    return [successor.result for successor in reversed(step(config))]


def _local_successor(
    cmd: Command, state: State, siblings: tuple, fvs: dict, mods: dict
) -> Optional[Config]:
    """The result of the first thread-local invisible step of ``cmd``.

    ``siblings`` are the residual commands of the threads running in
    parallel with ``cmd``.  A step is thread-local and invisible when it
    touches neither the heap nor the output and commutes with every step
    a sibling can still take: ``skip;`` elimination, loop unfolding,
    ``share``/``unshare``, the join of two finished threads, and an
    assignment or conditional whose reads no sibling may write and whose
    write no sibling mentions.  Two reads of the same variable commute,
    so a loop bound shared read-only by every thread keeps each loop test
    local.
    """
    if isinstance(cmd, Seq) and not isinstance(cmd.first, Skip):
        sub = _local_successor(cmd.first, state, siblings, fvs, mods)
        return None if sub is None else Config(Seq(sub.command, cmd.second), sub.state)
    if isinstance(cmd, Par) and not (isinstance(cmd.left, Skip) and isinstance(cmd.right, Skip)):
        if not isinstance(cmd.left, Skip):
            sub = _local_successor(cmd.left, state, siblings + (cmd.right,), fvs, mods)
            if sub is not None:
                return Config(Par(sub.command, cmd.right), sub.state)
        if not isinstance(cmd.right, Skip):
            sub = _local_successor(cmd.right, state, siblings + (cmd.left,), fvs, mods)
            if sub is not None:
                return Config(Par(cmd.left, sub.command), sub.state)
        return None
    if isinstance(cmd, Assign):
        reads, write = expr_fv(cmd.expr), cmd.target
    elif isinstance(cmd, If):
        reads, write = expr_fv(cmd.condition), None
    elif isinstance(cmd, (Seq, Par, While, Share, Unshare)):
        reads, write = frozenset(), None
    else:
        return None
    for sibling in siblings:
        if reads and not reads.isdisjoint(_summary(sibling, mods, command_mod)):
            return None
        if write is not None and write in _summary(sibling, fvs, command_fv):
            return None
    (only,) = step(Config(cmd, state))
    return only.result


def _summary(cmd: Command, cache: dict, base: Callable[[Command], frozenset]) -> frozenset:
    """``base(cmd)`` (``command_fv`` or ``command_mod``) memoized per
    node in ``cache``, unioned over ``Seq``/``Par`` children (residual
    commands share their subtrees, so each new configuration adds only
    a spine)."""
    result = cache.get(cmd)
    if result is None:
        if isinstance(cmd, Seq):
            result = _summary(cmd.first, cache, base) | _summary(cmd.second, cache, base)
        elif isinstance(cmd, Par):
            result = _summary(cmd.left, cache, base) | _summary(cmd.right, cache, base)
        else:
            result = base(cmd)
        cache[cmd] = result
    return result


def enumerate_paths(
    initial: Config,
    max_steps: int = 10_000,
    max_executions: Optional[int] = None,
) -> Iterator[Config | str]:
    """Reference oracle: depth-first enumeration of every execution path.

    Yields the final :class:`Config` (or ``"abort"``) of each interleaving
    separately — the same final state once per path that reaches it —
    with no state deduplication or reduction.  Raises RuntimeError if an
    execution exceeds ``max_steps``.  Tests compare
    :func:`enumerate_executions` against it.
    """
    yielded = 0
    stack: list[tuple[Config, int]] = [(initial, 0)]
    while stack:
        config, depth = stack.pop()
        if depth > max_steps:
            raise RuntimeError(f"{_DIVERGES} (possible divergence)")
        if config.is_final():
            yield config
            yielded += 1
            if max_executions is not None and yielded >= max_executions:
                return
            continue
        successors = step(config)
        for successor in reversed(successors):
            if successor.aborted():
                yield ABORT
                yielded += 1
                if max_executions is not None and yielded >= max_executions:
                    return
            else:
                stack.append((successor.result, depth + 1))
