"""Small-step operational semantics (Fig. 9 / App. A.1).

Configurations are ``⟨c, (s, h)⟩`` or ``abort``.  The semantics is exactly
the paper's: heap reads/writes abort on unallocated locations, loops
unfold to conditionals, ``atomic c`` runs ``c`` to completion in a single
indivisible step, and ``c1 || c2`` steps nondeterministically in either
component.

:func:`step` returns *all* successor configurations, each tagged with the
scheduling choice that produced it, so schedulers (round-robin, random,
exhaustive) can be layered on top without touching the semantics.
``fork``/``join`` (the dynamic threads of Sec. 5) have no step here: the
thread pool of :mod:`repro.lang.threads` steps each thread with this
relation and performs those two redexes itself.

Expression evaluation is deterministic and total (Sec. 3.1): reads of
uninitialized variables yield the default value 0, division by zero yields
0, so expressions never fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

from .ast import (
    DEFAULT_CHANNEL,
    Alloc,
    Assign,
    Atomic,
    Call,
    Command,
    Expr,
    Fork,
    If,
    Join,
    Lit,
    Load,
    Par,
    Print,
    Seq,
    Share,
    Skip,
    Store,
    UnOp,
    Unshare,
    Var,
    While,
    BinOp,
)
from .values import PURE_FUNCTIONS

Store_ = dict  # program store: name -> value
Heap_ = dict  # program heap: location -> value

DEFAULT_VALUE = 0


class EvaluationError(Exception):
    """Raised on genuinely ill-formed expressions (unknown op/function)."""


def evaluate(expr: Expr, store: Store_, heap: Heap_ | None = None) -> Any:
    """Evaluate ``expr`` in ``store``; total and deterministic.

    ``heap`` is only supplied when evaluating the blocking guard of an
    ``atomic ... when (e)`` block (App. D), where ``deref(x)`` reads the
    heap cell addressed by ``x``; everywhere else expressions are
    heap-free per the language of Fig. 6.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return store.get(expr.name, DEFAULT_VALUE)
    if isinstance(expr, UnOp):
        value = evaluate(expr.operand, store, heap)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return not _truthy(value)
        raise EvaluationError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        return _eval_binop(expr, store, heap)
    if isinstance(expr, Call):
        if expr.function == "deref":
            if heap is None:
                raise EvaluationError("deref is only available in atomic 'when' guards")
            address = evaluate(expr.args[0], store, heap)
            return heap.get(address, DEFAULT_VALUE)
        function = PURE_FUNCTIONS.get(expr.function)
        if function is None:
            raise EvaluationError(f"unknown pure function {expr.function!r}")
        return function(*(evaluate(arg, store, heap) for arg in expr.args))
    raise EvaluationError(f"not an expression: {expr!r}")


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    raise EvaluationError(f"non-boolean condition value: {value!r}")


def _eval_binop(expr: BinOp, store: Store_, heap: Heap_ | None = None) -> Any:
    op = expr.op
    if op == "&&":
        return _truthy(evaluate(expr.left, store, heap)) and _truthy(evaluate(expr.right, store, heap))
    if op == "||":
        return _truthy(evaluate(expr.left, store, heap)) or _truthy(evaluate(expr.right, store, heap))
    left = evaluate(expr.left, store, heap)
    right = evaluate(expr.right, store, heap)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        # Total semantics: division by zero yields the default value.
        return left // right if right != 0 else DEFAULT_VALUE
    if op == "%":
        return left % right if right != 0 else DEFAULT_VALUE
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise EvaluationError(f"unknown binary operator {op!r}")


@dataclass(frozen=True, slots=True)
class State:
    """A machine state: store, heap, output trace, allocation counter.

    ``output`` is the trace of values printed so far — the program's public
    output in the sense of Def. 2.1.  ``next_location`` implements
    deterministic fresh allocation (the semantics only requires
    ``l ∉ dom(h)``; we always pick the smallest fresh natural, which keeps
    executions reproducible without losing any behaviour relevant to
    non-interference of values).
    """

    store: tuple
    heap: tuple
    output: tuple = ()
    next_location: int = 1

    @classmethod
    def make(
        cls,
        store: Optional[dict] = None,
        heap: Optional[dict] = None,
        output: tuple = (),
    ) -> "State":
        store = store or {}
        heap = heap or {}
        next_location = max(heap, default=0) + 1
        return cls(
            store=tuple(sorted(store.items())),
            heap=tuple(sorted(heap.items())),
            output=tuple(output),
            next_location=next_location,
        )

    def store_dict(self) -> dict:
        return dict(self.store)

    def heap_dict(self) -> dict:
        return dict(self.heap)

    def with_store(self, store: dict) -> "State":
        return replace(self, store=tuple(sorted(store.items())))

    def with_heap(self, heap: dict) -> "State":
        return replace(self, heap=tuple(sorted(heap.items())))

    def read_var(self, name: str) -> Any:
        return self.store_dict().get(name, DEFAULT_VALUE)


@dataclass(frozen=True, slots=True)
class Config:
    """A non-aborted configuration ``⟨c, (s, h)⟩``.

    ``Config`` and :class:`State` use slots: the state-space explorer
    keeps one of each per visited configuration."""

    command: Command
    state: State

    def is_final(self) -> bool:
        return isinstance(self.command, Skip)


ABORT = "abort"


@dataclass(frozen=True)
class Step:
    """One successor of a configuration.

    ``choice`` identifies the scheduling decision: a string of 'L'/'R'
    characters descending through ``Par`` nodes to the thread that moved
    (empty for deterministic steps).  ``result`` is a :class:`Config` or
    the :data:`ABORT` marker.
    """

    choice: str
    result: Any  # Config | "abort"

    def aborted(self) -> bool:
        return self.result == ABORT


def step(config: Config) -> list[Step]:
    """All one-step successors of ``config`` (empty iff final)."""
    return list(_step(config.command, config.state, ""))


def _step(cmd: Command, state: State, choice: str) -> Iterator[Step]:
    if isinstance(cmd, Skip):
        return
    if isinstance(cmd, Assign):
        store = state.store_dict()
        store[cmd.target] = evaluate(cmd.expr, store)
        yield Step(choice, Config(Skip(), state.with_store(store)))
        return
    if isinstance(cmd, Load):
        store = state.store_dict()
        heap = state.heap_dict()
        address = evaluate(cmd.address, store)
        if address not in heap:
            yield Step(choice, ABORT)
            return
        store[cmd.target] = heap[address]
        yield Step(choice, Config(Skip(), state.with_store(store)))
        return
    if isinstance(cmd, Store):
        store = state.store_dict()
        heap = state.heap_dict()
        address = evaluate(cmd.address, store)
        if address not in heap:
            yield Step(choice, ABORT)
            return
        heap[address] = evaluate(cmd.expr, store)
        yield Step(choice, Config(Skip(), state.with_heap(heap)))
        return
    if isinstance(cmd, Alloc):
        store = state.store_dict()
        heap = state.heap_dict()
        location = state.next_location
        heap[location] = evaluate(cmd.expr, store)
        store[cmd.target] = location
        new_state = State(
            store=tuple(sorted(store.items())),
            heap=tuple(sorted(heap.items())),
            output=state.output,
            next_location=location + 1,
        )
        yield Step(choice, Config(Skip(), new_state))
        return
    if isinstance(cmd, Seq):
        if isinstance(cmd.first, Skip):
            yield Step(choice, Config(cmd.second, state))
            return
        for sub in _step(cmd.first, state, choice):
            if sub.aborted():
                yield sub
            else:
                yield Step(sub.choice, Config(Seq(sub.result.command, cmd.second), sub.result.state))
        return
    if isinstance(cmd, If):
        branch = cmd.then_branch if _truthy(evaluate(cmd.condition, state.store_dict())) else cmd.else_branch
        yield Step(choice, Config(branch, state))
        return
    if isinstance(cmd, While):
        unfolded = If(cmd.condition, Seq(cmd.body, cmd), Skip())
        yield Step(choice, Config(unfolded, state))
        return
    if isinstance(cmd, Par):
        left_done = isinstance(cmd.left, Skip)
        right_done = isinstance(cmd.right, Skip)
        if left_done and right_done:
            yield Step(choice, Config(Skip(), state))
            return
        if not left_done:
            for sub in _step(cmd.left, state, choice + "L"):
                if sub.aborted():
                    yield sub
                else:
                    yield Step(sub.choice, Config(Par(sub.result.command, cmd.right), sub.result.state))
        if not right_done:
            for sub in _step(cmd.right, state, choice + "R"):
                if sub.aborted():
                    yield sub
                else:
                    yield Step(sub.choice, Config(Par(cmd.left, sub.result.command), sub.result.state))
        return
    if isinstance(cmd, Atomic):
        if cmd.when is not None:
            guard = evaluate(cmd.when, state.store_dict(), state.heap_dict())
            if not _truthy(guard):
                return  # blocked: this thread cannot step (App. D semantics)
        yield from _run_atomic(cmd, state, choice)
        return
    if isinstance(cmd, (Share, Unshare)):
        yield Step(choice, Config(Skip(), state))
        return
    if isinstance(cmd, Print):
        value = evaluate(cmd.expr, state.store_dict())
        entry = value if cmd.channel == DEFAULT_CHANNEL else (cmd.channel, value)
        yield Step(choice, Config(Skip(), replace(state, output=state.output + (entry,))))
        return
    if isinstance(cmd, (Fork, Join)):
        return  # no step here: the fork/join pool (threads.py) performs these redexes
    raise TypeError(f"not a command: {cmd!r}")


_ATOMIC_FUEL = 1_000_000


def _run_atomic(cmd: Atomic, state: State, choice: str) -> tuple[Step, ...]:
    """Run an atomic body to completion in one indivisible step (rule Atom).

    One successor per distinct terminal of the body's ``→*`` runs: its
    final states, plus ``abort`` when some run aborts.  A sequential body
    has one run, followed step by step; from the first step with more
    than one successor (a ``||`` inside the body) :func:`_search_atomic`
    takes over.  A body that gets stuck (a nested blocked guard) on every
    run has no ``→*`` run to ``skip``, so the block has no step, like a
    false ``when`` guard (App. D).
    """
    config = Config(cmd.body, state)
    for _ in range(_ATOMIC_FUEL):
        if config.is_final():
            return (Step(choice, Config(Skip(), config.state)),)
        successors = list(_step(config.command, config.state, ""))
        if not successors:
            return ()
        if len(successors) > 1:
            return _search_atomic(successors, choice)
        first = successors[0]
        if first.aborted():
            return (Step(choice, ABORT),)
        config = first.result
    raise RuntimeError("atomic block exceeded fuel (possible divergence)")


def _search_atomic(successors: list[Step], choice: str) -> tuple[Step, ...]:
    """Every distinct terminal of an atomic body reachable from
    ``successors``: a visited-set search, left branches first."""
    finals: dict[State, None] = {}  # insertion-ordered set
    aborted = False
    seen: set[Config] = set()
    pending = successors[::-1]
    while pending:
        successor = pending.pop()
        if successor.aborted():
            aborted = True
            continue
        config = successor.result
        if config in seen:
            continue
        if len(seen) >= _ATOMIC_FUEL:
            raise RuntimeError("atomic block exceeded fuel (possible divergence)")
        seen.add(config)
        if config.is_final():
            finals[config.state] = None
        else:
            pending.extend(list(_step(config.command, config.state, ""))[::-1])
    steps = tuple(Step(choice, Config(Skip(), final)) for final in finals)
    return steps + ((Step(choice, ABORT),) if aborted else ())
