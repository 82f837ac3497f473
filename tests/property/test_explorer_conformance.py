"""Explorer conformance suite: the reduced state-space explorer vs the
naive path enumerator.

:func:`repro.lang.scheduler.enumerate_executions` deduplicates
configurations and runs thread-local invisible steps as singleton ample
sets (partial-order reduction), so it visits far fewer configurations
than there are interleavings.  This suite pins it to the retained
reference :func:`repro.lang.scheduler.enumerate_paths` on three input
distributions:

* small instances of every corpus case study (integer inputs clamped
  towards zero so the reference's path space stays enumerable);
* fuzz cases ``generate_case(20240808, i)``, the fixed-seed campaign the
  benchmark runs;
* hypothesis-generated programs with shared and private variables, a
  variable every thread only reads (a shared loop bound, the case
  read-read independence reduces), nested ``||``, heap loads and
  stores, ``alloc``, ``print``, guarded ``atomic`` blocks, bounded loops
  and loads of unallocated cells.

Checked contract: the set of reachable final :class:`State` s (store,
heap, output) plus the reachability of ``abort`` is *equal* to the
reference's whenever the reference completes within its step budget; when
it does not, every final state the reference did reach is also reached by
the explorer.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import ALL_CASES
from repro.fuzz.gen import generate_case
from repro.lang.ast import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Call,
    If,
    Lit,
    Load,
    Par,
    Print,
    Store,
    Var,
    While,
    seq_all,
)
from repro.lang import scheduler
from repro.lang.scheduler import StateBudgetExceeded, enumerate_executions, enumerate_paths
from repro.lang.semantics import ABORT, Config, State, step

#: Configuration expansions the reference may make before it counts as
#: not completing (deadlocked paths yield nothing, so a bound on yielded
#: paths alone would not stop it).
STEP_BUDGET = 40_000


class _OverBudget(Exception):
    pass


def _outcomes(results) -> set:
    return {result if result is ABORT else result.state for result in results}


def _reference(config: Config) -> tuple[set, bool]:
    """The reference's outcomes, and whether it completed."""
    expansions = 0

    def counted_step(current):
        nonlocal expansions
        expansions += 1
        if expansions > STEP_BUDGET:
            raise _OverBudget
        return step(current)

    found = []
    with mock.patch.object(scheduler, "step", counted_step):
        try:
            for result in enumerate_paths(config, max_steps=5_000):
                found.append(result)
        except _OverBudget:
            return _outcomes(found), False
    return _outcomes(found), True


def _assert_conforms(config: Config) -> None:
    reference, complete = _reference(config)
    explored = list(enumerate_executions(config, max_steps=5_000))
    assert len(explored) == len(_outcomes(explored)), "a final state was yielded twice"
    if complete:
        assert _outcomes(explored) == reference
    else:
        assert reference <= _outcomes(explored)


def _clamp(value, cap: int):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return max(-cap, min(cap, value))
    if isinstance(value, tuple):
        return tuple(_clamp(item, cap) for item in value)
    return value


def _small(inputs: dict, cap: int) -> dict:
    return {name: _clamp(value, cap) for name, value in inputs.items()}


# -- corpus and fuzz instances ----------------------------------------------

#: Corpus cases whose path space the reference still completes with one
#: loop iteration per thread; every other case runs its zero-iteration
#: instance (share, setup, join, unshare, output).
ONE_ITERATION = {"Patient-Statistic", "Website-Visitor-IPs", "Figure 3 (high key)"}


@pytest.mark.parametrize(
    "case", [case for case in ALL_CASES if case.instances is not None], ids=lambda case: case.name
)
def test_corpus_small_instance(case):
    cap = 1 if case.name in ONE_ITERATION else 0
    inputs = _small(case.instances()[0][0], cap)
    _assert_conforms(Config(case.program(), State.make(inputs)))


@pytest.mark.parametrize("index", range(12))
def test_fuzz_case(index):
    case = generate_case(20240808, index)
    inputs = _small(case.instances()[0][0], 1)
    _assert_conforms(Config(case.program, State.make(inputs)))


# -- generated programs ------------------------------------------------------

SHARED = ("s", "t")
#: Set once before the threads fork, then only read by every thread.
BOUND = "n"
ADDRESSES = (Lit(1), Lit(2), Lit(7), Var("p"))  # 7 is never allocated


@st.composite
def expressions(draw, names):
    if draw(st.booleans()):
        return Lit(draw(st.integers(min_value=0, max_value=2)))
    left = Var(draw(st.sampled_from(names + (BOUND,))))
    if draw(st.booleans()):
        return left
    return BinOp(draw(st.sampled_from(("+", "-", "<"))), left,
                 Lit(draw(st.integers(min_value=0, max_value=2))))


@st.composite
def statements(draw, names, depth, tag):
    kind = draw(st.sampled_from(
        ("assign", "assign", "load", "store", "alloc", "print", "atomic", "if", "loop", "par")
    ))
    target = draw(st.sampled_from(names))
    if kind == "assign":
        return Assign(target, draw(expressions(names)))
    if kind == "load":
        return Load(target, draw(st.sampled_from(ADDRESSES)))
    if kind == "store":
        return Store(draw(st.sampled_from(ADDRESSES[:2])), draw(expressions(names)))
    if kind == "alloc":
        return Alloc("p", draw(expressions(names)))
    if kind == "print":
        return Print(draw(expressions(names)))
    if kind == "atomic":
        body = seq_all(Load(target, Lit(1)), Store(Lit(1), BinOp("+", Var(target), Lit(1))))
        when = draw(st.sampled_from((None, BinOp("<", Call("deref", (Lit(1),)), Lit(2)))))
        return Atomic(body, when=when)
    if kind == "if":
        limit = draw(st.sampled_from((Lit(1), Var(BOUND))))
        return If(BinOp("<", Var(target), limit), Assign(target, Lit(2)), Assign(target, Lit(0)))
    if kind == "loop":
        counter = names[-1]
        limit = draw(st.sampled_from((Lit(2), Var(BOUND))))
        return seq_all(
            Assign(counter, Lit(0)),
            While(BinOp("<", Var(counter), limit),
                  Assign(counter, BinOp("+", Var(counter), Lit(1)))),
        )
    if depth > 0:
        return Par(draw(threads(depth - 1, tag + "l")), draw(threads(depth - 1, tag + "r")))
    return Assign(target, Lit(1))


@st.composite
def threads(draw, depth, tag):
    """A thread body over the shared variables plus two private ones
    (the last is the thread's loop counter)."""
    names = SHARED + (f"{tag}x", f"{tag}i")
    body = draw(st.lists(statements(names, depth, tag), min_size=1, max_size=2 + depth))
    return seq_all(*body)


@st.composite
def programs(draw):
    prefix = seq_all(
        Assign("s", Lit(draw(st.integers(min_value=0, max_value=1)))),
        Assign(BOUND, Lit(draw(st.integers(min_value=0, max_value=2)))),
    )
    left = draw(threads(1, "a"))
    right = draw(threads(1, "b"))
    return seq_all(prefix, Par(left, right), Print(Var("s")))


@given(programs())
@settings(max_examples=80, deadline=None)
def test_generated_programs(program):
    _assert_conforms(Config(program, State.make({}, {1: 0, 2: 5})))


# -- explorer-only contracts -------------------------------------------------


def test_independent_threads_reduce_to_one_final_state():
    """Disjoint private assignments commute: the reference sees one path
    per interleaving, the explorer one final state."""
    program = Par(seq_all(Assign("a", Lit(1)), Assign("b", Lit(2))),
                  seq_all(Assign("c", Lit(3)), Assign("d", Lit(4))))
    config = Config(program, State.make({}))
    assert len(list(enumerate_paths(config))) > 1
    assert len(list(enumerate_executions(config))) == 1


def test_shared_read_only_bound_keeps_loop_tests_local():
    """Loop tests that read the same bound commute with each other: with
    read-read independence the explorer visits one path's worth of
    states, as if the bound were private."""
    loop = lambda i: seq_all(  # noqa: E731
        Assign(i, Lit(0)),
        While(BinOp("<", Var(i), Var(BOUND)), Assign(i, BinOp("+", Var(i), Lit(1)))),
    )
    program = seq_all(Assign(BOUND, Lit(3)), Par(loop("i"), loop("j")))
    config = Config(program, State.make({}))
    assert _expansions(config) == _expansions(
        Config(seq_all(Assign(BOUND, Lit(3)), loop("i"), loop("j")), State.make({}))
    )
    assert len(list(enumerate_executions(config))) == 1


def test_two_producers_two_consumers_expansion_count():
    """Regression pin for the reduction on the corpus's largest stage-4
    enumeration (67,240 expansions before read-read independence)."""
    case = next(case for case in ALL_CASES if case.name == "2-Producers-2-Consumers")
    config = Config(case.program(), State.make(dict(case.instances()[0][0])))
    assert _expansions(config) <= 9_105


def _expansions(config: Config) -> int:
    """Calls to :func:`step` the explorer makes to enumerate ``config``."""
    count = 0

    def counted_step(current):
        nonlocal count
        count += 1
        return step(current)

    with mock.patch.object(scheduler, "step", counted_step):
        list(enumerate_executions(config, max_steps=200_000))
    return count


def test_abort_is_yielded_once():
    program = Par(Load("x", Lit(7)), seq_all(Print(Lit(1)), Load("y", Lit(7))))
    results = list(enumerate_executions(Config(program, State.make({}))))
    assert results == [ABORT]


def test_state_budget_raises_dedicated_error():
    program = Par(seq_all(Print(Lit(1)), Print(Lit(2))), seq_all(Print(Lit(3)), Print(Lit(4))))
    config = Config(program, State.make({}))
    with pytest.raises(StateBudgetExceeded):
        list(enumerate_executions(config, max_states=5))
    assert issubclass(StateBudgetExceeded, RuntimeError)
    assert len(list(enumerate_executions(config, max_states=100))) == 6


def test_divergent_thread_is_reported_not_dropped():
    """A loop that revisits its own configuration raises, even beside a
    thread that terminates and even though the visited set would
    otherwise swallow the revisit."""
    spin = While(Lit(True), Assign("z", Var("z")))
    program = Par(spin, Print(Lit(1)))
    with pytest.raises(RuntimeError, match="max_steps"):
        list(enumerate_executions(Config(program, State.make({}))))


def test_unbounded_divergence_hits_max_steps():
    """A loop whose state never repeats is caught by the depth bound."""
    count = While(Lit(True), Assign("n", BinOp("+", Var("n"), Lit(1))))
    with pytest.raises(RuntimeError, match="max_steps"):
        list(enumerate_executions(Config(count, State.make({})), max_steps=200))
