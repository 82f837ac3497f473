"""Property tests for the scheduler edge cases the fuzzer leans on.

The differential oracle (:mod:`repro.fuzz.oracle`) trusts three scheduler
behaviours without checking them per case: ``RandomScheduler`` is a pure
function of its seed (sampled campaigns replay exactly),
``enumerate_executions`` either yields *every* reachable final state or
raises (never silently truncates below the bound), and ``FixedScheduler``
tolerates recorded choice sequences that run out or index out of range
(shrunk programs have fewer choice points than the original recording).
These tests pin those behaviours down directly.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.interpreter import run
from repro.lang.parser import parse_program
from repro.lang.scheduler import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    enumerate_executions,
    left_first,
)
from repro.lang.semantics import ABORT, Config, State, step

TWO_THREADS = parse_program(
    """
    x := 0
    { x := x + 1; print(1) } || { x := x + 10; print(2) }
    print(x)
    """
)

THREE_PRINTS = parse_program("{ print(1) } || { { print(2) } || { print(3) } }")

DIVERGENT = parse_program("while (true) { skip }")


# -- FixedScheduler: choice exhaustion and modulo wrapping -------------------


@given(st.lists(st.integers(min_value=-5, max_value=12), max_size=6))
@settings(max_examples=60, deadline=None)
def test_fixed_scheduler_total_on_any_choice_sequence(choices):
    """Any recorded sequence — too short, negative, out of range — still
    drives a run to completion: indices wrap modulo the enabled steps and
    exhausted recordings pad with 0."""
    result = run(TWO_THREADS, scheduler=FixedScheduler(choices))
    assert result.output[-1] == 11


def test_fixed_scheduler_pads_with_zero_after_exhaustion():
    """An empty recording behaves exactly like the left-first policy."""
    fixed = run(THREE_PRINTS, scheduler=FixedScheduler([]))
    leftmost = run(THREE_PRINTS, scheduler=left_first)
    assert fixed.output == leftmost.output


def test_fixed_scheduler_wraps_indices_modulo_enabled_steps():
    config = Config(THREE_PRINTS, State.make({}))
    successors = step(config)
    assert len(successors) > 1
    scheduler = FixedScheduler([len(successors), len(successors) + 1])
    assert scheduler(config, successors) == 0
    assert scheduler(config, successors) == 1


def test_fixed_scheduler_replays_a_recorded_schedule():
    """The (schedule length)-prefix of choices replays the same output —
    the contract shrink-replay relies on."""
    reference = run(TWO_THREADS, scheduler=RandomScheduler(99))
    choice_count = len(reference.schedule)
    for seq in itertools.product((0, 1), repeat=min(choice_count, 4)):
        replayed = run(TWO_THREADS, scheduler=FixedScheduler(list(seq) + [0] * 20))
        assert replayed.output[-1] == 11


# -- RandomScheduler: seed determinism ---------------------------------------


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_random_scheduler_is_a_pure_function_of_its_seed(seed):
    first = run(TWO_THREADS, scheduler=RandomScheduler(seed))
    second = run(TWO_THREADS, scheduler=RandomScheduler(seed))
    assert first.output == second.output
    assert first.schedule == second.schedule


def test_random_scheduler_seeds_are_independent():
    """Different seeds explore different interleavings (on a program with
    3! orderings, 12 seeds collapsing to one schedule would mean the seed
    is ignored)."""
    schedules = {
        run(THREE_PRINTS, scheduler=RandomScheduler(seed)).output
        for seed in range(12)
    }
    assert len(schedules) > 1


def test_random_scheduler_state_advances_within_one_run():
    """The scheduler's RNG is private: interleaving two scheduler objects
    does not perturb each other's streams."""
    a1, b1 = RandomScheduler(5), RandomScheduler(5)
    config = Config(THREE_PRINTS, State.make({}))
    successors = step(config)
    interleaved = [a1(config, successors), b1(config, successors),
                   a1(config, successors), b1(config, successors)]
    a2 = RandomScheduler(5)
    solo = [a2(config, successors), a2(config, successors)]
    assert interleaved[0::2] == solo
    assert interleaved[1::2] == solo


# -- enumerate_executions: bounds --------------------------------------------


def test_enumerate_executions_covers_all_interleavings():
    """3 independent prints → every one of the 3! output orders is
    reached, each as its own final state."""
    finals = list(enumerate_executions(Config(THREE_PRINTS, State.make({}))))
    assert len(finals) >= 6
    outputs = {f.state.output for f in finals}
    assert outputs == set(itertools.permutations((1, 2, 3)))


def test_enumerate_executions_raises_on_max_steps():
    """A divergent branch hits the depth bound with RuntimeError — it must
    never be silently dropped (the oracle would then under-enumerate)."""
    with pytest.raises(RuntimeError, match="max_steps"):
        list(enumerate_executions(Config(DIVERGENT, State.make({})), max_steps=50))


def test_enumerate_executions_max_executions_truncates_exactly():
    for bound in (1, 2, 5):
        finals = list(
            enumerate_executions(Config(THREE_PRINTS, State.make({})), max_executions=bound)
        )
        assert len(finals) == bound


def test_enumerate_executions_yields_abort_markers():
    program = parse_program("{ x := [0] } || { print(1) }")  # 0 is unallocated
    results = list(enumerate_executions(Config(program, State.make({}))))
    assert ABORT in results


# -- RoundRobinScheduler ------------------------------------------------------


def test_round_robin_alternates_enabled_threads():
    """With two always-enabled threads the choices alternate L, R, L, R —
    the deterministic scheduler of the Fig. 1 leak discussion."""
    program = parse_program("{ print(1); print(2) } || { print(3); print(4) }")
    result = run(program, scheduler=RoundRobinScheduler())
    assert result.output == (1, 3, 2, 4)
