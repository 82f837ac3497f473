"""Unit tests for the interpreter and schedulers."""

import pytest

from repro.lang.interpreter import AbortError, DeadlockError, run
from repro.lang.parser import parse_program
from repro.lang.scheduler import (
    FixedScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    enumerate_executions,
    enumerate_paths,
    left_first,
)
from repro.lang.semantics import ABORT, Config, State


class TestRun:
    def test_sequential_program(self):
        result = run(parse_program("x := 1\ny := x + 1"))
        assert result.store["y"] == 2

    def test_inputs_feed_store(self):
        result = run(parse_program("y := x * 2"), {"x": 21})
        assert result.store["y"] == 42

    def test_output_trace(self):
        result = run(parse_program("print(1)\nprint(2)"))
        assert result.output == (1, 2)

    def test_abort_raises(self):
        with pytest.raises(AbortError):
            run(parse_program("x := [p]"), {"p": 3})

    def test_divergence_detected(self):
        with pytest.raises(RuntimeError, match="did not terminate"):
            run(parse_program("while (true) { skip }"), max_steps=500)

    def test_deadlock_detected(self):
        source = "q := alloc(0)\natomic [A(0)] when (deref(q) > 0) { [q] := 0 }"
        with pytest.raises(RuntimeError, match="deadlock"):
            run(parse_program(source))

    def test_deadlock_is_a_deadlock_error(self):
        source = "q := alloc(0)\natomic [A(0)] when (deref(q) > 0) { [q] := 0 }"
        with pytest.raises(DeadlockError, match="deadlock"):
            run(parse_program(source))

    def test_stuck_atomic_body_deadlocks(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run(parse_program("atomic { atomic when (false) { skip } }"))

    def test_schedule_recorded(self):
        result = run(parse_program("{ x := 1 } || { y := 2 }"))
        assert len(result.schedule) >= 2


class TestSchedulers:
    SOURCE = "{ x := 1; x := x + 1 } || { y := 5 }"

    def test_left_first_runs_left_thread_first(self):
        result = run(parse_program(self.SOURCE), scheduler=left_first)
        assert result.store["x"] == 2

    def test_round_robin_alternates(self):
        result = run(parse_program(self.SOURCE), scheduler=RoundRobinScheduler())
        assert result.store == {"x": 2, "y": 5}

    def test_random_scheduler_deterministic_per_seed(self):
        out1 = run(parse_program(self.SOURCE), scheduler=RandomScheduler(7)).schedule
        out2 = run(parse_program(self.SOURCE), scheduler=RandomScheduler(7)).schedule
        assert out1 == out2

    def test_random_scheduler_varies_with_seed(self):
        source = "{ s := 1 } || { s := 2 }"
        finals = {
            run(parse_program(source), scheduler=RandomScheduler(seed)).store["s"]
            for seed in range(20)
        }
        assert finals == {1, 2}

    def test_fixed_scheduler_replays(self):
        source = "{ s := 1 } || { s := 2 }"
        result = run(parse_program(source), scheduler=FixedScheduler([1, 1, 1, 1]))
        replay = run(parse_program(source), scheduler=FixedScheduler([1, 1, 1, 1]))
        assert result.store == replay.store


class TestEnumeration:
    def test_enumerates_all_interleavings_of_race(self):
        source = "{ s := 1 } || { s := 2 }"
        finals = {
            config.state.read_var("s")
            for config in enumerate_executions(Config(parse_program(source), State.make()))
            if config != ABORT
        }
        assert finals == {1, 2}

    def test_deterministic_program_single_outcome(self):
        source = "x := 1\ny := 2"
        outcomes = list(enumerate_executions(Config(parse_program(source), State.make())))
        assert len(outcomes) == 1

    def test_yields_abort(self):
        source = "{ x := [p] } || { y := 1 }"
        outcomes = list(
            enumerate_executions(Config(parse_program(source), State.make({"p": 5})))
        )
        assert ABORT in outcomes

    def test_stuck_atomic_body_has_no_final_state(self):
        program = parse_program("atomic { atomic when (false) { skip } }")
        assert list(enumerate_executions(Config(program, State.make()))) == []

    def test_max_executions_bound(self):
        source = "{ a := 1; b := 2 } || { c := 3; d := 4 }"
        outcomes = list(
            enumerate_paths(Config(parse_program(source), State.make()), max_executions=3)
        )
        assert len(outcomes) == 3

    def test_interleaving_count_two_step_threads(self):
        # Two independent 1-assignment threads: assignments interleave in
        # 2 orders; the join adds no variation.
        source = "{ a := 1 } || { b := 2 }"
        outcomes = list(enumerate_paths(Config(parse_program(source), State.make())))
        assert len(outcomes) == 2
