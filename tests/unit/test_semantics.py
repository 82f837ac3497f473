"""Unit tests for the small-step operational semantics (Fig. 9)."""

import pytest

from repro.lang.ast import (
    Assign,
    Atomic,
    BinOp,
    Call,
    Fork,
    Join,
    Lit,
    Load,
    Par,
    Print,
    Seq,
    Skip,
    Store,
    Var,
    While,
)
from repro.lang.parser import parse_expr, parse_program
from repro.lang.semantics import ABORT, Config, State, evaluate, step


def make_config(source: str, store=None, heap=None) -> Config:
    return Config(parse_program(source), State.make(store, heap))


class TestExpressionEvaluation:
    def test_arithmetic(self):
        assert evaluate(parse_expr("2 + 3 * 4"), {}) == 14

    def test_uninitialized_variable_defaults_to_zero(self):
        assert evaluate(parse_expr("x + 1"), {}) == 1

    def test_division_total(self):
        assert evaluate(parse_expr("7 / 0"), {}) == 0
        assert evaluate(parse_expr("7 % 0"), {}) == 0

    def test_integer_division_floors(self):
        assert evaluate(parse_expr("7 / 2"), {}) == 3

    def test_comparison(self):
        assert evaluate(parse_expr("x < 5"), {"x": 3}) is True

    def test_short_circuit_and(self):
        # right operand irrelevant when left is false
        assert evaluate(parse_expr("false && x"), {"x": 1}) is False

    def test_call(self):
        assert evaluate(parse_expr("max(2, 5)"), {}) == 5

    def test_deref_requires_heap(self):
        from repro.lang.semantics import EvaluationError

        with pytest.raises(EvaluationError):
            evaluate(Call("deref", (Var("p"),)), {"p": 1})

    def test_deref_with_heap(self):
        assert evaluate(Call("deref", (Var("p"),)), {"p": 1}, {1: 42}) == 42


class TestBasicSteps:
    def test_assign(self):
        [s] = step(make_config("x := 1 + 1"))
        assert s.result.state.read_var("x") == 2
        assert s.result.is_final()

    def test_load(self):
        [s] = step(make_config("x := [p]", {"p": 1}, {1: 99}))
        assert s.result.state.read_var("x") == 99

    def test_load_unallocated_aborts(self):
        [s] = step(make_config("x := [p]", {"p": 7}))
        assert s.result == ABORT

    def test_store(self):
        [s] = step(make_config("[p] := 5", {"p": 1}, {1: 0}))
        assert s.result.state.heap_dict()[1] == 5

    def test_store_unallocated_aborts(self):
        [s] = step(make_config("[p] := 5", {"p": 7}))
        assert s.result == ABORT

    def test_alloc_assigns_fresh_location(self):
        [s] = step(make_config("x := alloc(3)", heap={1: 0}))
        state = s.result.state
        location = state.read_var("x")
        assert location not in (0, 1)
        assert state.heap_dict()[location] == 3

    def test_seq_skip_elimination(self):
        config = Config(Seq(Skip(), Assign("x", Lit(1))), State.make())
        [s] = step(config)
        assert s.result.command == Assign("x", Lit(1))

    def test_if_chooses_branch(self):
        [s] = step(make_config("if (1 < 2) { x := 1 } else { x := 2 }"))
        assert s.result.command == Assign("x", Lit(1))

    def test_while_unfolds_to_conditional(self):
        [s] = step(make_config("while (x < 1) { x := x + 1 }"))
        assert "if" in str(s.result.command)

    def test_share_unshare_are_runtime_noops(self):
        [s] = step(make_config("share R"))
        assert s.result.is_final()

    def test_print_appends_output(self):
        [s] = step(make_config("print(5)"))
        assert s.result.state.output == (5,)


class TestParallelism:
    def test_par_offers_both_branches(self):
        steps = step(make_config("{ x := 1 } || { y := 2 }"))
        assert {s.choice for s in steps} == {"L", "R"}

    def test_par_join_when_both_skip(self):
        config = Config(Par(Skip(), Skip()), State.make())
        [s] = step(config)
        assert s.result.is_final()

    def test_nested_par_labels(self):
        steps = step(make_config("{ a := 1 } || { b := 2 } || { c := 3 }"))
        assert {s.choice for s in steps} == {"L", "RL", "RR"}

    def test_par_abort_propagates(self):
        steps = step(make_config("{ x := [p] } || { y := 1 }", {"p": 9}))
        assert any(s.result == ABORT for s in steps)


class TestAtomic:
    def test_atomic_runs_body_to_completion(self):
        [s] = step(make_config("atomic { x := 1; y := x + 1 }"))
        assert s.result.is_final()
        assert s.result.state.read_var("y") == 2

    def test_atomic_abort_propagates(self):
        [s] = step(make_config("atomic { x := [p] }", {"p": 9}))
        assert s.result == ABORT

    def test_when_guard_blocks(self):
        config = make_config("atomic [A(0)] when (deref(q) > 0) { [q] := 0 }", {"q": 1}, {1: 0})
        assert step(config) == []

    def test_when_guard_enables(self):
        config = make_config("atomic [A(0)] when (deref(q) > 0) { [q] := 0 }", {"q": 1}, {1: 5})
        [s] = step(config)
        assert s.result.state.heap_dict()[1] == 0

    def test_blocked_thread_does_not_block_sibling(self):
        source = "{ atomic [A(0)] when (deref(q) > 0) { [q] := 0 } } || { x := 1 }"
        steps = step(make_config(source, {"q": 1}, {1: 0}))
        assert {s.choice for s in steps} == {"R"}

    def test_stuck_body_blocks_the_block(self):
        # A nested blocked guard leaves the body with no run to skip, so the
        # outer block has no step, exactly as if its own guard were false.
        assert step(make_config("atomic { atomic when (false) { skip } }")) == []

    def test_stuck_body_does_not_block_sibling(self):
        source = "{ atomic { atomic when (false) { skip } } } || { x := 1 }"
        assert {s.choice for s in step(make_config(source))} == {"R"}


class TestForkJoin:
    def test_fork_and_join_have_no_structured_step(self):
        # The fork/join pool (repro.lang.threads) performs these redexes.
        for command in (Fork("t", "p", (Lit(1),)), Join("p", Var("t"))):
            assert step(Config(command, State.make())) == []
            assert step(Config(Seq(command, Assign("x", Lit(1))), State.make())) == []


class TestDeterminism:
    def test_sequential_step_is_deterministic(self):
        config = make_config("x := 1\ny := 2\nz := 3")
        while not config.is_final():
            successors = step(config)
            assert len(successors) == 1
            config = successors[0].result
        assert config.state.read_var("z") == 3

    def test_state_is_hashable(self):
        s1 = State.make({"x": 1}, {1: 2})
        s2 = State.make({"x": 1}, {1: 2})
        assert s1 == s2
        assert hash(s1) == hash(s2)
