"""Tests for the fork/join dynamic-thread machine and its static reduction
to structured ``||`` (HyperViper's richer language, Sec. 5 / App. E)."""

import pytest

from repro.lang import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Call,
    DeadlockError,
    DesugarError,
    Fork,
    If,
    Join,
    Lit,
    Load,
    Par,
    Print,
    Procedure,
    ProcedureError,
    RandomScheduler,
    Seq,
    Skip,
    Store,
    TConfig,
    ThreadedProgram,
    Var,
    While,
    enumerate_executions,
    enumerate_threaded_executions,
    forks_to_par,
    parse_threaded_program,
    rename_vars,
    run,
    run_threads,
    seq_all,
    threaded_equivalent,
    tstep,
)
from repro.lang.ast import expr_subst, map_command, walk
from repro.lang.semantics import Config, State
from repro.lang.threads import MAIN_TID, ThreadError


def _incr_proc(name="worker", amount=1):
    """A worker that atomically adds ``amount`` to the cell at param ``c``."""
    body = Atomic(
        seq_all(
            Load("t", Var("c")),
            Store(Var("c"), BinOp("+", Var("t"), Lit(amount))),
        )
    )
    return Procedure(name, ("c",), body)


def _fork_two_workers():
    main = seq_all(
        Alloc("c", Lit(0)),
        Fork("t1", "worker", (Var("c"),)),
        Fork("t2", "worker", (Var("c"),)),
        Join("worker", Var("t1")),
        Join("worker", Var("t2")),
        Load("result", Var("c")),
    )
    return ThreadedProgram(main, (_incr_proc(),))


# ---------------------------------------------------------------------------
# Runtime machine
# ---------------------------------------------------------------------------


class TestThreadMachine:
    def test_two_forked_workers_increment_twice(self):
        result = run_threads(_fork_two_workers())
        assert result.main_store["result"] == 2

    def test_forked_threads_have_private_stores(self):
        # Both workers use the local name 't'; no interference.
        program = _fork_two_workers()
        for seed in range(10):
            result = run_threads(program, scheduler=RandomScheduler(seed))
            assert result.main_store["result"] == 2

    def test_fork_returns_distinct_tokens(self):
        program = _fork_two_workers()
        config = TConfig.make(program)
        # step main thread twice: alloc, then first fork
        for _ in range(3):
            steps = tstep(config, program)
            config = steps[0].result
        tokens = {t.tid for t in config.threads}
        assert MAIN_TID in tokens
        assert len(tokens) >= 2

    def test_join_blocks_until_worker_finishes(self):
        # Worker loops a few times before finishing; join must wait.
        body = seq_all(
            Assign("i", Lit(0)),
            While(BinOp("<", Var("i"), Lit(3)), Assign("i", BinOp("+", Var("i"), Lit(1)))),
            Atomic(Store(Var("c"), Lit(42))),
        )
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t", "slow", (Var("c"),)),
                Join("slow", Var("t")),
                Load("r", Var("c")),
            ),
            (Procedure("slow", ("c",), body),),
        )
        for seed in range(8):
            result = run_threads(program, scheduler=RandomScheduler(seed))
            assert result.main_store["r"] == 42

    def test_join_on_bad_token_raises(self):
        program = ThreadedProgram(
            seq_all(Assign("t", Lit(True)), Join("worker", Var("t"))),
            (_incr_proc(),),
        )
        with pytest.raises(ThreadError):
            run_threads(program)

    def test_join_never_forked_deadlocks(self):
        program = ThreadedProgram(Join("worker", Lit(99)), (_incr_proc(),))
        with pytest.raises(DeadlockError):
            run_threads(program, max_steps=100)

    def test_fork_undeclared_procedure_raises(self):
        program = ThreadedProgram(Fork("t", "nope", ()), ())
        with pytest.raises(ProcedureError):
            run_threads(program)

    def test_fork_wrong_arity_raises(self):
        program = ThreadedProgram(Fork("t", "worker", ()), (_incr_proc(),))
        with pytest.raises(ProcedureError):
            run_threads(program)

    def test_fork_inside_atomic_rejected(self):
        program = ThreadedProgram(
            Atomic(Fork("t", "worker", (Lit(1),))),
            (_incr_proc(),),
        )
        with pytest.raises(ThreadError):
            run_threads(program)

    def test_join_inside_atomic_of_a_procedure_rejected_when_built(self):
        program = ThreadedProgram(
            seq_all(Fork("t", "outer", ()), Join("outer", Var("t"))),
            (Procedure("outer", (), Atomic(Join("worker", Lit(1)))), _incr_proc()),
        )
        with pytest.raises(ThreadError):
            TConfig.make(program)

    def test_thread_with_internal_par_reports_paths(self):
        # A fork/join redex and a structured step of the same thread are
        # listed left to right, each tagged with the tid and its L/R path.
        program = ThreadedProgram(
            seq_all(
                Par(Fork("t", "worker", (Var("c"),)), Assign("x", Lit(1))),
                Join("worker", Var("t")),
            ),
            (_incr_proc(),),
        )
        config = TConfig.make(program, {"c": 1}, {1: 0})
        assert [s.choice for s in tstep(config, program)] == ["0L", "0R"]
        result = run_threads(program, inputs={"c": 1}, heap={1: 0})
        assert result.heap == {1: 1}
        assert result.main_store["x"] == 1

    def test_heap_is_shared_between_threads(self):
        # Worker writes, main reads after join.
        program = ThreadedProgram(
            seq_all(
                Alloc("cell", Lit(0)),
                Fork("t", "writer", (Var("cell"),)),
                Join("writer", Var("t")),
                Load("x", Var("cell")),
            ),
            (Procedure("writer", ("cell",), Atomic(Store(Var("cell"), Lit(7)))),),
        )
        result = run_threads(program)
        assert result.main_store["x"] == 7

    def test_output_trace_is_shared(self):
        program = ThreadedProgram(
            seq_all(
                Fork("t", "printer", (Lit(5),)),
                Join("printer", Var("t")),
                Print(Lit(6)),
            ),
            (Procedure("printer", ("x",), Print(Var("x"))),),
        )
        result = run_threads(program)
        assert result.output == (5, 6)

    def test_aborting_thread_aborts_run(self):
        from repro.lang import AbortError

        program = ThreadedProgram(
            seq_all(Fork("t", "bad", ()), Join("bad", Var("t"))),
            (Procedure("bad", (), Load("x", Lit(12345))),),
        )
        with pytest.raises(AbortError):
            run_threads(program)

    def test_interleaving_is_nondeterministic(self):
        # Two workers racing to set (not add) expose scheduling.
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t1", "setter3", (Var("c"),)),
                Fork("t2", "setter4", (Var("c"),)),
                Join("setter3", Var("t1")),
                Join("setter4", Var("t2")),
                Load("r", Var("c")),
            ),
            (
                Procedure("setter3", ("c",), Atomic(Store(Var("c"), Lit(3)))),
                Procedure("setter4", ("c",), Atomic(Store(Var("c"), Lit(4)))),
            ),
        )
        results = {
            run_threads(program, scheduler=RandomScheduler(seed)).main_store["r"]
            for seed in range(30)
        }
        assert results == {3, 4}

    def test_loop_forking_n_workers(self):
        # The App. E pattern: fork in a loop, tokens stored in heap cells,
        # join in a second loop after loading tokens back.
        n = 4
        source_main = seq_all(
            Alloc("c", Lit(0)),
            # allocate a token array: cells at addresses base..base+n-1
            Alloc("base", Lit(0)),
            *[Alloc(f"_slot{i}", Lit(0)) for i in range(1, n)],
            Assign("i", Lit(0)),
            While(
                BinOp("<", Var("i"), Lit(n)),
                seq_all(
                    Fork("t", "worker", (Var("c"),)),
                    Store(BinOp("+", Var("base"), Var("i")), Var("t")),
                    Assign("i", BinOp("+", Var("i"), Lit(1))),
                ),
            ),
            Assign("j", Lit(0)),
            While(
                BinOp("<", Var("j"), Lit(n)),
                seq_all(
                    Load("tok", BinOp("+", Var("base"), Var("j"))),
                    Join("worker", Var("tok")),
                    Assign("j", BinOp("+", Var("j"), Lit(1))),
                ),
            ),
            Load("result", Var("c")),
        )
        program = ThreadedProgram(source_main, (_incr_proc(),))
        for seed in range(6):
            result = run_threads(program, scheduler=RandomScheduler(seed))
            assert result.main_store["result"] == n

    def test_enumeration_yields_all_final_results(self):
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t1", "setter3", (Var("c"),)),
                Fork("t2", "setter4", (Var("c"),)),
                Join("setter3", Var("t1")),
                Join("setter4", Var("t2")),
                Load("r", Var("c")),
            ),
            (
                Procedure("setter3", ("c",), Atomic(Store(Var("c"), Lit(3)))),
                Procedure("setter4", ("c",), Atomic(Store(Var("c"), Lit(4)))),
            ),
        )
        finals = set()
        for config in enumerate_threaded_executions(program):
            assert config not in ("abort", "deadlock")
            main = config.thread(MAIN_TID)
            finals.add(main.store_dict()["r"])
        assert finals == {3, 4}


# ---------------------------------------------------------------------------
# Parser round-trip
# ---------------------------------------------------------------------------


class TestThreadedParser:
    SOURCE = """
    procedure worker(c) {
        atomic { t := [c]; [c] := t + 1 }
    }
    c := alloc(0)
    t1 := fork worker(c)
    t2 := fork worker(c)
    join worker(t1)
    join worker(t2)
    result := [c]
    """

    def test_parse_and_run(self):
        program = parse_threaded_program(self.SOURCE)
        assert len(program.procedures) == 1
        assert program.procedures[0].params == ("c",)
        result = run_threads(program)
        assert result.main_store["result"] == 2

    def test_parse_fork_arity_and_args(self):
        program = parse_threaded_program(
            "procedure p(a, b) { skip }\nt := fork p(1, 2)\njoin p(t)"
        )
        fork = program.main.first if isinstance(program.main, Seq) else program.main
        assert isinstance(fork, Fork)
        assert fork.args == (Lit(1), Lit(2))

    def test_parse_program_without_procedures(self):
        program = parse_threaded_program("x := 1\nprint(x)")
        assert program.procedures == ()
        assert run_threads(program).output == (1,)


# ---------------------------------------------------------------------------
# Static reduction to structured ||
# ---------------------------------------------------------------------------


class TestForksToPar:
    def test_simple_barrier_reduces_to_par(self):
        structured = forks_to_par(_fork_two_workers())
        # must contain a Par node and no Fork/Join
        def nodes(cmd):
            yield cmd
            for attr in ("first", "second", "left", "right", "body", "then_branch", "else_branch"):
                child = getattr(cmd, attr, None)
                if child is not None and hasattr(child, "__class__") and not isinstance(child, (str, tuple)):
                    from repro.lang.ast import Command

                    if isinstance(child, Command):
                        yield from nodes(child)

        kinds = {type(node).__name__ for node in nodes(structured)}
        assert "Par" in kinds
        assert "Fork" not in kinds and "Join" not in kinds

    def test_reduction_preserves_final_stores(self):
        program = _fork_two_workers()
        structured = forks_to_par(program)
        threaded_finals = set()
        for config in enumerate_threaded_executions(program):
            threaded_finals.add(config.thread(MAIN_TID).store_dict()["result"])
        structured_finals = set()
        for config in enumerate_executions(Config(structured, State.make())):
            assert config != "abort"
            structured_finals.add(config.state.store_dict()["result"])
        assert threaded_finals == structured_finals == {2}

    def test_reduction_preserves_race_outcomes(self):
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t1", "setter3", (Var("c"),)),
                Fork("t2", "setter4", (Var("c"),)),
                Join("setter3", Var("t1")),
                Join("setter4", Var("t2")),
                Load("r", Var("c")),
            ),
            (
                Procedure("setter3", ("c",), Atomic(Store(Var("c"), Lit(3)))),
                Procedure("setter4", ("c",), Atomic(Store(Var("c"), Lit(4)))),
            ),
        )
        structured = forks_to_par(program)
        threaded_finals = {
            config.thread(MAIN_TID).store_dict()["r"]
            for config in enumerate_threaded_executions(program)
        }
        structured_finals = {
            config.state.store_dict()["r"]
            for config in enumerate_executions(Config(structured, State.make()))
        }
        assert threaded_finals == structured_finals == {3, 4}

    def test_middle_statements_run_in_parallel(self):
        # main work between forks and joins joins the Par.
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t1", "worker", (Var("c"),)),
                Assign("m", Lit(10)),
                Join("worker", Var("t1")),
                Load("r", Var("c")),
            ),
            (_incr_proc(),),
        )
        structured = forks_to_par(program)
        result = run(structured)
        assert result.store["m"] == 10
        assert result.store["r"] == 1

    def test_two_phases(self):
        program = ThreadedProgram(
            seq_all(
                Alloc("c", Lit(0)),
                Fork("t1", "worker", (Var("c"),)),
                Join("worker", Var("t1")),
                Fork("t2", "worker", (Var("c"),)),
                Join("worker", Var("t2")),
                Load("r", Var("c")),
            ),
            (_incr_proc(),),
        )
        structured = forks_to_par(program)
        assert run(structured).store["r"] == 2

    def test_rejects_fork_under_loop(self):
        program = ThreadedProgram(
            While(BinOp("<", Var("i"), Lit(2)), Fork("t", "worker", (Var("c"),))),
            (_incr_proc(),),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_unjoined_fork(self):
        program = ThreadedProgram(Fork("t", "worker", (Lit(1),)), (_incr_proc(),))
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_join_without_fork(self):
        program = ThreadedProgram(Join("worker", Var("t")), (_incr_proc(),))
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_token_reuse(self):
        program = ThreadedProgram(
            seq_all(
                Fork("t", "worker", (Lit(1),)),
                Fork("t", "worker", (Lit(1),)),
                Join("worker", Var("t")),
                Join("worker", Var("t")),
            ),
            (_incr_proc(),),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_wrong_procedure_in_join(self):
        program = ThreadedProgram(
            seq_all(Fork("t", "worker", (Lit(1),)), Join("other", Var("t"))),
            (_incr_proc(), Procedure("other", ("c",), Skip())),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_modified_fork_argument(self):
        program = ThreadedProgram(
            seq_all(
                Assign("a", Lit(1)),
                Fork("t", "worker", (Var("a"),)),
                Assign("a", Lit(2)),
                Join("worker", Var("t")),
            ),
            (_incr_proc(),),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_procedure_reading_globals(self):
        leaky = Procedure("leaky", ("c",), Atomic(Store(Var("c"), Var("global_x"))))
        program = ThreadedProgram(
            seq_all(Fork("t", "leaky", (Var("c"),)), Join("leaky", Var("t"))),
            (leaky,),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_rejects_forking_procedure(self):
        forker = Procedure("forker", (), seq_all(Fork("t", "w", ()), Join("w", Var("t"))))
        program = ThreadedProgram(
            seq_all(Fork("t", "forker", ()), Join("forker", Var("t"))),
            (forker, Procedure("w", (), Skip())),
        )
        with pytest.raises(DesugarError):
            forks_to_par(program)

    def test_threaded_equivalent_identity_without_forks(self):
        main = seq_all(Assign("x", Lit(1)), Print(Var("x")))
        program = ThreadedProgram(main, ())
        assert threaded_equivalent(program) is main

    def test_workers_renamed_apart(self):
        structured = forks_to_par(_fork_two_workers())
        # The two workers' local 't' must not collide.
        text = str(structured)
        assert "t__t0" in text and "t__t1" in text


class TestCommandTraversal:
    def test_walk_is_pre_order_and_enters_atomic_bodies(self):
        inner = Store(Var("c"), Lit(1))
        cmd = Seq(Atomic(inner), Par(Skip(), Print(Var("x"))))
        assert list(walk(cmd)) == [
            cmd,
            cmd.first,
            inner,
            cmd.second,
            Skip(),
            Print(Var("x")),
        ]

    def test_map_command_reaches_every_expression_and_target(self):
        cmd = seq_all(
            Fork("t", "worker", (Var("a"),)),
            Atomic(Store(Var("c"), Var("a")), "Put", Var("a"), BinOp(">", Var("a"), Lit(0))),
            Join("worker", Var("t")),
        )
        mapped = map_command(cmd, lambda e: expr_subst(e, "a", Lit(7)), str.upper)
        assert mapped == seq_all(
            Fork("T", "worker", (Lit(7),)),
            Atomic(Store(Var("c"), Lit(7)), "Put", Lit(7), BinOp(">", Lit(7), Lit(0))),
            Join("worker", Var("t")),
        )


class TestRenameVars:
    def test_renames_reads_and_writes(self):
        cmd = seq_all(Assign("x", BinOp("+", Var("x"), Lit(1))), Print(Var("x")))
        renamed = rename_vars(cmd, {"x": "y"})
        result = run(renamed, inputs={"y": 5})
        assert result.output == (6,)

    def test_renames_inside_atomic_annotations(self):
        cmd = Atomic(Store(Var("c"), Var("v")), "Put", Call("pair", (Var("k"), Var("v"))))
        renamed = rename_vars(cmd, {"k": "k2", "v": "v2"})
        assert "k2" in str(renamed.argument) and "v2" in str(renamed.argument)

    def test_rename_does_not_touch_other_vars(self):
        cmd = Assign("x", Var("z"))
        assert rename_vars(cmd, {"y": "w"}) == cmd
