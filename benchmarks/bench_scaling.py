"""Benchmark: how the pipeline scales along its three cost axes.

The paper's evaluation fixes two worker threads per example; this
benchmark varies the knobs our stack exposes and reports the growth
curves:

* **worker count** — fork/join counter programs with N = 2..5 workers,
  reduced to ``||`` with ``threaded_equivalent`` and verified by
  ``verify`` (the analogue of HyperViper handling more forked threads);
* **validity domain size** — Def. 3.1 checking of the integer-add spec as
  the small-scope value/argument domains grow (the analogue of Z3's
  instantiation workload);
* **solver strategy** — the bounded enumerator with and without the
  DPLL/EUF fast paths on boolean-skeleton-heavy validity queries;
* **interleaving explosion** — the number of complete interleavings of
  the reduced program as threads are added, against the distinct final
  states the partial-order-reduced explorer visits instead (the reason
  stage 4 can afford to enumerate exhaustively).
"""

import itertools

import pytest

from repro.lang import (
    Alloc,
    Atomic,
    BinOp,
    Fork,
    Join,
    Lit,
    Load,
    Procedure,
    Store,
    ThreadedProgram,
    Var,
    seq_all,
)
from repro.lang.desugar import threaded_equivalent
from repro.lang.scheduler import enumerate_executions, enumerate_paths
from repro.lang.semantics import Config, State
from repro.smt.solver import check_validity as smt_check
from repro.smt.sorts import BOOL
from repro.smt.terms import App, SymVar, conj, disj, implies, negate
from repro.spec import Action, ResourceSpecification, check_validity
from repro.spec.actions import low_everything
from repro.spec.library import integer_add_spec
from repro.verifier import ProgramSpec, ResourceDecl, verify


def _incr_worker() -> Procedure:
    body = Atomic(
        seq_all(Load("t", Var("c")), Store(Var("c"), BinOp("+", Var("t"), Lit(1)))),
        action="Add",
        argument=Lit(1),
    )
    return Procedure("worker", ("c",), body)


def _fork_join_counter(workers: int) -> ThreadedProgram:
    statements = [Alloc("c", Lit(0))]
    from repro.lang import Share, Unshare

    statements.append(Share("IntegerAdd"))
    for index in range(workers):
        statements.append(Fork(f"t{index}", "worker", (Var("c"),)))
    for index in range(workers):
        statements.append(Join("worker", Var(f"t{index}")))
    statements.append(Unshare("IntegerAdd"))
    statements.append(Load("result", Var("c")))
    from repro.lang import Print

    statements.append(Print(Var("result")))
    return ThreadedProgram(seq_all(*statements), (_incr_worker(),))


def _verify_counter(workers: int):
    spec = ProgramSpec(
        f"counter-{workers}w",
        threaded_equivalent(_fork_join_counter(workers)),
        (ResourceDecl("IntegerAdd", integer_add_spec(), "c"),),
        frozenset(),
        frozenset(),
    )
    return verify(spec)


WORKER_COUNTS = (2, 3, 4, 5)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_verify_n_workers(benchmark, workers):
    result = benchmark(_verify_counter, workers)
    assert result.verified, result.summary()


def _add_spec_with_domain(size: int) -> ResourceSpecification:
    domain = tuple(range(-(size // 2), size - size // 2))
    add = Action.shared("Add", lambda value, amount: value + amount,
                        low_projections=low_everything())
    return ResourceSpecification(
        name=f"IntegerAdd{size}",
        abstraction=lambda value: value,
        actions=(add,),
        initial_value=0,
        value_domain=domain,
        arg_domains={"Add": domain},
    )


DOMAIN_SIZES = (4, 8, 12, 16)


@pytest.mark.parametrize("size", DOMAIN_SIZES)
def test_validity_domain_scaling(benchmark, size):
    spec = _add_spec_with_domain(size)
    report = benchmark(check_validity, spec)
    assert report.valid


def _skeleton_formula(atoms: int):
    """A propositional tautology over `atoms` comparison atoms:
    (a1 ∧ ... ∧ ak) ⇒ a1 — heavy for enumeration, trivial for DPLL."""
    from repro.smt.sorts import INT

    comparisons = [
        App("<", (SymVar(f"x{i}", INT), SymVar(f"y{i}", INT))) for i in range(atoms)
    ]
    return implies(conj(*comparisons), comparisons[0])


SKELETON_SIZES = (2, 4, 6)


@pytest.mark.parametrize("atoms", SKELETON_SIZES)
def test_solver_with_sat_fast_path(benchmark, atoms):
    formula = _skeleton_formula(atoms)
    result = benchmark(smt_check, formula)
    assert result.verdict.value == "proved"


@pytest.mark.parametrize("atoms", SKELETON_SIZES)
def test_solver_enumeration_only(benchmark, atoms):
    formula = _skeleton_formula(atoms)
    result = benchmark(smt_check, formula, use_sat=False)
    assert result.is_valid()


def test_print_scaling_report():
    import time

    print("\n=== scaling: fork/join worker count (full verification) ===")
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        result = _verify_counter(workers)
        elapsed = time.perf_counter() - start
        print(f"  {workers} workers: {elapsed * 1000:7.1f} ms  "
              f"({'VERIFIED' if result.verified else 'REJECTED'})")
        assert result.verified

    print("\n=== scaling: validity-check domain size (Def. 3.1) ===")
    for size in DOMAIN_SIZES:
        spec = _add_spec_with_domain(size)
        start = time.perf_counter()
        report = check_validity(spec)
        elapsed = time.perf_counter() - start
        print(f"  |domain| = {size:2d}: {report.checks_performed:7d} checks "
              f"in {elapsed * 1000:7.1f} ms")

    print("\n=== scaling: solver fast path vs enumeration ===")
    for atoms in SKELETON_SIZES:
        formula = _skeleton_formula(atoms)
        start = time.perf_counter()
        with_sat = smt_check(formula)
        time_sat = time.perf_counter() - start
        start = time.perf_counter()
        without = smt_check(formula, use_sat=False)
        time_enum = time.perf_counter() - start
        print(f"  {atoms} atoms: SAT path {time_sat * 1000:7.2f} ms "
              f"({with_sat.verdict.value}); enumeration {time_enum * 1000:7.2f} ms "
              f"({without.verdict.value}, {without.checked_assignments} assignments)")

    print("\n=== scaling: interleavings enumerated (exhaustive checking) ===")
    for workers in (1, 2, 3):
        initial = Config(threaded_equivalent(_fork_join_counter(workers)), State.make())
        paths = sum(1 for _ in enumerate_paths(initial, max_steps=5_000))
        finals = sum(1 for _ in enumerate_executions(initial, max_steps=5_000))
        print(f"  {workers} worker(s): {paths} complete interleavings, "
              f"{finals} distinct final state(s)")
