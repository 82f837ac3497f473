"""Benchmark runner: the optimized SMT core vs the retained reference.

Times the seed-equivalent reference path (:mod:`repro.smt.reference`:
recursive clause-copying DPLL, interpreted AST-walking enumeration,
non-incremental DPLL(T), no caches) against the optimized core
(:mod:`repro.smt`: hash-consed terms, watched-literal incremental
DPLL(T), compiled evaluation, cross-call validity cache) on three
workloads and writes ``BENCH_smt.json``:

* ``boolean_skeleton`` — validity of boolean-skeleton-heavy formulas
  along bench_scaling's "solver strategy" axis, both with the SAT fast
  path (watched vs recursive DPLL) and enumeration-only (compiled vs
  interpreted evaluation); the ``cdcl_search`` strategy adds hard
  near-phase-transition random 3-CNF refutations (as negated terms
  over comparison atoms) where the flat-arena CDCL core's conflict
  analysis, not just propagation, carries the load;
* ``clause_db`` — learned-clause database management in isolation:
  the same hard UNSAT instances and a guarded lemma-accumulation
  loop solved with reduceDB off (reference) vs on (optimized), so
  the LBD-scored eviction policy's effect is measured directly;
* ``repeated_vc`` — the same conformance VCs discharged over and over,
  as vcgen and spec inference do across proof outlines (cross-call
  cache vs recomputation);
* ``dpllt_incremental`` — EUF formulas whose boolean abstraction has
  exponentially many models, all theory-inconsistent: the CDCL core's
  theory propagation refutes them mid-search (``models_blocked`` stays
  0) where the reference blocks model after model;
* ``difference_logic`` — order-atom VCs (transitivity chains, mixed
  equality/order chains, negated negative cycles) that the seed could
  only accept by bounded enumeration: the difference-logic propagator
  (PR 5) decides them in the CDCL core with zero blocked models, so
  acceptance is PROVED instead of BOUNDED (agreement on this axis is
  *acceptance* agreement — the strengthening is the point);
* ``spec_inference`` — the ROADMAP's spec-inference axis
  (``bench_inference.py`` workload): precondition + abstraction
  inference over catalogue specifications, cold caches vs warm caches
  (the repeated-discharge profile of a long-lived verifier process);
* ``incremental_vc`` — batches of structurally related VCs discharged
  fresh-per-VC vs through one shared
  :class:`repro.smt.session.SolverSession` (assumption-activated VCs
  over one clause database, retired after each query);
* ``fuzz_corpus`` — the promoted fuzz families
  (:mod:`repro.casestudies.generated`: session store, rate limiter,
  salary analytics) with the corpus size as the scaling parameter:
  empirical noninterference checking (cost grows with the inputs) vs
  static verification (cost is size-independent — the proof is over
  the spec); agreement here is the soundness contract the fuzzer
  enforces case by case.

Every timed formula is checked for *verdict agreement* between the two
paths; the JSON records per-case timings, per-workload speedups and the
agreement flag.  Run with ``--quick`` for a CI smoke pass and
``--compare BENCH_smt.json`` to print per-axis deltas against a
committed report (regressions become visible in the CI job log).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.lang.ast import Atomic, BinOp, If, Lit, Load, Seq, Store, Var  # noqa: E402
from repro.smt import (  # noqa: E402
    App,
    Const,
    INT,
    SymVar,
    check_validity,
    clear_all_caches,
    conj,
    disj,
    eq,
    implies,
    negate,
)
from repro.smt import reference  # noqa: E402
from repro.smt.cache import get_default  # noqa: E402

VALIDITY_CACHE = get_default()
from repro.smt.session import SolverSession  # noqa: E402
from repro.spec import Action, ResourceSpecification  # noqa: E402
from repro.spec.library import integer_add_spec  # noqa: E402
from repro.verifier.declarations import ResourceDecl  # noqa: E402
from repro.verifier.vcgen import CELL, conformance_vc, _spec_discharge_params  # noqa: E402
from repro.smt.sorts import Scope  # noqa: E402


# ---------------------------------------------------------------------------
# Workload formulas
# ---------------------------------------------------------------------------


def skeleton_formula(atoms: int, salt: str = ""):
    """bench_scaling's boolean-skeleton tautology: (a1 ∧ … ∧ ak) ⇒ a1,
    over ``<`` comparison atoms — heavy for enumeration, easy for DPLL."""
    comparisons = [
        App("<", (SymVar(f"x{salt}{i}", INT), SymVar(f"y{salt}{i}", INT)))
        for i in range(atoms)
    ]
    return implies(conj(*comparisons), comparisons[0])


def skeleton_chain(atoms: int, salt: str = ""):
    """A deeper tautology: ⋀(ai ⇒ ai+1) ∧ a0 ⇒ ak — propagation-heavy."""
    comparisons = [
        App("<", (SymVar(f"p{salt}{i}", INT), SymVar(f"q{salt}{i}", INT)))
        for i in range(atoms + 1)
    ]
    links = conj(*(implies(comparisons[i], comparisons[i + 1]) for i in range(atoms)))
    return implies(conj(links, comparisons[0]), comparisons[atoms])


def blocked_model_formula(pigeons: int, salt: str = ""):
    """An EUF pigeonhole: n pigeons into the two holes {y, z}, all
    pigeons pairwise distinct.  Propositionally satisfiable in 2^n ways,
    but *every* boolean model is theory-inconsistent (two pigeons always
    share a hole), so DPLL(T) must block its way to UNSAT — the workload
    that punishes re-propagating the growing clause list from zero."""
    xs = [SymVar(f"w{salt}{i}", INT) for i in range(pigeons)]
    y = SymVar(f"y{salt}", INT)
    z = SymVar(f"z{salt}", INT)
    parts = [disj(eq(x, y), eq(x, z)) for x in xs]
    parts.extend(
        negate(eq(xs[i], xs[j]))
        for i in range(pigeons)
        for j in range(i + 1, pigeons)
    )
    return conj(*parts)


def hard_cnf_clauses(variables: int, seed: int, ratio: float = 4.6):
    """A seeded random 3-CNF at the hard clause/variable ratio (~4.3 is
    the phase transition; 4.6 lands reliably UNSAT with a non-trivial
    refutation).  These instances force genuine CDCL search — thousands
    of conflicts, deep backjumps, a growing learned-clause DB."""
    import random as _random

    rng = _random.Random(seed)
    clauses = []
    for _ in range(int(variables * ratio)):
        chosen = rng.sample(range(1, variables + 1), 3)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in chosen)
        )
    return clauses


def hard_cnf_formula(variables: int, seed: int, salt: str = ""):
    """The refutation of :func:`hard_cnf_clauses` as a term: ¬⋀clauses
    over independent ``<`` comparison atoms.  Valid iff the CNF is
    UNSAT, and every atom pair is theory-free, so both paths decide it
    purely by propositional search — a direct head-to-head between the
    recursive reference DPLL and the flat-arena CDCL core."""
    atoms = {
        v: App("<", (SymVar(f"h{salt}x{v}", INT), SymVar(f"h{salt}y{v}", INT)))
        for v in range(1, variables + 1)
    }
    clause_terms = [
        disj(*(atoms[l] if l > 0 else negate(atoms[-l]) for l in clause))
        for clause in hard_cnf_clauses(variables, seed)
    ]
    # Balanced conjunction: ``conj`` nests left-associatively, and a
    # 600-clause chain overflows the recursive simplifier/compiler.
    while len(clause_terms) > 1:
        clause_terms = [
            App("and", (clause_terms[i], clause_terms[i + 1]))
            if i + 1 < len(clause_terms)
            else clause_terms[i]
            for i in range(0, len(clause_terms), 2)
        ]
    return negate(clause_terms[0])


def conformance_vcs():
    """Real conformance VCs from the verifier pipeline: an increment
    body against IntegerAdd, and a branching max body against IntegerMax."""
    incr_body = Seq(
        Load("t", Var("c")), Store(Var("c"), BinOp("+", Var("t"), Lit(1)))
    )
    incr = Atomic(incr_body, action="Add", argument=Lit(1))
    add_decl = ResourceDecl("IntegerAdd", integer_add_spec(), "c")

    max_spec = ResourceSpecification(
        name="IntegerMax",
        abstraction=lambda value: value,
        actions=(Action.shared("Max", lambda value, m: value if value > m else m),),
        initial_value=0,
        value_domain=tuple(range(-2, 4)),
        arg_domains={"Max": tuple(range(-2, 4))},
    )
    max_body = Seq(
        Load("t", Var("c")),
        If(
            BinOp(">", Var("m"), Var("t")),
            Store(Var("c"), Var("m")),
            Store(Var("c"), Var("t")),
        ),
    )
    maxi = Atomic(max_body, action="Max", argument=Var("m"))
    max_decl = ResourceDecl("IntegerMax", max_spec, "c")

    cases = []
    for decl, atomic in ((add_decl, incr), (max_decl, maxi)):
        vc = conformance_vc(decl, atomic)
        extra_ints, cell_sort = _spec_discharge_params(decl.spec)
        scope = Scope().widen(extra_ints)
        sorts = {CELL: cell_sort}
        cases.append((f"{decl.name}/{vc.action}", vc.formula, scope, sorts))
    return cases


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def bench_boolean_skeleton(quick: bool):
    sat_sizes = (8, 120) if quick else (8, 20, 60, 160, 320)
    enum_sizes = (2,) if quick else (2, 3)
    cdcl_sizes = (60,) if quick else (100, 120, 140)
    base_reps = 1 if quick else 3
    cases = []
    for use_sat, sizes, strategy in (
        (True, sat_sizes, "dpll_fast_path"),
        (False, enum_sizes, "bounded_enumeration"),
        (True, cdcl_sizes, "cdcl_search"),
    ):
        # Hard refutations take seconds on the reference path; one rep
        # is plenty (the instance is seeded, not timing-noise-sized).
        reps = 1 if strategy == "cdcl_search" else base_reps
        for atoms in sizes:
            ref_total = new_total = 0.0
            agree = True
            verdict = None
            for rep in range(reps):
                # Distinct variable names per repetition: every run pays
                # the full cold path (no intern/memo reuse across reps).
                salt = f"s{strategy}{atoms}r{rep}_"
                if strategy == "cdcl_search":
                    build = lambda n, s: hard_cnf_formula(n, seed=0, salt=s)
                elif use_sat and atoms >= 20:
                    build = skeleton_chain
                else:
                    build = skeleton_formula
                formula = build(atoms, salt)
                ref_elapsed, ref_result = timed(
                    reference.check_validity_reference, formula, use_sat=use_sat
                )
                clear_all_caches()
                formula = build(atoms, salt)
                new_elapsed, new_result = timed(
                    check_validity, formula, use_sat=use_sat
                )
                ref_total += ref_elapsed
                new_total += new_elapsed
                agree = agree and (ref_result.verdict == new_result.verdict)
                verdict = new_result.verdict.value
            cases.append(
                {
                    "strategy": strategy,
                    "atoms": atoms,
                    "reference_s": round(ref_total / reps, 6),
                    "optimized_s": round(new_total / reps, 6),
                    "speedup": round(ref_total / new_total, 2) if new_total else None,
                    "verdict": verdict,
                    "verdicts_agree": agree,
                }
            )
    return cases


def bench_clause_db(quick: bool):
    """Learned-clause DB management in isolation: identical instances
    solved by :class:`~repro.smt.dpll.WatchedSolver` with reduceDB off
    (reference) vs on (optimized).

    Two workload shapes:

    * ``hard_unsat`` — seeded near-phase-transition 3-CNF refutations
      where search learns thousands of clauses; without eviction every
      one of them stays on the watch lists until the end;
    * ``lemma_accumulation`` — the session profile: activation-guarded
      hard queries stacked on one shared solver without retirement, so
      stale lemmas from earlier queries bloat later ones.

    Agreement here is *verdict* agreement between the two configurations
    (the eviction policy must never flip SAT/UNSAT), and the per-case
    stats expose what the policy actually did (reductions fired, live
    learned clauses at the end).
    """
    from repro.smt.dpll import WatchedSolver

    hard = ((140, (0,)),) if quick else ((185, (0, 1, 2)),)
    cases = []
    for variables, seeds in hard:
        for seed in seeds:
            clauses = hard_cnf_clauses(variables, seed)
            row = {}
            for label, flag in (("reference", False), ("optimized", True)):
                solver = WatchedSolver(clauses, reduce_db=flag)
                elapsed, model = timed(solver.solve)
                stats = solver.clause_db_stats()
                row[label] = {
                    "elapsed": elapsed,
                    "unsat": model is None,
                    "conflicts": solver.conflicts,
                    "live_learned": stats["live_learned"],
                    "reductions": stats["reductions"],
                }
            cases.append(
                {
                    "workload": "hard_unsat",
                    "variables": variables,
                    "seed": seed,
                    "reference_s": round(row["reference"]["elapsed"], 6),
                    "optimized_s": round(row["optimized"]["elapsed"], 6),
                    "speedup": round(
                        row["reference"]["elapsed"] / row["optimized"]["elapsed"], 2
                    )
                    if row["optimized"]["elapsed"]
                    else None,
                    "reference_live_learned": row["reference"]["live_learned"],
                    "optimized_live_learned": row["optimized"]["live_learned"],
                    "reductions": row["optimized"]["reductions"],
                    "verdicts_agree": row["reference"]["unsat"]
                    == row["optimized"]["unsat"],
                }
            )

    queries, variables = (4, 90) if quick else (8, 120)
    row = {}
    for label, flag in (("reference", False), ("optimized", True)):
        solver = WatchedSolver(reduce_db=flag)
        total = 0.0
        verdicts = []
        for query in range(queries):
            guard = 10_000 + query
            for clause in hard_cnf_clauses(variables, seed=100 + query, ratio=4.5):
                solver.add_clause(tuple(list(clause) + [-guard]))
            elapsed, model = timed(solver.solve, [guard])
            total += elapsed
            verdicts.append(model is None)
        stats = solver.clause_db_stats()
        row[label] = {
            "elapsed": total,
            "verdicts": verdicts,
            "live_learned": stats["live_learned"],
            "reductions": stats["reductions"],
        }
    cases.append(
        {
            "workload": "lemma_accumulation",
            "variables": variables,
            "queries": queries,
            "reference_s": round(row["reference"]["elapsed"], 6),
            "optimized_s": round(row["optimized"]["elapsed"], 6),
            "speedup": round(
                row["reference"]["elapsed"] / row["optimized"]["elapsed"], 2
            )
            if row["optimized"]["elapsed"]
            else None,
            "reference_live_learned": row["reference"]["live_learned"],
            "optimized_live_learned": row["optimized"]["live_learned"],
            "reductions": row["optimized"]["reductions"],
            "verdicts_agree": row["reference"]["verdicts"]
            == row["optimized"]["verdicts"],
        }
    )
    return cases


def bench_repeated_vc(quick: bool):
    repeats = 10 if quick else 40
    cases = []
    for name, formula, scope, sorts in conformance_vcs():
        ref_total = 0.0
        ref_verdicts = []
        for _ in range(repeats):
            elapsed, result = timed(
                reference.check_validity_reference, formula, scope=scope, sorts=sorts
            )
            ref_total += elapsed
            ref_verdicts.append(result.verdict)
        clear_all_caches()
        new_total = 0.0
        new_verdicts = []
        for _ in range(repeats):
            elapsed, result = timed(
                check_validity, formula, scope=scope, sorts=sorts
            )
            new_total += elapsed
            new_verdicts.append(result.verdict)
        cases.append(
            {
                "vc": name,
                "repeats": repeats,
                "reference_s": round(ref_total, 6),
                "optimized_s": round(new_total, 6),
                "speedup": round(ref_total / new_total, 2) if new_total else None,
                "verdict": new_verdicts[0].value,
                "verdicts_agree": ref_verdicts == new_verdicts,
                "cache_hits": VALIDITY_CACHE.hits,
            }
        )
    return cases


def session_dpllt(formula):
    """DPLL(T) on ``formula`` through a fresh SolverSession: its
    satisfiability (None when undecided) and the session's counters."""
    session = SolverSession()
    valid = session.theory_valid(negate(formula))
    return (None if valid is None else not valid), session.stats()


def bench_dpllt_incremental(quick: bool):
    sizes = (5,) if quick else (6, 7)
    cases = []
    for chains in sizes:
        formula = blocked_model_formula(chains, salt=f"ref{chains}_")
        ref_elapsed, ref_result = timed(reference.dpllt_equality_reference, formula)
        clear_all_caches()
        formula = blocked_model_formula(chains, salt=f"ref{chains}_")
        new_elapsed, (new_satisfiable, new_stats) = timed(session_dpllt, formula)
        cases.append(
            {
                "chains": chains,
                "reference_s": round(ref_elapsed, 6),
                "optimized_s": round(new_elapsed, 6),
                "speedup": round(ref_elapsed / new_elapsed, 2) if new_elapsed else None,
                "reference_blocked": ref_result.models_blocked,
                "optimized_blocked": new_stats["models_blocked"],
                "theory_propagations": new_stats["theory_propagations"],
                "verdicts_agree": ref_result.satisfiable == new_satisfiable,
            }
        )
    return cases


def order_chain_formula(links: int, salt: str = ""):
    """⋀ xi <= xi+1 ⇒ x0 <= xn — valid only through order reasoning
    (not propositionally), so the seed must enumerate 6^(links+1)
    assignments while the difference-logic propagator proves it."""
    xs = [SymVar(f"oc{salt}{i}", INT) for i in range(links + 1)]
    body = conj(*(App("<=", (xs[i], xs[i + 1])) for i in range(links)))
    return implies(body, App("<=", (xs[0], xs[links])))


def mixed_chain_formula(links: int, salt: str = ""):
    """Alternating ==/<= links: the equality and difference propagators
    must cooperate through the shared trail to prove the conclusion."""
    xs = [SymVar(f"mc{salt}{i}", INT) for i in range(links + 1)]
    parts = [
        eq(xs[i], xs[i + 1]) if i % 2 == 0 else App("<=", (xs[i], xs[i + 1]))
        for i in range(links)
    ]
    return implies(conj(*parts), App("<=", (xs[0], xs[links])))


def negated_cycle_formula(size: int, salt: str = ""):
    """¬(x0 < x1 < … < x0): valid because the cycle is a negative cycle
    in the difference graph — one theory conflict for the CDCL core."""
    xs = [SymVar(f"nc{salt}{i}", INT) for i in range(size)]
    cycle = conj(*(App("<", (xs[i], xs[(i + 1) % size])) for i in range(size)))
    return negate(cycle)


def bench_difference_logic(quick: bool):
    """The mixed-fragment axis (PR 5 tentpole): order-atom VCs decided
    by difference-logic theory propagation vs the seed's enumeration.

    The optimized core *soundly strengthens* these verdicts (PROVED
    where the seed bounds out), so ``verdicts_agree`` on this axis
    records acceptance agreement plus the absence of blocked models."""
    families = (
        (("order_chain", order_chain_formula, 4),)
        if quick
        else (
            ("order_chain", order_chain_formula, 5),
            ("order_chain", order_chain_formula, 7),
            ("mixed_chain", mixed_chain_formula, 6),
            ("negated_cycle", negated_cycle_formula, 6),
        )
    )
    cases = []
    for name, build, size in families:
        salt = f"{name}{size}_"
        formula = build(size, salt)
        ref_elapsed, ref_result = timed(
            reference.check_validity_reference, formula
        )
        clear_all_caches()
        formula = build(size, salt)
        new_elapsed, new_result = timed(check_validity, formula, use_cache=False)
        # The pure-DL refutation of the negated formula must never fall
        # back to model blocking (a None verdict — budget exhaustion —
        # counts as disagreement rather than crashing the run).
        satisfiable, stats = session_dpllt(negate(build(size, f"blk{salt}")))
        blocked = stats["models_blocked"] if satisfiable is not None else None
        refuted = satisfiable is False
        agree = (
            new_result.is_valid() == ref_result.is_valid()
            and blocked == 0
            and refuted
        )
        cases.append(
            {
                "family": name,
                "size": size,
                "reference_s": round(ref_elapsed, 6),
                "optimized_s": round(new_elapsed, 6),
                "speedup": round(ref_elapsed / new_elapsed, 2)
                if new_elapsed
                else None,
                "reference_verdict": ref_result.verdict.value,
                "optimized_verdict": new_result.verdict.value,
                "optimized_blocked": blocked,
                "verdicts_agree": agree,
            }
        )
    return cases


def bench_spec_inference(quick: bool):
    """The ROADMAP's spec-inference axis: infer preconditions and the
    finest valid abstraction for catalogue specs, cold vs warm caches."""
    from repro.spec.inference import infer_abstraction, infer_preconditions
    from repro.spec.library import (
        counter_increment_spec,
        integer_add_spec,
        list_append_multiset_spec,
        map_put_keyset_spec,
        set_add_spec,
    )

    factories = (
        (counter_increment_spec, integer_add_spec)
        if quick
        else (
            counter_increment_spec,
            integer_add_spec,
            set_add_spec,
            map_put_keyset_spec,
            list_append_multiset_spec,
        )
    )

    def run(spec):
        preconditions = infer_preconditions(spec)
        abstraction = infer_abstraction(spec)
        fingerprint = (
            preconditions.found,
            tuple(
                (entry.action, tuple(entry.low_projections))
                for entry in preconditions.preconditions
            ),
            abstraction.finest.name if abstraction.finest else None,
        )
        return fingerprint

    cases = []
    for factory in factories:
        spec = factory()
        clear_all_caches()
        cold_elapsed, cold = timed(run, spec)
        warm_elapsed, warm = timed(run, spec)
        cases.append(
            {
                "spec": spec.name,
                "reference_s": round(cold_elapsed, 6),
                "optimized_s": round(warm_elapsed, 6),
                "speedup": round(cold_elapsed / warm_elapsed, 2)
                if warm_elapsed
                else None,
                "finest_abstraction": cold[2],
                "verdicts_agree": cold == warm,
            }
        )
    return cases


def related_skeleton_family(count, width, salt=""):
    """Structurally related VCs: one big shared conjunction, a per-VC
    conclusion — the repeated-structure profile of a proof outline."""
    atoms = [
        App("<", (SymVar(f"iv{salt}{j}", INT), SymVar(f"jv{salt}{j}", INT)))
        for j in range(width)
    ]
    shared = conj(*atoms)
    return [implies(shared, atoms[i % width]) for i in range(count)]


def related_euf_family(count, width, salt=""):
    """Related EUF VCs: a shared equality chain entails each link's
    transitive consequence."""
    xs = [SymVar(f"ev{salt}{j}", INT) for j in range(width + 1)]
    chain = conj(*(eq(xs[j], xs[j + 1]) for j in range(width)))
    return [implies(chain, eq(xs[0], xs[i % width + 1])) for i in range(count)]


def bench_incremental_vc(quick):
    """Fresh solver per VC vs one shared SolverSession (the tentpole):
    assumption-activated VCs over one clause database, learned clauses
    and Tseitin definitions shared, activation literals retired."""
    families = (
        (("skeleton", 12, 48),)
        if quick
        else (
            ("skeleton", 40, 120),
            ("skeleton_wide", 24, 320),
            ("euf_chain", 30, 20),
        )
    )

    def build(kind, count, width, salt):
        if kind.startswith("skeleton"):
            return related_skeleton_family(count, width, salt)
        return related_euf_family(count, width, salt)

    def run_fresh(formulas):
        return [check_validity(f, use_cache=False) for f in formulas]

    def run_session(formulas):
        session = SolverSession()
        return (
            [check_validity(f, use_cache=False, session=session) for f in formulas],
            session,
        )

    cases = []
    for kind, count, width, in families:
        salt = f"{kind}{count}x{width}_"
        clear_all_caches()
        formulas = build(kind, count, width, salt)
        fresh_elapsed, fresh_results = timed(run_fresh, formulas)
        clear_all_caches()
        formulas = build(kind, count, width, salt)
        session_elapsed, (session_results, session) = timed(run_session, formulas)
        agree = all(
            a.verdict == b.verdict and a.model == b.model
            for a, b in zip(fresh_results, session_results)
        )
        stats = session.stats()
        cases.append(
            {
                "family": kind,
                "vcs": count,
                "width": width,
                "reference_s": round(fresh_elapsed, 6),
                "optimized_s": round(session_elapsed, 6),
                "speedup": round(fresh_elapsed / session_elapsed, 2)
                if session_elapsed
                else None,
                "verdict": fresh_results[0].verdict.value,
                "verdicts_agree": agree,
                "definition_hits": stats["definition_hits"],
                "retired_clauses": stats["retired_clauses"],
                "live_clauses": stats["live_clauses"],
            }
        )
    return cases


def bench_fuzz_corpus(quick):
    """The fuzz-corpus axis (promoted generated families): static
    verification vs empirical noninterference checking with the corpus
    size ``n`` as the scaling parameter.  The empirical (reference) cost
    grows with the input size — more loop iterations per execution and
    longer traces per schedule — while the verifier (optimized) cost is
    essentially size-independent: the proof is over the *spec*, not the
    inputs.  ``verdicts_agree`` is the soundness contract on this axis:
    every verified case must also be empirically noninterferent."""
    from repro.casestudies.generated import GENERATED_FAMILIES
    from repro.security.noninterference import check_sampled

    sizes = (4,) if quick else (4, 8, 12)
    schedules = 4 if quick else 8

    def check_groups(program, groups):
        """Sampled Def. 2.1 over every group: (secure, executions)."""
        executions = 0
        for variants in groups:
            report = check_sampled(program, variants, schedules=schedules, seed=0)
            executions += report.executions_checked
            if not report.secure:
                return False, executions
        return True, executions

    cases = []
    session = SolverSession()
    for family, factory in sorted(GENERATED_FAMILIES.items()):
        for n in sizes:
            case = factory(n)
            empirical_elapsed, (secure, executions) = timed(
                check_groups, case.program(), case.instances()
            )
            verify_elapsed, result = timed(case.verify, session=session)
            cases.append(
                {
                    "family": family,
                    "case": case.name,
                    "corpus_size": n,
                    "reference_s": round(empirical_elapsed, 6),
                    "optimized_s": round(verify_elapsed, 6),
                    "speedup": round(empirical_elapsed / verify_elapsed, 2)
                    if verify_elapsed
                    else None,
                    "verified": result.verified,
                    "empirical_secure": secure,
                    "executions": executions,
                    "verdicts_agree": result.verified and secure,
                }
            )
    return cases


def summarize(cases):
    ref = sum(case["reference_s"] for case in cases)
    new = sum(case["optimized_s"] for case in cases)
    return {
        "reference_s": round(ref, 6),
        "optimized_s": round(new, 6),
        "speedup": round(ref / new, 2) if new else None,
        "verdicts_agree": all(case["verdicts_agree"] for case in cases),
    }


def print_deltas(committed, report):
    """Per-axis deltas of the fresh report against a committed one, so a
    regression is visible directly in the CI job log."""
    print("== per-axis deltas vs committed report ==")
    if committed.get("quick") != report.get("quick"):
        print(
            "  (note: case sizes differ — committed quick="
            f"{committed.get('quick')}, current quick={report.get('quick')}; "
            "deltas are indicative, not like-for-like)"
        )
    for name, workload in report["workloads"].items():
        old = committed.get("workloads", {}).get(name)
        if old is None:
            print(f"  {name:>20s}: new axis (no committed numbers)")
            continue
        old_speedup = old.get("speedup")
        new_speedup = workload.get("speedup")
        line = f"  {name:>20s}: speedup x{old_speedup} -> x{new_speedup}"
        if old_speedup and new_speedup:
            line += f"  ({new_speedup / old_speedup - 1.0:+.0%})"
        print(line)
        if name in ("dpllt_incremental", "difference_logic"):
            old_blocked = sum(
                case.get("optimized_blocked") or 0 for case in old.get("cases", ())
            )
            new_blocked = sum(
                case.get("optimized_blocked") or 0 for case in workload["cases"]
            )
            print(
                f"  {'':>20s}  models_blocked {old_blocked} -> {new_blocked}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_smt.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--compare",
        default=None,
        help="committed BENCH_smt.json to print per-axis deltas against",
    )
    args = parser.parse_args(argv)

    output = Path(args.output)
    if not output.parent.is_dir():
        parser.error(f"--output directory does not exist: {output.parent}")
    committed = None
    if args.compare:
        compare_path = Path(args.compare)
        if compare_path.is_file():
            # Read up front: --output may overwrite the same file.
            committed = json.loads(compare_path.read_text())
        else:
            print(f"(no committed report at {compare_path}: deltas skipped)")

    workloads = {}
    print("== boolean_skeleton (solver-strategy axis) ==")
    cases = bench_boolean_skeleton(args.quick)
    workloads["boolean_skeleton"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['strategy']:>20s} atoms={case['atoms']:<3d} "
            f"ref {case['reference_s'] * 1000:8.2f} ms  "
            f"opt {case['optimized_s'] * 1000:8.2f} ms  "
            f"x{case['speedup']:<6}  agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['boolean_skeleton']['speedup']}")

    print("== clause_db (reduceDB off vs on) ==")
    cases = bench_clause_db(args.quick)
    workloads["clause_db"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['workload']:>20s} vars={case['variables']:<4d} "
            f"off {case['reference_s'] * 1000:8.2f} ms ({case['reference_live_learned']} live)  "
            f"on {case['optimized_s'] * 1000:8.2f} ms ({case['optimized_live_learned']} live, "
            f"{case['reductions']} reductions)  "
            f"x{case['speedup']:<6}  agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['clause_db']['speedup']}")

    print("== repeated_vc (cross-call cache) ==")
    cases = bench_repeated_vc(args.quick)
    workloads["repeated_vc"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['vc']:>20s} x{case['repeats']:<3d} "
            f"ref {case['reference_s'] * 1000:8.2f} ms  "
            f"opt {case['optimized_s'] * 1000:8.2f} ms  "
            f"x{case['speedup']:<6}  agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['repeated_vc']['speedup']}")

    print("== dpllt_incremental (theory propagation vs blocked models) ==")
    cases = bench_dpllt_incremental(args.quick)
    workloads["dpllt_incremental"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  chains={case['chains']:<2d} "
            f"ref {case['reference_s'] * 1000:8.2f} ms ({case['reference_blocked']} blocked)  "
            f"opt {case['optimized_s'] * 1000:8.2f} ms ({case['optimized_blocked']} blocked, "
            f"{case['theory_propagations']} propagated)  "
            f"x{case['speedup']:<6}  agree={case['verdicts_agree']}"
        )

    print("== difference_logic (theory propagation vs enumeration) ==")
    cases = bench_difference_logic(args.quick)
    workloads["difference_logic"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['family']:>16s} size={case['size']:<2d} "
            f"ref {case['reference_s'] * 1000:8.2f} ms ({case['reference_verdict']})  "
            f"opt {case['optimized_s'] * 1000:8.2f} ms ({case['optimized_verdict']}, "
            f"{case['optimized_blocked']} blocked)  "
            f"x{case['speedup']:<8}  agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['difference_logic']['speedup']}")

    print("== spec_inference (cold vs warm caches) ==")
    cases = bench_spec_inference(args.quick)
    workloads["spec_inference"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['spec']:>20s} "
            f"cold {case['reference_s'] * 1000:8.2f} ms  "
            f"warm {case['optimized_s'] * 1000:8.2f} ms  "
            f"x{case['speedup']:<6}  α={case['finest_abstraction']}  "
            f"agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['spec_inference']['speedup']}")

    print("== incremental_vc (fresh solver per VC vs shared session) ==")
    cases = bench_incremental_vc(args.quick)
    workloads["incremental_vc"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['family']:>16s} vcs={case['vcs']:<3d} width={case['width']:<4d} "
            f"fresh {case['reference_s'] * 1000:8.2f} ms  "
            f"session {case['optimized_s'] * 1000:8.2f} ms  "
            f"x{case['speedup']:<6}  defs_reused={case['definition_hits']}  "
            f"agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['incremental_vc']['speedup']}")

    print("== fuzz_corpus (promoted generated families, scaling corpus size) ==")
    cases = bench_fuzz_corpus(args.quick)
    workloads["fuzz_corpus"] = {"cases": cases, **summarize(cases)}
    for case in cases:
        print(
            f"  {case['family']:>20s} n={case['corpus_size']:<3d} "
            f"empirical {case['reference_s'] * 1000:8.2f} ms ({case['executions']}x)  "
            f"verify {case['optimized_s'] * 1000:8.2f} ms  "
            f"x{case['speedup']:<8}  agree={case['verdicts_agree']}"
        )
    print(f"  overall: x{workloads['fuzz_corpus']['speedup']}")

    report = {
        "benchmark": (
            "smt-core: interning + compiled evaluation + flat-arena CDCL"
            " + learned-clause DB management + theory propagation + cache"
        ),
        "quick": args.quick,
        "workloads": workloads,
        "summary": {
            "boolean_skeleton_speedup": workloads["boolean_skeleton"]["speedup"],
            "clause_db_speedup": workloads["clause_db"]["speedup"],
            "clause_db_reductions": sum(
                case["reductions"] for case in workloads["clause_db"]["cases"]
            ),
            "repeated_vc_speedup": workloads["repeated_vc"]["speedup"],
            "dpllt_incremental_speedup": workloads["dpllt_incremental"]["speedup"],
            "difference_logic_speedup": workloads["difference_logic"]["speedup"],
            "difference_logic_models_blocked": sum(
                case["optimized_blocked"] or 0
                for case in workloads["difference_logic"]["cases"]
            ),
            "spec_inference_speedup": workloads["spec_inference"]["speedup"],
            "incremental_vc_speedup": workloads["incremental_vc"]["speedup"],
            "fuzz_corpus_speedup": workloads["fuzz_corpus"]["speedup"],
            "dpllt_models_blocked": sum(
                case["optimized_blocked"]
                for case in workloads["dpllt_incremental"]["cases"]
            ),
            "all_verdicts_agree": all(
                w["verdicts_agree"] for w in workloads.values()
            ),
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    if committed is not None:
        print_deltas(committed, report)

    ok = report["summary"]["all_verdicts_agree"]
    if not ok:
        print("FAIL: verdict mismatch between optimized and reference core")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
