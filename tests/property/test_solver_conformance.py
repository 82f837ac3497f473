"""Solver conformance suite: the flat-arena CDCL core vs the seed oracle.

The arena rewrite of :class:`repro.smt.dpll.WatchedSolver` re-implements
the soundness-critical hot loop (propagation, conflict analysis, clause
learning) over packed int arrays, and adds three independently toggleable
search features: Luby restarts, LBD-scored reduceDB, and recursive
conflict-clause minimization.  This suite pins the new core to the
retained seed solver (:mod:`repro.smt.reference`) across **every**
on/off combination of those features, on two instance distributions:

* random ≤3-CNF (dense enough to hit both verdicts and to force real
  conflict analysis);
* Tseitin CNFs of random boolean terms (the skeleton distribution the
  verifier actually feeds the solver), checked end-to-end through
  a fresh :class:`repro.smt.session.SolverSession` / the reference's
  ``cnf_of_reference``.

Checked contracts, per configuration:

* **verdict agreement** — SAT/UNSAT exactly matches the reference;
* **model validity** — returned (partial) models satisfy every input
  clause, either outright or via an unconstrained variable;
* **learned-clause implication** — every live learned clause, and every
  learned root-level unit, is implied by the input (its negation plus
  the input is UNSAT by a fresh reference solve);
* **database integrity** — :meth:`WatchedSolver.db_check` holds after
  the solve (watch lists, trail reasons, polarity consistency).

A fixed-seed deterministic leg (``TestFixedSeedConformance``) re-runs
the differential on a frozen instance set so the CI tier-1 job exercises
it without hypothesis' randomized exploration.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import reference
from repro.smt.dpll import WatchedSolver
from repro.smt.session import SolverSession
from repro.smt.solver import check_validity
from repro.smt.sorts import BOOL
from repro.smt.terms import App, Const, SymVar

#: Every on/off combination of the three search features; reduce_floor
#: is pinned low so reduceDB actually fires on these small instances.
CONFIGS = [
    {"restarts": restarts, "reduce_db": reduce_db, "minimize": minimize}
    for restarts, reduce_db, minimize in itertools.product(
        (True, False), repeat=3
    )
]


def _config_id(config):
    return "".join(
        ("R" if config["restarts"] else "r")
        + ("D" if config["reduce_db"] else "d")
        + ("M" if config["minimize"] else "m")
    )


def _make_solver(clauses, config):
    kwargs = dict(config)
    if kwargs.get("reduce_db"):
        kwargs["reduce_floor"] = 2  # force reductions on small instances
    return WatchedSolver(clauses, **kwargs)


def _assert_model_valid(clauses, model):
    for clause in clauses:
        satisfied = any(
            model.get(abs(literal), None) == (literal > 0)
            or abs(literal) not in model
            for literal in clause
        )
        assert satisfied, f"clause {clause} unsatisfied by shrunk model {model}"


def _assert_learned_implied(clauses, solver):
    for clause in solver.live_learned_clauses():
        negated_units = [(-literal,) for literal in clause]
        assert (
            reference.dpll_reference(list(clauses) + negated_units) is None
        ), f"learned clause {clause} not implied by {clauses}"
    if not solver._unsat:
        for literal in solver._units:
            assert (
                reference.dpll_reference(list(clauses) + [(-literal,)]) is None
            ), f"learned unit {literal} not implied by {clauses}"


def _differential(clauses, config):
    solver = _make_solver(clauses, config)
    model = solver.solve()
    oracle = reference.dpll_reference([list(c) for c in clauses], {})
    assert (model is None) == (oracle is None), (
        f"verdict drift under {config}: arena "
        f"{'UNSAT' if model is None else 'SAT'}, reference "
        f"{'UNSAT' if oracle is None else 'SAT'} on {clauses}"
    )
    if model is not None:
        _assert_model_valid(clauses, model)
    _assert_learned_implied(clauses, solver)
    solver.db_check()


# ---------------------------------------------------------------------------
# Randomized legs (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def cnf_instances(draw):
    """Random ≤3-CNF over at most 8 variables (dense enough for UNSAT)."""
    variable_count = draw(st.integers(min_value=1, max_value=8))
    clause_count = draw(st.integers(min_value=1, max_value=28))
    clauses = []
    for _ in range(clause_count):
        width = draw(st.integers(min_value=1, max_value=min(3, variable_count)))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=variable_count),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        clauses.append(
            tuple(
                variable if draw(st.booleans()) else -variable
                for variable in variables
            )
        )
    return clauses


@st.composite
def boolean_terms(draw, depth=4):
    """Random boolean terms over a handful of opaque boolean atoms."""
    atoms = [SymVar(name, BOOL) for name in ("p", "q", "r", "s")]
    if depth == 0:
        choice = draw(st.integers(min_value=0, max_value=len(atoms)))
        if choice == len(atoms):
            return Const(draw(st.booleans()))
        return atoms[choice]
    op = draw(st.sampled_from(("and", "or", "not", "implies", "atom")))
    if op == "atom":
        return atoms[draw(st.integers(min_value=0, max_value=len(atoms) - 1))]
    if op == "not":
        return App("not", (draw(boolean_terms(depth=depth - 1)),))
    arity = 2 if op in ("implies",) else draw(st.integers(2, 3))
    return App(
        op, tuple(draw(boolean_terms(depth=depth - 1)) for _ in range(arity))
    )


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
class TestRandomCNFConformance:
    @given(cnf_instances())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_reference(self, config, clauses):
        _differential(clauses, config)


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
class TestTseitinConformance:
    @given(boolean_terms())
    @settings(max_examples=25, deadline=None)
    def test_sat_of_random_terms(self, config, term):
        """End-to-end through Tseitin: session verdict vs the reference's
        cnf + recursive DPLL, under every feature combination (the
        configured solver is driven on the reference's clause set so the
        encodings are comparable clause-for-clause)."""
        clauses, _table, root = reference.tseitin_reference(term)
        full = list(clauses) + [(root,)]
        _differential(full, config)
        # And the production entry point (polarity-aware encoding) must
        # agree on satisfiability with the reference encoding.
        unsatisfiable = SolverSession().propositionally_valid(App("not", (term,)))
        oracle = reference.dpll_reference([list(c) for c in full], {})
        assert unsatisfiable == (oracle is None)


# ---------------------------------------------------------------------------
# Fixed-seed deterministic leg (wired into CI tier-1)
# ---------------------------------------------------------------------------


def _random_cnf(rng, variable_count, clause_count):
    clauses = []
    for _ in range(clause_count):
        width = rng.randint(1, 3)
        variables = rng.sample(
            range(1, variable_count + 1), min(width, variable_count)
        )
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in variables)
        )
    return clauses


def _fixed_instances():
    """A frozen instance set: seeded random CNFs plus crafted corners
    (pigeonholes for real conflict-analysis depth, chains for long
    propagation, an empty-ish and a unit-heavy instance)."""
    rng = random.Random(20260808)
    instances = [
        _random_cnf(rng, rng.randint(2, 9), rng.randint(3, 30))
        for _ in range(30)
    ]

    def pigeonhole(pigeons, holes):
        clauses = [
            tuple(p * holes + h + 1 for h in range(holes))
            for p in range(pigeons)
        ]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append(
                        (-(p1 * holes + h + 1), -(p2 * holes + h + 1))
                    )
        return clauses

    instances.append(pigeonhole(4, 3))  # UNSAT, needs genuine learning
    instances.append(pigeonhole(4, 4))  # SAT, a perfect matching exists
    instances.append([(i, -(i + 1)) for i in range(1, 40)] + [(40,), (-1,)])
    instances.append([(1,), (-1, 2), (-2, 3), (-3,)])  # unit chain to UNSAT
    return instances


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_fixed_seed_conformance(config):
    for clauses in _fixed_instances():
        _differential(clauses, config)


def test_fixed_seed_incremental_conformance():
    """Assumption/retire sequences on a frozen schedule: the incremental
    solver's verdict after each activate/solve/retire step must match a
    fresh reference solve of the live clause set plus assumption units."""
    rng = random.Random(987)
    for config in CONFIGS:
        solver = _make_solver([], config)
        # The oracle solves the clauses *as added* — solver-side
        # introspection would miss root-level contradictions the solver
        # resolves at add time.
        base = _random_cnf(rng, 6, 14)
        for clause in base:
            solver.add_clause(clause)
        for step in range(6):
            activation = 50 + step
            mark = solver.clause_mark()
            guarded = [
                tuple(list(c) + [-activation])
                for c in _random_cnf(rng, 6, rng.randint(1, 6))
            ]
            for clause in guarded:
                solver.add_clause(clause)
            model = solver.solve([activation])
            oracle = reference.dpll_reference(
                [list(c) for c in base]
                + [list(c) for c in guarded]
                + [[activation]]
            )
            assert (model is None) == (oracle is None), (
                f"incremental drift at step {step} under {config}"
            )
            solver.retire(activation, since=mark)
            solver.db_check()
        # After all retirements the original instance's verdict is intact.
        model = solver.solve()
        oracle = reference.dpll_reference([list(c) for c in base])
        assert (model is None) == (oracle is None)


def test_fixed_seed_validity_smoke():
    """A handful of boolean tautologies/non-tautologies through the full
    check_validity pipeline (sanity that the arena core composes)."""
    p, q = SymVar("p", BOOL), SymVar("q", BOOL)
    assert check_validity(App("or", (p, App("not", (p,))))).is_valid()
    assert check_validity(
        App("implies", (App("and", (p, q)), p))
    ).is_valid()
    assert not check_validity(App("implies", (p, q))).is_valid()
