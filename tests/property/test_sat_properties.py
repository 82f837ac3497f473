"""Property-based validation of the SAT/EUF layer against brute force."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.cnf import cnf_of, to_nnf
from repro.smt.dpll import WatchedSolver
from repro.smt.euf import congruence_closure_consistent
from repro.smt.session import SolverSession
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import App, Const, SymVar, evaluate_term, free_symvars, negate

BOOL_VARS = [SymVar(name, BOOL) for name in ("a", "b", "c", "d")]


@st.composite
def bool_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(BOOL_VARS + [Const(True), Const(False)]))
    op = draw(st.sampled_from(["and", "or", "not", "implies"]))
    if op == "not":
        return App("not", (draw(bool_terms(depth=depth - 1)),))
    return App(op, (draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))))


def brute_force_sat(term):
    names = sorted(v.name for v in free_symvars(term))
    for values in itertools.product([False, True], repeat=len(names)):
        assignment = dict(zip(names, values))
        if evaluate_term(term, assignment):
            return assignment
    return None


class TestDPLLAgainstBruteForce:
    @given(bool_terms())
    @settings(max_examples=300, deadline=None)
    def test_sat_agrees_with_truth_tables(self, term):
        expected = brute_force_sat(term) is not None
        satisfiable = not SolverSession().propositionally_valid(negate(term))
        assert satisfiable == expected

    @given(bool_terms())
    @settings(max_examples=200, deadline=None)
    def test_validity_agrees_with_truth_tables(self, term):
        expected = brute_force_sat(negate(term)) is None
        assert SolverSession().propositionally_valid(term) == expected

    @given(bool_terms())
    @settings(max_examples=200, deadline=None)
    def test_nnf_preserves_semantics(self, term):
        nnf = to_nnf(term)
        names = sorted(v.name for v in free_symvars(term) | free_symvars(nnf))
        for values in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, values))
            assert bool(evaluate_term(term, assignment)) == bool(
                evaluate_term(nnf, assignment)
            )

    @given(bool_terms())
    @settings(max_examples=150, deadline=None)
    def test_dpll_models_are_genuine(self, term):
        clauses, _table = cnf_of(term)
        model = WatchedSolver(clauses).solve()
        if model is not None:
            for clause in clauses:
                assert any((lit > 0) == model.get(abs(lit), False) for lit in clause)


INT_VARS = [SymVar(name, INT) for name in ("x", "y", "z")]


@st.composite
def euf_problems(draw):
    """Random equality/disequality sets over {x, y, z, f(x), f(y), f(z)}."""
    terms = INT_VARS + [App("f", (v,)) for v in INT_VARS]
    equalities = draw(
        st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)), max_size=4)
    )
    disequalities = draw(
        st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)), max_size=3)
    )
    return equalities, disequalities


def brute_force_euf(equalities, disequalities, universe=3):
    """Decide EUF satisfiability by enumerating small models: values of
    x, y, z in a finite universe and all functions f over it."""
    for vals in itertools.product(range(universe), repeat=3):
        assignment = dict(zip(("x", "y", "z"), vals))
        for f_table in itertools.product(range(universe), repeat=universe):
            def interp(term):
                if isinstance(term, SymVar):
                    return assignment[term.name]
                return f_table[interp(term.args[0])]

            if all(interp(l) == interp(r) for l, r in equalities) and all(
                interp(l) != interp(r) for l, r in disequalities
            ):
                return True
    return False


def _class_model_satisfies(equalities, disequalities):
    """Build the canonical term model from the congruence classes and
    check the constraints in it (the textbook completeness argument)."""
    from repro.smt.euf import CongruenceClosure

    cc = CongruenceClosure()
    for left, right in equalities:
        cc.merge(left, right)
    return all(cc.same(l, r) for l, r in equalities) and not any(
        cc.same(l, r) or l == r for l, r in disequalities
    )


class TestCongruenceClosureAgainstBruteForce:
    @given(euf_problems())
    @settings(max_examples=150, deadline=None)
    def test_unsat_is_sound(self, problem):
        # CC-inconsistent ⟹ no model exists in any finite universe.
        equalities, disequalities = problem
        if not congruence_closure_consistent(equalities, disequalities):
            assert not brute_force_euf(equalities, disequalities, universe=3)

    @given(euf_problems())
    @settings(max_examples=150, deadline=None)
    def test_sat_yields_class_model(self, problem):
        # CC-consistent ⟹ the quotient term model satisfies everything.
        equalities, disequalities = problem
        if congruence_closure_consistent(equalities, disequalities):
            assert _class_model_satisfies(equalities, disequalities)

    @given(euf_problems())
    @settings(max_examples=100, deadline=None)
    def test_small_model_implies_consistent(self, problem):
        # Completeness direction at the brute-force bound.
        equalities, disequalities = problem
        if brute_force_euf(equalities, disequalities, universe=3):
            assert congruence_closure_consistent(equalities, disequalities)
