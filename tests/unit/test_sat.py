"""Tests for the SAT/EUF layer of the SMT substrate (cnf, dpll, euf,
and the DPLL(T) loop of a solver session)."""

import pytest

from repro.smt.cnf import cnf_of, is_atom, to_nnf, tseitin
from repro.smt.dpll import WatchedSolver
from repro.smt.euf import CongruenceClosure, congruence_closure_consistent
from repro.smt.session import SolverSession
from repro.smt.solver import Verdict, check_validity
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import App, Const, SymVar, conj, disj, eq, implies, negate

a = SymVar("a", BOOL)
b = SymVar("b", BOOL)
c = SymVar("c", BOOL)
x = SymVar("x", INT)
y = SymVar("y", INT)
z = SymVar("z", INT)


def f(term):
    return App("f", (term,))


def satisfiable(term):
    """Propositional satisfiability (atoms opaque) on a fresh session."""
    return not SolverSession().propositionally_valid(negate(term))


def propositionally_valid(term):
    return SolverSession().propositionally_valid(term)


def theory_sat(term, allow_orders=True):
    """DPLL(T) satisfiability of ``term`` on a fresh session: True/False,
    or None when undecided; plus the session's counters."""
    session = SolverSession()
    valid = session.theory_valid(negate(term), allow_orders=allow_orders)
    return (None if valid is None else not valid), session.stats()


def euf_valid(term, allow_orders=True):
    return SolverSession().theory_valid(term, allow_orders=allow_orders)


class TestNNF:
    def test_pushes_negation_over_and(self):
        nnf = to_nnf(negate(conj(a, b)))
        assert nnf == App("or", (negate(a), negate(b)))

    def test_double_negation(self):
        assert to_nnf(negate(negate(a))) == a

    def test_implication_unfolds(self):
        nnf = to_nnf(implies(a, b))
        assert nnf == App("or", (negate(a), b))

    def test_negated_implication(self):
        nnf = to_nnf(negate(implies(a, b)))
        assert nnf == App("and", (a, negate(b)))

    def test_constants(self):
        assert to_nnf(Const(True), negated=True) == Const(False)

    def test_atoms_kept_opaque(self):
        comparison = App("<", (x, y))
        assert is_atom(comparison)
        assert to_nnf(negate(comparison)) == negate(comparison)


class TestDPLL:
    def test_sat_simple(self):
        assert satisfiable(conj(a, negate(b)))

    def test_unsat_contradiction(self):
        assert not satisfiable(conj(a, negate(a)))

    def test_tautology_is_propositionally_valid(self):
        assert propositionally_valid(disj(a, negate(a)))

    def test_modus_ponens_valid(self):
        formula = implies(conj(implies(a, b), a), b)
        assert propositionally_valid(formula)

    def test_contingent_formula_not_valid(self):
        assert not propositionally_valid(a)
        assert not propositionally_valid(implies(a, b))

    def test_pigeonhole_2_into_1_unsat(self):
        # p_ij: pigeon i in hole j (2 pigeons, 1 hole) — both in the hole
        # but not together: unsat.
        p1 = SymVar("p1", BOOL)
        p2 = SymVar("p2", BOOL)
        formula = conj(p1, p2, disj(negate(p1), negate(p2)))
        assert not satisfiable(formula)

    def test_dpll_model_satisfies_clauses(self):
        clauses, _ = cnf_of(conj(disj(a, b), disj(negate(a), c), disj(negate(b), negate(c))))
        model = WatchedSolver(clauses).solve()
        assert model is not None
        for clause in clauses:
            assert any((lit > 0) == model.get(abs(lit), False) for lit in clause)

    def test_tseitin_root_asserted(self):
        clauses, table, root = tseitin(a)
        assert table.count >= 1
        assert isinstance(root, int)


class TestCongruenceClosure:
    def test_transitivity(self):
        cc = CongruenceClosure()
        cc.merge(x, y)
        cc.merge(y, z)
        assert cc.same(x, z)

    def test_congruence_propagates_through_functions(self):
        cc = CongruenceClosure()
        cc.merge(x, y)
        assert cc.same(f(x), f(y))
        assert cc.same(f(f(x)), f(f(y)))

    def test_no_spurious_equalities(self):
        cc = CongruenceClosure()
        cc.merge(x, y)
        assert not cc.same(f(x), f(z))

    def test_nested_congruence(self):
        g_xy = App("g", (x, y))
        g_yx = App("g", (y, x))
        cc = CongruenceClosure()
        cc.merge(x, y)
        assert cc.same(g_xy, g_yx)

    def test_consistency_with_disequalities(self):
        assert congruence_closure_consistent([(x, y)], [(x, z)])
        assert not congruence_closure_consistent([(x, y), (y, z)], [(x, z)])

    def test_distinct_constants_inconsistent(self):
        assert not congruence_closure_consistent([(Const(1), Const(2))], [])
        assert congruence_closure_consistent([(Const(1), Const(1))], [])

    def test_self_disequality_inconsistent(self):
        assert not congruence_closure_consistent([], [(x, x)])

    def test_classic_euf_example(self):
        # f(f(f(a))) = a ∧ f(f(f(f(f(a))))) = a ⟹ f(a) = a
        fa = f(x)
        f3 = f(f(f(x)))
        f5 = f(f(f(f(f(x)))))
        assert not congruence_closure_consistent([(f3, x), (f5, x)], [(fa, x)])


class TestDPLLT:
    def test_equality_chain_unsat(self):
        formula = conj(eq(x, y), eq(y, z), negate(eq(x, z)))
        assert theory_sat(formula)[0] is False

    def test_equality_sat(self):
        formula = conj(eq(x, y), negate(eq(y, z)))
        assert theory_sat(formula)[0] is True

    def test_boolean_structure_with_theory_conflict(self):
        # (x=y ∨ x=z) ∧ x≠y ∧ x≠z is unsat; needs model blocking.
        formula = conj(disj(eq(x, y), eq(x, z)), negate(eq(x, y)), negate(eq(x, z)))
        assert theory_sat(formula)[0] is False

    def test_congruence_in_dpllt(self):
        formula = conj(eq(x, y), negate(eq(f(x), f(y))))
        assert theory_sat(formula)[0] is False

    def test_outside_fragment_returns_none(self):
        # A comparison over an uninterpreted application is outside both
        # the equality and difference fragments: the caller falls back.
        formula = App("<", (f(x), y))
        verdict, stats = theory_sat(formula)
        assert verdict is None
        assert stats["fallbacks"] == 1

    def test_difference_logic_atoms_are_decided(self):
        # An integer comparison is *inside* the fragment: the
        # difference-logic propagator decides it instead of bailing out.
        verdict, stats = theory_sat(App("<", (x, y)))
        assert verdict is True
        assert stats["fallbacks"] == 0
        cycle = conj(App("<", (x, y)), App("<", (y, z)), App("<", (z, x)))
        verdict, stats = theory_sat(cycle)
        assert verdict is False
        assert stats["models_blocked"] == 0

    def test_difference_logic_validity(self):
        chain = implies(
            conj(App("<=", (x, y)), App("<=", (y, z))), App("<=", (x, z))
        )
        assert euf_valid(chain) is True
        # Gating the order fragment off restores the old fallback.
        assert euf_valid(chain, allow_orders=False) is None

    def test_mixed_equality_order_validity(self):
        formula = implies(conj(eq(x, y), App("<=", (y, z))), App("<=", (x, z)))
        assert euf_valid(formula) is True
        assert euf_valid(implies(eq(x, y), App("<=", (x, z)))) is False

    def test_offset_equalities_reach_the_difference_propagator(self):
        # x == y+1 ∧ y == x+1 is EUF-consistent but ℤ-inconsistent: the
        # offset equalities alone must route into the mixed loop.
        swap = conj(
            eq(x, App("+", (y, Const(1)))), eq(y, App("+", (x, Const(1))))
        )
        verdict, stats = theory_sat(swap)
        assert verdict is False
        assert stats["mixed_queries"] == 1

    def test_bounded_range_disequalities_split(self):
        # 0 <= v <= 1 ∧ v ≠ 0 ∧ v ≠ 1: neither theory alone refutes it;
        # the model-level disequality split must.
        formula = conj(
            App("<=", (Const(0), x)),
            App("<=", (x, Const(1))),
            negate(eq(x, Const(0))),
            negate(eq(x, Const(1))),
        )
        assert theory_sat(formula)[0] is False

    def test_euf_validity(self):
        # x=y ⟹ f(x)=f(y) is EUF-valid.
        assert euf_valid(implies(eq(x, y), eq(f(x), f(y)))) is True
        # x=y is not valid.
        assert euf_valid(eq(x, y)) is False


class TestSolverIntegration:
    def test_propositional_tautology_is_proved_not_bounded(self):
        formula = disj(App("<", (x, y)), negate(App("<", (x, y))))
        result = check_validity(formula)
        assert result.verdict == Verdict.PROVED

    def test_euf_validity_is_proved(self):
        formula = implies(eq(x, y), eq(f(x), f(y)))
        result = check_validity(formula)
        assert result.verdict == Verdict.PROVED

    def test_sat_pre_pass_can_be_disabled(self):
        formula = disj(App("<", (x, y)), negate(App("<", (x, y))))
        result = check_validity(formula, use_sat=False)
        # Without the SAT path the enumerator still accepts, but only boundedly.
        assert result.is_valid()

    def test_refutation_still_concrete(self):
        formula = App("<", (x, y))
        result = check_validity(formula)
        assert result.verdict == Verdict.REFUTED
        assert result.model is not None

    def test_finite_integer_sort_override_keeps_order_reasoning(self):
        # Conformance VCs override CELL with a finite *integer* domain
        # (vcgen._FiniteSort); ℤ-validity subsumes validity over the
        # subset, so the difference-logic fast path must stay live.
        from repro.verifier.vcgen import _FiniteSort

        chain = implies(
            conj(App("<=", (x, y)), App("<=", (y, z))), App("<=", (x, z))
        )
        result = check_validity(
            chain, sorts={"x": _FiniteSort((0, 1, 2))}, use_cache=False
        )
        assert result.verdict == Verdict.PROVED

    def test_non_integer_override_gates_only_affected_queries(self):
        from repro.smt.sorts import INT as INT_SORT
        from repro.smt.sorts import SeqSort

        chain = implies(
            conj(App("<=", (x, y)), App("<=", (y, z))), App("<=", (x, z))
        )
        # The overridden variables occur in the order atoms: the order
        # fragment is disabled and the enumerator (tuple comparisons)
        # answers — acceptance, but only boundedly.
        sequences = SeqSort(INT_SORT)
        gated = check_validity(
            chain,
            sorts={"x": sequences, "y": sequences, "z": sequences},
            use_cache=False,
        )
        assert gated.verdict == Verdict.BOUNDED
        # An override on an unrelated variable leaves the fast path on.
        live = check_validity(
            chain, sorts={"unrelated": SeqSort(INT_SORT)}, use_cache=False
        )
        assert live.verdict == Verdict.PROVED
