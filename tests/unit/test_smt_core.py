"""Unit tests for the optimized SMT core: interning, compilation,
watched-literal solving, and the cross-call validity cache."""

import pytest

from repro.smt import (
    App,
    BOOL,
    Const,
    INT,
    SymVar,
    Verdict,
    WatchedSolver,
    check_validity,
    clear_all_caches,
    compile_term,
    conj,
    disj,
    eq,
    evaluate_term,
    implies,
    negate,
    simplify,
)
from repro.smt.cnf import cnf_of
from repro.smt.session import SolverSession


def _lit_assign(values):
    """Literal-indexed assignment array from var-indexed values: the
    flat-arena solver hands propagators ``assign[2v]``/``assign[2v+1]``
    slots, with both polarities filled on assignment."""
    assign = [0] * (2 * len(values))
    for var, value in enumerate(values):
        if var and value:
            assign[var << 1] = value
            assign[(var << 1) | 1] = -value
    return assign


class TestInterning:
    def test_const_canonical(self):
        assert Const(5) is Const(5)

    def test_symvar_canonical(self):
        assert SymVar("x", INT) is SymVar("x", INT)

    def test_app_canonical(self):
        x = SymVar("x", INT)
        assert App("+", (x, Const(1))) is App("+", (x, Const(1)))
        assert App("+", (x, Const(1))) is not App("+", (Const(1), x))

    def test_interning_preserves_equality_semantics(self):
        # bool/int conflation under == and in dict keys, exactly as the
        # frozen-dataclass representation behaved.
        assert Const(True) == Const(1)
        assert hash(Const(True)) == hash(Const(1))
        table = {Const(True): "a"}
        assert table[Const(1)] == "a"

    def test_bool_and_int_consts_keep_distinct_nodes(self):
        assert Const(True) is not Const(1)
        assert Const(True).value is True
        assert Const(1).value == 1

    def test_terms_immutable(self):
        with pytest.raises(AttributeError):
            Const(5).value = 6
        with pytest.raises(AttributeError):
            App("+", (Const(1), Const(2))).op = "-"

    def test_copy_returns_canonical_instance(self):
        import copy

        term = App("+", (SymVar("x", INT), Const(1)))
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term

    def test_unhashable_const_payload_tolerated(self):
        ugly = Const([1, 2, 3])  # lists are unhashable
        assert ugly.value == [1, 2, 3]
        assert ugly == Const([1, 2, 3])
        assert ugly is not Const([1, 2, 3])  # cannot intern
        with pytest.raises(TypeError):
            hash(ugly)

    def test_equality_survives_cache_clear(self):
        before = App("<", (SymVar("cc_x", INT), Const(7)))
        clear_all_caches()
        after = App("<", (SymVar("cc_x", INT), Const(7)))
        assert before is not after  # identities diverged at the clear…
        assert before == after  # …but structural equality holds
        assert hash(before) == hash(after)


class TestConjDisj:
    def test_disj_drops_false_operands(self):
        x = SymVar("b", BOOL)
        assert disj(Const(False), x) == x
        assert disj(x, Const(False)) == x

    def test_disj_short_circuits_true(self):
        x = SymVar("b", BOOL)
        assert disj(x, Const(True)) == Const(True)

    def test_disj_empty_and_all_false(self):
        assert disj() == Const(False)
        assert disj(Const(False), Const(False)) == Const(False)

    def test_conj_short_circuits_false(self):
        x = SymVar("b", BOOL)
        assert conj(x, Const(False)) == Const(False)


class TestSimplifyRewrites:
    def test_disequality_reflexivity(self):
        x = SymVar("x", INT)
        assert simplify(App("!=", (x, x))) == Const(False)

    def test_not_equality_folds_to_disequality(self):
        x, y = SymVar("x", INT), SymVar("y", INT)
        assert simplify(negate(eq(x, y))) == App("!=", (x, y))
        assert simplify(negate(App("!=", (x, y)))) == eq(x, y)

    def test_not_folding_is_consistent_roundtrip(self):
        x, y = SymVar("x", INT), SymVar("y", INT)
        assert simplify(negate(negate(eq(x, y)))) == eq(x, y)
        assert simplify(negate(simplify(negate(eq(x, y))))) == eq(x, y)

    def test_comparison_reflexivity(self):
        x = SymVar("x", INT)
        assert simplify(App("<=", (x, x))) == Const(True)
        assert simplify(App(">=", (x, x))) == Const(True)
        assert simplify(App("<", (x, x))) == Const(False)
        assert simplify(App(">", (x, x))) == Const(False)

    def test_implies_chaining_collapses(self):
        a = SymVar("a", BOOL)
        b = SymVar("b", BOOL)
        chained = implies(a, implies(a, b))
        assert simplify(chained) == implies(a, b)


class TestCompile:
    def test_compiled_agrees_on_arithmetic(self):
        x = SymVar("x", INT)
        term = App("+", (App("*", (x, Const(3))), Const(1)))
        compiled = compile_term(term)
        for value in (-2, 0, 5):
            assert compiled({"x": value}) == evaluate_term(term, {"x": value})

    def test_compiled_preserves_lazy_guards(self):
        x = SymVar("x", INT)
        # The guarded division is unsafe to evaluate when x == 0; the
        # guard must short-circuit exactly like the reference walk.
        guarded = implies(
            negate(eq(x, Const(0))),
            App(">=", (App("/", (Const(10), x)), Const(0))),
        )
        compiled = compile_term(guarded)
        assert compiled({"x": 0}) is True

    def test_compiled_lazy_and_or(self):
        x = SymVar("x", INT)
        at = App("at", (Const(()), Const(5)))  # out-of-range index: unsafe to force
        term = App("and", (Const(False), at))
        assert compile_term(term)({"x": 0}) is False
        term = App("or", (Const(True), at))
        assert compile_term(term)({"x": 0}) is True

    def test_compiled_unassigned_variable_raises(self):
        term = SymVar("missing", INT)
        with pytest.raises(KeyError):
            compile_term(term)({})

    def test_compiled_unknown_operation_is_late_bound(self):
        from repro.smt.terms import OPERATIONS, UnknownOperation

        name = "test_late_bound_op"
        term = App(name, (Const(2), Const(3)))
        compiled = compile_term(term)
        with pytest.raises(UnknownOperation):
            compiled({})
        OPERATIONS[name] = lambda a, b: a * b
        try:
            assert compiled({}) == 6
        finally:
            del OPERATIONS[name]

    def test_compiled_closure_is_memoized(self):
        term = App("+", (SymVar("memo_x", INT), Const(1)))
        assert compile_term(term) is compile_term(term)


class TestWatchedSolver:
    def test_incremental_blocking(self):
        # (a ∨ b): block each model as found; eventually UNSAT.
        solver = WatchedSolver([(1, 2)])
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            key = tuple(sorted(model.items()))
            assert key not in seen, "solver repeated a blocked model"
            seen.add(key)
            solver.add_clause([-lit if val else lit for lit, val in model.items()])
        assert seen  # at least one model existed

    def test_models_satisfy_all_clauses(self):
        clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
        model = WatchedSolver(clauses).solve()
        assert model is not None
        for clause in clauses:
            assert any((lit > 0) == model.get(abs(lit), False) for lit in clause)

    def test_assumptions_respected(self):
        solver = WatchedSolver([(1, 2)])
        model = solver.solve(assumptions=[-1])
        assert model is not None
        assert model[1] is False
        assert model[2] is True

    def test_conflicting_assumptions(self):
        solver = WatchedSolver([(1,)])
        assert solver.solve(assumptions=[-1]) is None

    def test_tautological_clause_ignored(self):
        solver = WatchedSolver([(1, -1)])
        assert solver.solve() is not None

    def test_empty_clause_unsat(self):
        solver = WatchedSolver([()])
        assert solver.solve() is None


class TestMissSentinels:
    def test_intern_table_stores_none_and_falsy_values(self):
        from repro.smt.intern import InternTable

        table = InternTable("regression")
        table.put("none", None)
        table.put("zero", 0)
        missing = object()
        assert table.get("none", missing) is None
        assert table.get("zero", missing) == 0
        assert table.hits == 2
        assert table.misses == 0
        assert table.get("absent", missing) is missing
        assert table.misses == 1

    def test_validity_cache_stores_falsy_results(self):
        from repro.smt.cache import ValidityCache
        from repro.smt.solver import Result, Verdict

        cache = ValidityCache()
        refuted = Result(Verdict.REFUTED, model={})
        assert not refuted  # __bool__ is False: the regression trigger
        cache.put("key", refuted)
        assert cache.get("key") is refuted
        assert cache.hits == 1
        assert cache.misses == 0
        cache.put("none", None)
        assert cache.get("none", "fallback") is None
        assert cache.hits == 2
        assert cache.get("absent", "fallback") == "fallback"
        assert cache.misses == 1


class TestUnitClauseHandling:
    def test_duplicate_units_are_not_accumulated(self):
        solver = WatchedSolver([(1, 2)])
        for _ in range(50):
            solver.add_clause((1,))
            assert solver.solve() is not None
        assert solver._units == [1]

    def test_contradicting_unit_detected_at_add_time(self):
        solver = WatchedSolver([(1,)])
        solver.add_clause((-1,))
        assert solver._unsat  # caught without running the search
        assert solver.solve() is None

    def test_unit_inside_clause_list_constructor(self):
        assert WatchedSolver([(3,), (-3,)]).solve() is None
        assert WatchedSolver([(3,), (3,)]).solve() is not None


class TestCDCL:
    @staticmethod
    def _pigeonhole_clauses(pigeons, holes):
        def var(pigeon, hole):
            return pigeon * holes + hole + 1

        clauses = [
            tuple(var(p, h) for h in range(holes)) for p in range(pigeons)
        ]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append((-var(p1, h), -var(p2, h)))
        return clauses

    def test_pigeonhole_unsat_with_learning(self):
        solver = WatchedSolver(self._pigeonhole_clauses(4, 3))
        assert solver.solve() is None
        assert solver.conflicts > 0
        assert solver.learned_clauses > 0

    def test_learned_clauses_persist_across_solves(self):
        solver = WatchedSolver(self._pigeonhole_clauses(4, 3))
        assert solver.solve() is None
        conflicts_first = solver.conflicts
        assert solver.solve() is None  # _unsat latched: no new search
        assert solver.conflicts == conflicts_first

    def test_backjumping_instance_model_correct(self):
        clauses = self._pigeonhole_clauses(4, 4)  # satisfiable: a perfect matching
        model = WatchedSolver(clauses).solve()
        assert model is not None
        for clause in clauses:
            assert any(model.get(abs(lit)) == (lit > 0) for lit in clause)


class TestTheoryPropagation:
    def test_pigeonhole_euf_needs_no_blocked_models(self):
        xs = [SymVar(f"tp_w{i}", INT) for i in range(4)]
        y, z = SymVar("tp_y", INT), SymVar("tp_z", INT)
        parts = [disj(eq(x, y), eq(x, z)) for x in xs]
        parts.extend(
            negate(eq(xs[i], xs[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        )
        session = SolverSession()
        # The conjunction is unsatisfiable: its negation is valid.
        assert session.theory_valid(negate(conj(*parts))) is True
        stats = session.stats()
        assert stats["models_blocked"] == 0
        assert stats["theory_propagations"] > 0

    def test_entailed_atom_is_propagated(self):
        from repro.smt.cnf import AtomTable
        from repro.smt.euf import EqualityPropagator

        x, y, z = (SymVar(f"ep_{n}", INT) for n in "xyz")
        table = AtomTable()
        xy = table.atom(eq(x, y))
        yz = table.atom(eq(y, z))
        xz = table.atom(eq(x, z))
        propagator = EqualityPropagator(table)
        propagator.reset()
        propagator.assert_literal(xy)
        propagator.assert_literal(yz)
        # xy, yz true; xz unassigned (literal-indexed: slot 2v per var)
        status, implied = propagator.check(_lit_assign([0, 1, 1, 0]))
        assert status == "ok"
        assert (xz, [xy, yz]) in implied

    def test_theory_conflict_detected_before_full_model(self):
        from repro.smt.cnf import AtomTable
        from repro.smt.euf import EqualityPropagator

        x, y, z = (SymVar(f"tc_{n}", INT) for n in "xyz")
        table = AtomTable()
        xy = table.atom(eq(x, y))
        yz = table.atom(eq(y, z))
        xz = table.atom(eq(x, z))
        propagator = EqualityPropagator(table)
        propagator.reset()
        propagator.assert_literal(xy)
        propagator.assert_literal(yz)
        propagator.assert_literal(-xz)  # x ≠ z: inconsistent
        status, clause = propagator.check(_lit_assign([0, 1, 1, -1]))
        assert status == "conflict"
        assert xz in clause  # ¬(x ≠ z) is part of the explanation
        assert all(lit in (xz, -xy, -yz) for lit in clause)

    def test_backjump_rewinds_the_mirrored_trail(self):
        from repro.smt.cnf import AtomTable
        from repro.smt.euf import EqualityPropagator

        x, y = SymVar("bj_x", INT), SymVar("bj_y", INT)
        table = AtomTable()
        xy = table.atom(eq(x, y))
        propagator = EqualityPropagator(table)
        propagator.reset()
        propagator.assert_literal(xy)
        propagator.backjump(0)
        status, implied = propagator.check(_lit_assign([0, 0]))
        assert status == "ok"
        assert implied == []  # nothing asserted any more

    def test_mixed_fragment_is_decided_since_pr5(self):
        x, y = SymVar("mx_x", INT), SymVar("mx_y", INT)
        mixed = conj(App("<", (x, y)), eq(x, y))
        # x < y contradicts x = y: the equality + difference-logic
        # propagator stack refutes it without bailing to enumeration.
        session = SolverSession()
        assert session.theory_valid(negate(mixed)) is True
        assert session.stats()["fallbacks"] == 0

    def test_out_of_fragment_still_lazy(self):
        x, y = SymVar("mxo_x", INT), SymVar("mxo_y", INT)
        # A comparison over an uninterpreted application is outside both
        # fragments: a found model asserting it bails out (None).
        outside = conj(App("<", (App("g", (x,)), y)), eq(x, y))
        session = SolverSession()
        assert session.theory_valid(negate(outside)) is None
        assert session.stats()["fallbacks"] == 1


class TestValidityCache:
    def setup_method(self):
        clear_all_caches()

    def test_second_call_hits(self):
        x = SymVar("cachetest_x", INT)
        formula = disj(App("<", (x, Const(0))), App(">=", (x, Const(0))))
        first = check_validity(formula)
        assert not first.from_cache
        second = check_validity(formula)
        assert second.from_cache
        assert second.verdict == first.verdict
        assert second.cache_hits >= 1

    def test_counters_monotonic(self):
        x = SymVar("cachetest_y", INT)
        formula = App("<", (x, Const(3)))
        first = check_validity(formula)
        second = check_validity(formula)
        assert second.cache_hits == first.cache_hits + 1
        assert second.cache_misses == first.cache_misses

    def test_hit_models_are_private_copies(self):
        x = SymVar("cachetest_z", INT)
        formula = App(">", (x, Const(0)))  # refutable
        first = check_validity(formula)
        assert first.verdict == Verdict.REFUTED
        first.model["cachetest_z"] = "corrupted"
        second = check_validity(formula)
        assert second.from_cache
        assert second.model["cachetest_z"] != "corrupted"

    def test_distinct_scopes_do_not_collide(self):
        from repro.smt import Scope

        x = SymVar("cachetest_w", INT)
        formula = negate(eq(x, Const(4)))
        narrow = check_validity(formula, scope=Scope(int_values=(0, 1)))
        wide = check_validity(formula, scope=Scope(int_values=(0, 4)))
        assert narrow.verdict == Verdict.REFUTED  # 4 widened in from the formula
        assert wide.verdict == Verdict.REFUTED
        assert not wide.from_cache or narrow.verdict == wide.verdict

    def test_use_cache_false_bypasses(self):
        x = SymVar("cachetest_v", INT)
        formula = App("<", (x, Const(100)))
        check_validity(formula, use_cache=False)
        result = check_validity(formula, use_cache=False)
        assert not result.from_cache

    def test_verdicts_identical_to_reference(self):
        from repro.smt import reference

        x, y = SymVar("crx", INT), SymVar("cry", INT)
        formulas = [
            eq(x, x),
            App("<", (x, y)),
            implies(eq(x, y), eq(App("f", (x,)), App("f", (y,)))),
            disj(App("<", (x, y)), negate(App("<", (x, y)))),
        ]
        for formula in formulas:
            new = check_validity(formula)
            ref = reference.check_validity_reference(formula)
            assert new.verdict == ref.verdict, str(formula)
        # The difference-logic fast path (PR 5) soundly *strengthens*
        # the seed: an order tautology the seed could only bound out is
        # now PROVED outright.  Acceptance still agrees.
        strengthened = implies(
            conj(App("<", (x, y)), App("<", (y, x))), Const(False)
        )
        new = check_validity(strengthened)
        ref = reference.check_validity_reference(strengthened)
        assert new.verdict == Verdict.PROVED
        assert ref.verdict == Verdict.BOUNDED
        assert new.is_valid() == ref.is_valid()
