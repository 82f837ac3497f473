"""Property-based validation of the optimized SMT core against the
retained reference implementation (:mod:`repro.smt.reference`).

The optimization contract is *semantic transparency*: hash-consing,
compiled evaluation, the watched-literal search, and memoized
simplification must be observationally identical to the seed algorithms.
Each property below drives both implementations with the same random
input and requires agreement.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import reference
from repro.smt.compile import compile_term
from repro.smt.cnf import cnf_of, to_nnf
from repro.smt.dpll import WatchedSolver
from repro.smt.session import SolverSession
from repro.smt.simplify import simplify
from repro.smt.solver import check_validity
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import App, Const, SymVar, evaluate_term, free_symvars, negate

BOOL_VARS = [SymVar(name, BOOL) for name in ("a", "b", "c", "d")]
INT_VARS = [SymVar(name, INT) for name in ("x", "y", "z")]


@st.composite
def bool_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(BOOL_VARS + [Const(True), Const(False)]))
    op = draw(st.sampled_from(["and", "or", "not", "implies", "ite"]))
    if op == "not":
        return App("not", (draw(bool_terms(depth=depth - 1)),))
    if op == "ite":
        return App(
            "ite",
            (
                draw(bool_terms(depth=depth - 1)),
                draw(bool_terms(depth=depth - 1)),
                draw(bool_terms(depth=depth - 1)),
            ),
        )
    return App(op, (draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))))


@st.composite
def int_terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(
            st.sampled_from(INT_VARS + [Const(0), Const(1), Const(2), Const(-1)])
        )
    op = draw(st.sampled_from(["+", "-", "*", "/", "%", "neg", "ite"]))
    if op == "neg":
        return App("neg", (draw(int_terms(depth=depth - 1)),))
    if op == "ite":
        return App(
            "ite",
            (
                draw(mixed_formulas(depth=1)),
                draw(int_terms(depth=depth - 1)),
                draw(int_terms(depth=depth - 1)),
            ),
        )
    return App(op, (draw(int_terms(depth=depth - 1)), draw(int_terms(depth=depth - 1))))


@st.composite
def mixed_formulas(draw, depth=2):
    """Boolean formulas over comparison/equality atoms of integer terms."""
    if depth == 0:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return App(op, (draw(int_terms(depth=1)), draw(int_terms(depth=1))))
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return App(op, (draw(int_terms(depth=2)), draw(int_terms(depth=2))))
    if choice == 1:
        return App("not", (draw(mixed_formulas(depth=depth - 1)),))
    op = draw(st.sampled_from(["and", "or", "implies"]))
    return App(
        op, (draw(mixed_formulas(depth=depth - 1)), draw(mixed_formulas(depth=depth - 1)))
    )


def all_bool_assignments(term):
    names = sorted(v.name for v in free_symvars(term))
    for values in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, values))


class TestCompiledEvaluation:
    @given(bool_terms())
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_reference_on_booleans(self, term):
        compiled = compile_term(term)
        for assignment in all_bool_assignments(term):
            assert bool(compiled(assignment)) == bool(
                reference.evaluate_reference(term, assignment)
            )

    @given(mixed_formulas(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_compiled_matches_reference_on_mixed_terms(self, term, values):
        assignment = dict(zip(("x", "y", "z"), values))
        compiled = compile_term(term)
        try:
            expected = reference.evaluate_reference(term, assignment)
        except Exception as error:  # noqa: BLE001 — exception parity
            try:
                compiled(assignment)
            except Exception as compiled_error:  # noqa: BLE001
                assert type(compiled_error) is type(error)
                return
            raise AssertionError("compiled evaluation missed an exception")
        assert compiled(assignment) == expected


class TestSimplifyAgainstReference:
    @given(mixed_formulas(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_simplification_is_semantics_preserving(self, term, values):
        # The optimized simplifier has *more* rewrites than the seed's,
        # so outputs may differ syntactically — but never semantically.
        assignment = dict(zip(("x", "y", "z"), values))
        simplified = simplify(term)
        try:
            expected = reference.evaluate_reference(term, assignment)
        except Exception:  # noqa: BLE001 — both sides partial: skip
            return
        assert bool(reference.evaluate_reference(simplified, assignment)) == bool(
            expected
        )


class TestWatchedSolverAgainstReference:
    @given(bool_terms())
    @settings(max_examples=300, deadline=None)
    def test_sat_agrees_with_reference(self, term):
        satisfiable = not SolverSession().propositionally_valid(negate(term))
        assert satisfiable == (reference.sat_reference(term) is not None)

    @given(bool_terms())
    @settings(max_examples=200, deadline=None)
    def test_validity_agrees_with_reference(self, term):
        valid = SolverSession().propositionally_valid(term)
        assert valid == reference.propositionally_valid_reference(term)

    @given(bool_terms())
    @settings(max_examples=150, deadline=None)
    def test_watched_models_satisfy_reference_cnf(self, term):
        clauses, _table = cnf_of(term)
        model = WatchedSolver(clauses).solve()
        reference_model = reference.dpll_reference(clauses)
        assert (model is None) == (reference_model is None)
        if model is not None:
            for clause in clauses:
                assert any((lit > 0) == model.get(abs(lit), False) for lit in clause)


@st.composite
def euf_formulas(draw, depth=2):
    """Boolean combinations of equalities over {x, y, z, f(x), f(y), f(z)}."""
    terms = INT_VARS + [App("f", (v,)) for v in INT_VARS]
    if depth == 0:
        op = draw(st.sampled_from(["==", "!="]))
        return App(op, (draw(st.sampled_from(terms)), draw(st.sampled_from(terms))))
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        op = draw(st.sampled_from(["==", "!="]))
        return App(op, (draw(st.sampled_from(terms)), draw(st.sampled_from(terms))))
    if choice == 1:
        return App("not", (draw(euf_formulas(depth=depth - 1)),))
    op = draw(st.sampled_from(["and", "or", "implies"]))
    return App(
        op, (draw(euf_formulas(depth=depth - 1)), draw(euf_formulas(depth=depth - 1)))
    )


class TestDPLLTAgainstReference:
    @given(euf_formulas())
    @settings(max_examples=150, deadline=None)
    def test_dpllt_satisfiability_agrees(self, term):
        # A fresh session's theory_valid(¬t) is the DPLL(T) verdict on t.
        new = SolverSession().theory_valid(negate(term))
        ref = reference.dpllt_equality_reference(term)
        assert (new is None) == (ref is None)
        if new is not None:
            assert (not new) == ref.satisfiable


class TestValidityVerdictsAgainstReference:
    @given(bool_terms())
    @settings(max_examples=100, deadline=None)
    def test_boolean_validity_verdicts_identical(self, term):
        new = check_validity(term)
        ref = reference.check_validity_reference(term)
        assert new.verdict == ref.verdict

    @given(euf_formulas())
    @settings(max_examples=75, deadline=None)
    def test_euf_validity_verdicts_identical(self, term):
        from repro.smt.solver import Verdict

        new = check_validity(term)
        ref = reference.check_validity_reference(term)
        # The != reflexivity rewrite decides formulas like f(x) != f(x)
        # that the seed's enumerator could not interpret (uninterpreted
        # f) — a sound strengthening.  Everything the seed decided must
        # be byte-identical, and the new core must never be *less*
        # decided than the seed.
        if ref.verdict != Verdict.UNKNOWN:
            assert new.verdict == ref.verdict

    @given(mixed_formulas())
    @settings(max_examples=50, deadline=None)
    def test_mixed_validity_acceptance_identical(self, term):
        # The optimized simplifier carries *more* rewrites (<=/< and !=
        # reflexivity), which can soundly upgrade BOUNDED to PROVED on
        # formulas containing syntactically reflexive atoms.  Acceptance
        # (valid / refuted / unknown) must still agree exactly.
        from repro.smt.solver import Verdict

        new = check_validity(term)
        ref = reference.check_validity_reference(term)
        assert new.is_valid() == ref.is_valid()
        assert (new.verdict == Verdict.REFUTED) == (ref.verdict == Verdict.REFUTED)
        assert (new.verdict == Verdict.UNKNOWN) == (ref.verdict == Verdict.UNKNOWN)

    @given(bool_terms())
    @settings(max_examples=50, deadline=None)
    def test_cached_replay_verdicts_stable(self, term):
        first = check_validity(term)
        again = check_validity(term)
        assert again.verdict == first.verdict


class TestInterningProperties:
    @given(bool_terms())
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_is_canonical(self, term):
        def rebuild(node):
            if isinstance(node, App):
                return App(node.op, tuple(rebuild(arg) for arg in node.args))
            if isinstance(node, SymVar):
                return SymVar(node.name, node.sort)
            return Const(node.value)

        # ``term`` may predate an intern-table clear (other suites clear
        # caches mid-run; cleared terms stay *usable* but stop being
        # canonical).  Canonicalize first, then reconstruction must be
        # identity-stable.
        canonical = rebuild(term)
        assert rebuild(canonical) is canonical
        assert canonical == term

    @given(bool_terms())
    @settings(max_examples=150, deadline=None)
    def test_nnf_is_deterministic_and_shared(self, term):
        assert to_nnf(term) is to_nnf(term)
