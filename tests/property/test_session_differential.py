"""Differential harness for incremental solver sessions (PR 4 tentpole).

Hypothesis-generated VC batches are discharged three ways —

1. **fresh** — a transient session per VC (what ``check_validity``
   does when no session is passed),
2. **session** — one shared :class:`repro.smt.session.SolverSession`,
   where each VC is activated by an assumption literal and retired after
   its query,
3. **round-trip** — a session run whose decisive results were saved to a
   persistent store, the store reloaded into a cold cache, and the batch
   replayed (every answer must come from the persistent layer),

and the three verdict sequences (verdict + countermodel) must be
identical.  This pins the session layer's soundness contract: assumption
activation, clause retirement, shared Tseitin state and the
fingerprint-keyed persistence must never change what the solver says,
only how fast it says it.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import clear_all_caches
from repro.smt.cache import get_default
from repro.smt.session import SolverSession, in_euf_fragment, in_mixed_fragment
from repro.smt.solver import Verdict, check_validity
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import App, Const, SymVar

BOOL_VARS = [SymVar(name, BOOL) for name in ("a", "b", "c")]
INT_VARS = [SymVar(name, INT) for name in ("x", "y", "z")]
APPLICATIONS = [App("f", (v,)) for v in INT_VARS]
EUF_TERMS = INT_VARS + APPLICATIONS


@st.composite
def vc_formulas(draw, depth=2):
    """Small VC-shaped formulas across every solver regime: pure
    boolean skeletons, ground-equality (EUF) formulas, difference-logic
    order atoms, and out-of-fragment comparisons over uninterpreted
    applications (``f(x) < y``) that take the throwaway-sub-session
    fallback and force the bounded enumerator."""
    kind = draw(st.integers(min_value=0, max_value=3))
    if depth == 0:
        if kind == 0:
            return draw(st.sampled_from(BOOL_VARS + [Const(True), Const(False)]))
        if kind == 1:
            op = draw(st.sampled_from(["==", "!="]))
            return App(
                op,
                (draw(st.sampled_from(EUF_TERMS)), draw(st.sampled_from(EUF_TERMS))),
            )
        if kind == 2:
            return App(
                "<",
                (draw(st.sampled_from(INT_VARS)), draw(st.sampled_from(INT_VARS))),
            )
        return App(
            "<",
            (draw(st.sampled_from(APPLICATIONS)), draw(st.sampled_from(INT_VARS))),
        )
    op = draw(st.sampled_from(["and", "or", "not", "implies"]))
    if op == "not":
        return App("not", (draw(vc_formulas(depth=depth - 1)),))
    return App(
        op,
        (draw(vc_formulas(depth=depth - 1)), draw(vc_formulas(depth=depth - 1))),
    )


def _observe(result):
    """The observable part of a Result for differential comparison."""
    model = None if result.model is None else dict(result.model)
    return (result.verdict, model)


def _solve_fresh(batch):
    return [_observe(check_validity(formula, use_cache=False)) for formula in batch]


def _solve_session(batch):
    session = SolverSession()
    return [
        _observe(check_validity(formula, use_cache=False, session=session))
        for formula in batch
    ]


def _solve_after_round_trip(batch):
    """Populate a persistent store from a session run, reload it cold,
    and replay the batch; answers must come from the store."""
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    cache = get_default()
    try:
        cache.forget_persistent()
        clear_all_caches()
        cache.enable_persistence()
        session = SolverSession()
        first = [
            _observe(check_validity(formula, session=session)) for formula in batch
        ]
        cache.save(path)

        cache.forget_persistent()
        clear_all_caches()
        cache.load(path)
        replay_session = SolverSession()
        replayed = []
        for formula, observed_first in zip(batch, first):
            result = check_validity(formula, session=replay_session)
            # Decisive verdicts must be served by the reloaded store
            # (UNKNOWN is never persisted and is recomputed instead).
            if result.verdict is not Verdict.UNKNOWN:
                assert result.from_cache, (formula, result)
            replayed.append(_observe(result))
        return replayed
    finally:
        cache.forget_persistent()
        clear_all_caches()
        os.unlink(path)


class TestSessionDifferential:
    @given(st.lists(vc_formulas(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_fresh_session_and_round_trip_verdicts_identical(self, batch):
        fresh = _solve_fresh(batch)
        shared = _solve_session(batch)
        assert fresh == shared
        round_trip = _solve_after_round_trip(batch)
        assert fresh == round_trip

    @given(st.lists(vc_formulas(), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_batch_order_never_leaks_between_activations(self, batch):
        """Solving the batch forwards and backwards through one session
        must give the same per-formula verdicts: a retired VC leaves no
        observable constraint behind."""
        forward_session = SolverSession()
        forward = [
            _observe(check_validity(f, use_cache=False, session=forward_session))
            for f in batch
        ]
        backward_session = SolverSession()
        backward = [
            _observe(check_validity(f, use_cache=False, session=backward_session))
            for f in reversed(batch)
        ]
        assert forward == list(reversed(backward))

    @given(st.lists(vc_formulas(), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_retirement_keeps_activation_guards_out_of_the_database(self, batch):
        session = SolverSession()
        for formula in batch:
            check_validity(formula, use_cache=False, session=session)
        for sub in (session._skeleton, session._euf, session._mixed):
            atom_count = sub.converter.table.count
            # Every live clause must be expressible without any retired
            # activation guard: guards are allocated via table.fresh()
            # and retired immediately, so no live clause may mention a
            # variable that is neither an atom nor a definition literal
            # reachable from the converter's memo.
            defined = set(abs(v) for v in sub.converter._literal_cache.values())
            for clause in sub.solver.live_clauses():
                for literal in clause:
                    variable = abs(literal)
                    assert (
                        sub.converter.table.term_of(variable) is not None
                        or variable in defined
                    ), (clause, variable, atom_count)

    @given(vc_formulas())
    @settings(max_examples=60, deadline=None)
    def test_fragment_classifier_matches_solver_behaviour(self, formula):
        """The fragment classifiers must accept exactly the formulas
        whose atoms a shared sub-session table may absorb: pure-equality
        formulas go to the EUF sub-session, order-bearing formulas in
        the difference fragment to the mixed one, everything else
        (boolean variables, ``f(x) < y``) to the fallback on a throwaway
        sub-session, which never touches the shared tables."""
        session = SolverSession()
        before = session.fallbacks
        session.theory_valid(formula)
        went_shared = session.fallbacks == before
        assert went_shared == (
            in_euf_fragment(formula) or in_mixed_fragment(formula)
        )
        stats = session.stats()
        if in_euf_fragment(formula):
            assert stats["euf_queries"] == 1 and stats["mixed_queries"] == 0
        elif in_mixed_fragment(formula):
            assert stats["mixed_queries"] == 1 and stats["euf_queries"] == 0
