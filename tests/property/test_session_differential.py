"""Differential harness for incremental solver sessions.

VC batches are discharged three ways —

1. **fresh** — a transient session per VC (what ``check_validity``
   does when no session is passed),
2. **warm** — one shared :class:`repro.smt.session.SolverSession`,
   where each VC is activated by an assumption literal and retired after
   its query,
3. **shuffled** — the same batch in another order on another shared
   session,

and the verdict sequences (verdict + countermodel) must be identical.
The batches are Hypothesis-generated across every solver regime, plus
fixed-seed batches from the mixed equality/difference-logic fragment,
where a warm session has the most shared state to carry.  This pins the
session layer's soundness contract: assumption activation, clause
retirement and shared Tseitin state must never change what the solver
says, only how fast it says it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.session import SolverSession, in_euf_fragment, in_mixed_fragment
from repro.smt.solver import check_validity
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


def _solve_shuffled(batch, seed):
    """The batch in a seeded shuffled order on one shared session,
    answers reported in the original order."""
    order = list(range(len(batch)))
    random.Random(seed).shuffle(order)
    session = SolverSession()
    answers = {}
    for index in order:
        answers[index] = _observe(
            check_validity(batch[index], use_cache=False, session=session)
        )
    return [answers[index] for index in range(len(batch))]


#: How many fixed-seed mixed-fragment batches to replay.
MIXED_BATCHES = 300

#: Offsets ``k`` of the ``x <= y + k`` atoms in the mixed batches.
MIXED_OFFSETS = (-2, -1, 0, 1, 2)


def _mixed_atom(rng):
    left, right = rng.choice(INT_VARS), rng.choice(INT_VARS)
    kind = rng.randrange(4)
    if kind == 0:
        return App("==", (left, right))
    if kind == 1:
        return App("!=", (left, right))
    if kind == 2:
        return App("<", (left, right))
    return App("<=", (left, App("+", (right, Const(rng.choice(MIXED_OFFSETS))))))


def _mixed_formula(rng, depth):
    if depth == 0:
        return _mixed_atom(rng)
    op = rng.choice(("and", "or", "not", "implies"))
    if op == "not":
        return App("not", (_mixed_formula(rng, depth - 1),))
    return App(op, (_mixed_formula(rng, depth - 1), _mixed_formula(rng, depth - 1)))


def mixed_batch(seed, size=6):
    """A fixed-seed batch of mixed-fragment formulas of depth 2-3."""
    rng = random.Random(seed)
    return [_mixed_formula(rng, rng.choice((2, 3))) for _ in range(size)]


class TestSessionDifferential:
    @given(st.lists(vc_formulas(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_fresh_warm_and_shuffled_verdicts_identical(self, batch):
        fresh = _solve_fresh(batch)
        assert fresh == _solve_session(batch)
        assert fresh == _solve_shuffled(batch, seed=len(batch))

    def test_mixed_fragment_batches_fresh_warm_and_shuffled_identical(self):
        """Fixed-seed batches over ``==``, ``!=``, ``<`` and ``x <= y + k``:
        the fragment the solver's own docstring singles out as the one
        where warm state could decide more than a fresh session."""
        for seed in range(MIXED_BATCHES):
            batch = mixed_batch(seed)
            assert all(in_mixed_fragment(formula) for formula in batch), seed
            fresh = _solve_fresh(batch)
            assert _solve_session(batch) == fresh, seed
            assert _solve_shuffled(batch, seed) == fresh, seed

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
