"""Incremental solver sessions: one shared CDCL solver per verification run.

A proof outline discharges many small, structurally related validity
obligations.  Before this module each obligation built a fresh
:class:`~repro.smt.dpll.WatchedSolver` (and a fresh Tseitin conversion),
throwing away learned clauses, VSIDS activities, saved phases and theory
lemmas between VCs.  A :class:`SolverSession` keeps all of that alive
across the obligations of a run, MiniSat-style:

* the session owns one :class:`~repro.smt.cnf.TseitinConverter` (shared
  atom table + definition memo) and one shared solver per fragment, so a
  subformula occurring in several VCs is converted once and its
  definition clauses are emitted once;
* each VC is *activated* by a fresh assumption literal ``a``: the VC's
  root assertion is added as the guarded clause ``(root ∨ ¬a)`` and the
  query is solved under the assumption ``a``.  Clauses learned while
  ``a`` is assumed mention ``¬a`` (no clause ever contains the positive
  literal, so resolution cannot cancel it), which keeps them valid for
  every later query;
* after the query the activation literal is *retired*
  (:meth:`~repro.smt.dpll.WatchedSolver.retire`): the guarded clause and
  every learned clause mentioning ``¬a`` are dropped, so the clause
  database stays lean while activation-independent derived facts —
  theory lemmas, blocking clauses, premise-free units, variable
  activities and phases — carry over to the next obligation.

Three sub-sessions are kept, because their soundness regimes differ: a
*skeleton* session (no theory attached) answering propositional-validity
queries over arbitrary atoms; an *EUF* session whose shared atom table
only ever contains ``==``/``!=`` atoms, with one incrementally rescanned
:class:`~repro.smt.euf.EqualityPropagator` attached; and a *mixed*
session for formulas combining equality atoms with integer
difference-logic order atoms, driven by a
:class:`~repro.smt.arith.PropagatorStack` (equality + difference logic
sharing the trail) with :func:`~repro.smt.arith.mixed_consistent` as the
model-level blocking oracle.  VCs outside all fragments run the same
model-blocking loop on a *throwaway* theory-free sub-session built for
that one query, so their verdicts never depend on what the session
solved before (the differential harness in
``tests/property/test_session_differential.py`` pins this).

``check_validity`` without a session builds a transient
:class:`SolverSession`, whose first query is by construction the fresh
verdict.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .arith import (
    DifferenceLogicPropagator,
    PropagatorStack,
    is_difference_atom,
    is_offset_equality_atom,
    mixed_consistent,
)
from .cnf import TseitinConverter, is_atom
from .dpll import WatchedSolver, _theory_literals
from .euf import EqualityPropagator, congruence_closure_consistent, is_equality_atom
from .terms import App, Const, Term


def _iter_atoms(term: Term):
    """The theory atoms of a formula (each shared node visited once)."""
    stack = [term]
    visited: set = set()
    while stack:
        current = stack.pop()
        if isinstance(current, Const):
            continue
        if is_atom(current):
            yield current
            continue
        marker = id(current)
        if marker in visited:
            continue
        visited.add(marker)
        stack.extend(current.args)  # a boolean connective App


def _fragment_scan(term: Term, accept) -> bool:
    """True iff every atom satisfies ``accept`` and at least one occurs."""
    found = False
    for atom in _iter_atoms(term):
        if not accept(atom):
            return False
        found = True
    return found


def in_euf_fragment(term: Term) -> bool:
    """True iff every atom of the term is a binary ``==``/``!=`` atom and
    at least one atom occurs — the fragment the shared EUF sub-session
    may accept without poisoning its propagator's atom table."""
    return _fragment_scan(term, is_equality_atom)


def in_mixed_fragment(term: Term) -> bool:
    """True iff every atom is an equality atom or a difference-logic
    order atom (and at least one atom occurs) — the fragment the shared
    mixed sub-session decides with the equality + difference-logic
    propagator stack."""
    return _fragment_scan(
        term, lambda atom: is_equality_atom(atom) or is_difference_atom(atom)
    )


def _has_offset_equality(term: Term) -> bool:
    """True iff some atom is an integer equality with an offset —
    difference content invisible to congruence closure alone."""
    return any(is_offset_equality_atom(atom) for atom in _iter_atoms(term))


class _SubSession:
    """One shared converter + solver (optionally with attached theories)."""

    __slots__ = ("converter", "solver", "propagator", "queries", "focus_vars")

    def __init__(self, theory: bool, orders: bool = False) -> None:
        self.converter = TseitinConverter()
        self.solver = WatchedSolver()
        if not theory:
            self.propagator = None
        elif orders:
            self.propagator = PropagatorStack(
                EqualityPropagator(self.converter.table),
                DifferenceLogicPropagator(self.converter.table),
            )
        else:
            self.propagator = EqualityPropagator(self.converter.table)
        self.queries = 0
        #: Atom vars of the currently activated query (set by activate).
        self.focus_vars: set = set()

    def activate(self, formula: Term) -> Tuple[int, int]:
        """Convert ``formula`` into the shared database behind a fresh
        activation literal; returns ``(activation, retirement_mark)``."""
        solver = self.solver
        # Stream definition clauses straight into the solver's clause
        # arena — no intermediate clause list.
        root = self.converter.convert_into(formula, solver.add_clause)
        table = self.converter.table
        activation = table.fresh()
        mark = solver.clause_mark()
        solver.add_clause((root, -activation))
        self.focus_vars = {table.atom(atom) for atom in _iter_atoms(formula)}
        if self.propagator is not None:
            # New VCs may introduce new theory atoms: rescan the shared
            # table and (re-)attach so the solver notes the new
            # variables, then *focus* the propagators on this query's
            # own atoms — stale atoms from retired queries would
            # otherwise tax every propagation fixpoint of every later
            # query (the shared table only grows).
            self.propagator.rescan()
            self.propagator.focus(self.focus_vars)
            solver.attach_theory(self.propagator)
        self.queries += 1
        return activation, mark


class SolverSession:
    """Shared incremental solving for the VCs of one verification run.

    The two entry points are the fast paths of
    :func:`repro.smt.solver.check_validity` (``propositionally_valid`` →
    bool; ``theory_valid`` → True/False/None) and amortize conversion
    and search state across calls.  A session is single-threaded and
    cheap to construct; create one per verification run (or per daemon
    request) and pass it to ``check_validity``.
    """

    __slots__ = (
        "_skeleton", "_euf", "_mixed", "max_models", "models_blocked", "fallbacks"
    )

    def __init__(self, max_models: int = 10_000) -> None:
        self._skeleton = _SubSession(theory=False)
        self._euf = _SubSession(theory=True)
        self._mixed = _SubSession(theory=True, orders=True)
        self.max_models = max_models
        self.models_blocked = 0
        #: Queries outside every fragment, each served by a throwaway
        #: sub-session.
        self.fallbacks = 0

    # -- fast paths -------------------------------------------------------

    def propositionally_valid(self, term: Term) -> bool:
        """True iff the term is a propositional tautology (valid for
        *every* theory interpretation of its atoms, which stay opaque)."""
        negated = App("not", (term,))
        sub = self._skeleton
        activation, mark = sub.activate(negated)
        try:
            model = sub.solver.solve([activation])
        finally:
            sub.solver.retire(activation, since=mark)
        return model is None

    def theory_valid(self, term: Term, allow_orders: bool = True) -> Optional[bool]:
        """Validity in the ground-equality and mixed equality/
        difference-logic fragments: True/False, or None if undecided.

        Out-of-fragment formulas run the lazy model-blocking loop on a
        throwaway theory-free sub-session: models are checked by
        congruence closure as on the equality fragment, and the answer
        is None as soon as a model asserts an atom outside it.  Sharing
        that sub-session would carry blocking lemmas and search state
        from one such query into the next and could change the verdict.

        ``allow_orders=False`` disables the mixed sub-session for this
        query (callers whose sort overrides reinterpret integer-labelled
        variables must not let difference-logic reasoning touch them).
        """
        if in_euf_fragment(term):
            if allow_orders and _has_offset_equality(term):
                # Offset equalities (x == y + 1) need the difference
                # propagator even with no order atom in sight.
                return self._theory_query(self._mixed, term, mixed=True)
            return self._theory_query(self._euf, term, mixed=False)
        if allow_orders and in_mixed_fragment(term):
            return self._theory_query(self._mixed, term, mixed=True)
        self.fallbacks += 1
        return self._theory_query(_SubSession(theory=False), term, mixed=False)

    def _theory_query(
        self, sub: _SubSession, term: Term, mixed: bool
    ) -> Optional[bool]:
        negated = App("not", (term,))
        activation, mark = sub.activate(negated)
        solver = sub.solver
        table = sub.converter.table
        focus = sub.focus_vars
        try:
            for _ in range(self.max_models):
                model = solver.solve([activation])
                if model is None:
                    return True  # negation unsatisfiable: valid
                # The query's truth depends only on its *own* atoms
                # (definitions are shared, so shared subformulas' atoms
                # are in the focus set too).  Stale atoms pulled into
                # the shrunk model by clauses of retired queries are
                # dropped before the theory check: a consistent focused
                # assignment is a genuine countermodel, an inconsistent
                # one yields a blocking lemma over focused atoms only —
                # which blocks every stale-atom variation at once
                # instead of re-blocking an exponential stale space.
                focused = {
                    index: value
                    for index, value in model.items()
                    if index in focus
                }
                split = _theory_literals(focused, table, orders=mixed)
                if split is None:
                    # Only on the fallback: the shared tables are pure.
                    return None  # an atom outside the fragment
                if mixed:
                    equalities, disequalities, order_atoms = split
                    consistent = mixed_consistent(
                        equalities, disequalities, order_atoms
                    )
                else:
                    equalities, disequalities = split
                    consistent = congruence_closure_consistent(
                        equalities, disequalities
                    )
                if consistent:
                    # A countermodel the theory check cannot refute —
                    # genuine on the pure fragments (their checks are
                    # complete); on the mixed fragment possibly an
                    # over-approximation, in which case the caller's
                    # enumeration fallback keeps the verdict sound.
                    return False
                # Block the theory-inconsistent boolean model.  The
                # blocking clause states that this atom conjunction is
                # theory-inconsistent — a theory lemma, globally sound,
                # so it is added unguarded and survives retirement.
                blocking = tuple(
                    -index if value else index
                    for index, value in sorted(focused.items())
                    if table.term_of(index) is not None
                )
                if not blocking:
                    return True
                solver.add_clause(blocking)
                self.models_blocked += 1
            return None  # model budget exhausted: undecided
        finally:
            solver.retire(activation, since=mark)

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and tests."""
        subs = (self._skeleton, self._euf, self._mixed)
        mixed_propagator = self._mixed.propagator
        return {
            "queries": sum(sub.queries for sub in subs),
            "skeleton_queries": self._skeleton.queries,
            "euf_queries": self._euf.queries,
            "mixed_queries": self._mixed.queries,
            "fallbacks": self.fallbacks,
            "models_blocked": self.models_blocked,
            "theory_propagations": mixed_propagator.propagations
            + self._euf.propagator.propagations,
            "theory_conflicts": mixed_propagator.conflicts
            + self._euf.propagator.conflicts,
            "definition_hits": sum(
                sub.converter.definition_hits for sub in subs
            ),
            "learned_clauses": sum(sub.solver.learned_clauses for sub in subs),
            "retired_clauses": sum(sub.solver.retired_clauses for sub in subs),
            "live_clauses": sum(
                db["live_input"] + db["live_learned"]
                for db in (sub.solver.clause_db_stats() for sub in subs)
            ),
            "reduced_clauses": sum(sub.solver.reduced_clauses for sub in subs),
            "db_reductions": sum(sub.solver.reductions for sub in subs),
            "db_compactions": sum(sub.solver.compactions for sub in subs),
            "minimized_literals": sum(
                sub.solver.minimized_literals for sub in subs
            ),
        }
