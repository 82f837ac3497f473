"""Property suite for the CDCL upgrade of the SAT core.

Three contracts are pinned here:

* **agreement** — the CDCL :class:`~repro.smt.dpll.WatchedSolver`
  (first-UIP learning, VSIDS, phase saving, Luby restarts) decides
  exactly the same random CNF instances as the retained seed solver
  (:func:`repro.smt.reference.dpll_reference`), and its models genuinely
  satisfy every clause;
* **learned-clause soundness** — every clause the solver learns is
  implied by the input clauses: asserting its negation alongside the
  input is unsatisfiable (checked with the reference solver);
* **use-list congruence closure** — the Downey–Sethi–Tarjan-style
  closure produces the identical partition to the seed's quadratic
  rescan, and theory propagation never changes DPLL(T) verdicts while
  reducing the blocked-model count to zero on the pure fragment.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import reference
from repro.smt.dpll import WatchedSolver
from repro.smt.euf import CongruenceClosure
from repro.smt.session import SolverSession
from repro.smt.sorts import INT
from repro.smt.terms import App, SymVar

INT_VARS = [SymVar(name, INT) for name in ("x", "y", "z")]


# ---------------------------------------------------------------------------
# Random CNF instances
# ---------------------------------------------------------------------------


@st.composite
def cnf_instances(draw):
    """Random ≤3-CNF over at most 8 variables (dense enough for UNSAT)."""
    nvars = draw(st.integers(min_value=1, max_value=8))
    nclauses = draw(st.integers(min_value=1, max_value=28))
    clauses = []
    for _ in range(nclauses):
        width = draw(st.integers(min_value=1, max_value=3))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=nvars),
                min_size=width,
                max_size=width,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(
            tuple(v if s else -v for v, s in zip(variables, signs))
        )
    return clauses


def _satisfies(model, clause):
    if any(-literal in clause for literal in clause):
        return True  # tautological: satisfied by every extension
    return any(model.get(abs(literal)) == (literal > 0) for literal in clause)


class TestCDCLAgainstReference:
    @given(cnf_instances())
    @settings(max_examples=300, deadline=None)
    def test_sat_unsat_agreement(self, clauses):
        ours = WatchedSolver(clauses).solve()
        theirs = reference.dpll_reference(clauses)
        assert (ours is None) == (theirs is None)

    @given(cnf_instances())
    @settings(max_examples=200, deadline=None)
    def test_models_satisfy_every_clause(self, clauses):
        model = WatchedSolver(clauses).solve()
        if model is not None:
            for clause in clauses:
                assert _satisfies(model, clause)

    @given(cnf_instances())
    @settings(max_examples=200, deadline=None)
    def test_repeated_solves_stay_stable(self, clauses):
        # Learned clauses and saved phases persist across calls; the
        # verdict must not drift.
        solver = WatchedSolver(clauses)
        first = solver.solve()
        second = solver.solve()
        assert (first is None) == (second is None)
        if second is not None:
            for clause in clauses:
                assert _satisfies(second, clause)

    @given(cnf_instances(), st.lists(st.integers(min_value=-8, max_value=8)))
    @settings(max_examples=150, deadline=None)
    def test_assumptions_behave_like_units(self, clauses, raw_assumptions):
        assumptions = []
        seen = set()
        for literal in raw_assumptions:
            if literal != 0 and abs(literal) not in seen:
                seen.add(abs(literal))
                assumptions.append(literal)
        under_assumptions = WatchedSolver(clauses).solve(assumptions)
        as_units = reference.dpll_reference(
            list(clauses) + [(literal,) for literal in assumptions]
        )
        assert (under_assumptions is None) == (as_units is None)
        if under_assumptions is not None:
            for literal in assumptions:
                assert under_assumptions.get(abs(literal)) == (literal > 0)


class TestLearnedClauseSoundness:
    @given(cnf_instances())
    @settings(max_examples=100, deadline=None)
    def test_learned_clauses_are_implied(self, clauses):
        solver = WatchedSolver(clauses)
        solver.solve()
        for clause in solver.live_learned_clauses():
            # input ∧ ¬clause must be unsatisfiable if the clause is implied.
            negated_units = [(-literal,) for literal in clause]
            assert reference.dpll_reference(list(clauses) + negated_units) is None

    @given(cnf_instances())
    @settings(max_examples=100, deadline=None)
    def test_learned_units_are_implied(self, clauses):
        solver = WatchedSolver(clauses)
        solver.solve()
        if solver._unsat:
            return
        for literal in solver._units:
            assert reference.dpll_reference(list(clauses) + [(-literal,)]) is None


# ---------------------------------------------------------------------------
# Congruence closure: use lists vs the seed's quadratic rescan
# ---------------------------------------------------------------------------


def _quadratic_classes(pairs, universe):
    """The seed's congruence closure: union-find plus a full rescan of
    every ``App`` per fixpoint round (kept here as the oracle)."""
    parent = {}

    def register(term):
        if term in parent:
            return
        parent[term] = term
        if isinstance(term, App):
            for arg in term.args:
                register(arg)

    def find(term):
        root = term
        while parent[root] != root:
            root = parent[root]
        while parent[term] != root:
            parent[term], term = root, parent[term]
        return root

    def union(left, right):
        root_left, root_right = find(left), find(right)
        if root_left != root_right:
            parent[root_left] = root_right

    for term in universe:
        register(term)
    for left, right in pairs:
        register(left)
        register(right)
        union(left, right)
    changed = True
    while changed:
        changed = False
        by_signature = {}
        for term in [t for t in parent if isinstance(t, App)]:
            signature = (term.op, tuple(find(arg) for arg in term.args))
            other = by_signature.get(signature)
            if other is None:
                by_signature[signature] = term
            elif find(term) != find(other):
                union(term, other)
                changed = True
    groups = {}
    for term in parent:
        groups.setdefault(find(term), set()).add(term)
    return {frozenset(members) for members in groups.values()}


@st.composite
def merge_sequences(draw):
    terms = INT_VARS + [App("f", (v,)) for v in INT_VARS]
    terms = terms + [App("g", (a, b)) for a in INT_VARS[:2] for b in INT_VARS[:2]]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
            max_size=6,
        )
    )
    return pairs, terms


class TestUseListClosure:
    @given(merge_sequences())
    @settings(max_examples=200, deadline=None)
    def test_partition_identical_to_quadratic_rescan(self, case):
        pairs, universe = case
        cc = CongruenceClosure()
        for term in universe:
            cc.find(term)
        for left, right in pairs:
            cc.merge(left, right)
        ours = {members for members in cc.classes().values()}
        assert ours == _quadratic_classes(pairs, universe)

    @given(merge_sequences())
    @settings(max_examples=150, deadline=None)
    def test_registration_order_is_irrelevant(self, case):
        # Terms first seen after their arguments merged still land in
        # the right class (the signature-table path of _register).
        pairs, universe = case
        eager = CongruenceClosure()
        for term in universe:
            eager.find(term)
        for left, right in pairs:
            eager.merge(left, right)
        lazy = CongruenceClosure()
        for left, right in pairs:
            lazy.merge(left, right)
        for a, b in itertools.combinations(universe, 2):
            assert eager.same(a, b) == lazy.same(a, b)


# ---------------------------------------------------------------------------
# Theory propagation
# ---------------------------------------------------------------------------


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


class TestTheoryPropagation:
    @given(euf_formulas())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match_lazy_reference(self, term):
        # A fresh session's theory_valid(¬t) is the DPLL(T) verdict on t.
        ours = SolverSession().theory_valid(App("not", (term,)))
        theirs = reference.dpllt_equality_reference(term)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert (not ours) == theirs.satisfiable

    @given(euf_formulas())
    @settings(max_examples=150, deadline=None)
    def test_pure_fragment_blocks_no_models(self, term):
        # With theory conflicts raised mid-search, the blocking loop
        # is a safety net that never fires inside the pure fragment.
        session = SolverSession()
        # pure EUF: always decided
        assert session.theory_valid(App("not", (term,))) is not None
        assert session.stats()["models_blocked"] == 0


# ---------------------------------------------------------------------------
# Assumption-based activation + retirement (the SolverSession contract)
# ---------------------------------------------------------------------------


def _activation_var(clauses, used):
    top = max((abs(lit) for clause in clauses for lit in clause), default=0)
    return max(top, used) + 1


class TestActivationRetirement:
    @given(st.lists(cnf_instances(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_activated_queries_agree_with_reference(self, batches):
        """A sequence of CNFs discharged MiniSat-style on one shared
        solver — each batch guarded by a fresh activation literal,
        solved under the assumption, then retired — must decide exactly
        what a fresh reference solve of each batch decides."""
        shared = WatchedSolver()
        used = 0
        for clauses in batches:
            activation = _activation_var(clauses, used)
            used = activation
            mark = shared.clause_mark()
            for clause in clauses:
                shared.add_clause(tuple(clause) + (-activation,))
            shared_verdict = shared.solve([activation]) is not None
            shared.retire(activation, since=mark)
            fresh_verdict = reference.dpll_reference(list(clauses)) is not None
            assert shared_verdict == fresh_verdict

    @given(st.lists(cnf_instances(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_learned_clauses_never_mention_retired_activations(self, batches):
        shared = WatchedSolver()
        used = 0
        retired = []
        for clauses in batches:
            activation = _activation_var(clauses, used)
            used = activation
            mark = shared.clause_mark()
            for clause in clauses:
                shared.add_clause(tuple(clause) + (-activation,))
            shared.solve([activation])
            shared.retire(activation, since=mark)
            retired.append(activation)
            for clause in shared.live_clauses():
                for literal in clause:
                    assert abs(literal) not in retired
            for literal in shared._unit_set:
                assert abs(literal) not in retired

    @given(cnf_instances())
    @settings(max_examples=60, deadline=None)
    def test_retirement_restores_satisfiability(self, clauses):
        """After retiring an (arbitrarily hard) activated query, the
        shared database must be satisfiable again — queries leave no
        constraint behind, not even when they were UNSAT."""
        shared = WatchedSolver()
        activation = _activation_var(clauses, 0)
        mark = shared.clause_mark()
        for clause in clauses:
            shared.add_clause(tuple(clause) + (-activation,))
        shared.solve([activation])
        shared.retire(activation, since=mark)
        assert shared.solve() is not None

    @given(st.lists(cnf_instances(), min_size=2, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_sessions_do_not_cross_talk(self, batches):
        """Solving the batches through one shared solver in any order
        gives the same per-batch verdicts as solving them fresh."""
        verdicts_fresh = [
            reference.dpll_reference(list(clauses)) is not None
            for clauses in batches
        ]
        for order in (list(range(len(batches))), list(reversed(range(len(batches))))):
            shared = WatchedSolver()
            used = 0
            got = {}
            for index in order:
                clauses = batches[index]
                activation = _activation_var(clauses, used)
                used = activation
                mark = shared.clause_mark()
                for clause in clauses:
                    shared.add_clause(tuple(clause) + (-activation,))
                got[index] = shared.solve([activation]) is not None
                shared.retire(activation, since=mark)
            assert [got[i] for i in range(len(batches))] == verdicts_fresh


# ---------------------------------------------------------------------------
# Learned-clause DB management (reduceDB / minimization / compaction)
# ---------------------------------------------------------------------------


class _AuditingSolver(WatchedSolver):
    """A solver that checks the DB-management invariants at every
    reduceDB pass: reason clauses of trail literals survive, clauses
    mentioning a live assumption (activation) variable survive, and the
    arena/watch structures stay consistent through the compaction."""

    def reduce_db(self):
        pinned = set(self._pinned_vars)
        guarded_before = []
        if pinned:
            for clause in self.live_clauses():
                if any(abs(literal) in pinned for literal in clause):
                    guarded_before.append(frozenset(clause))
        removed = super().reduce_db()
        # Invariant 1: every trail literal's clause reason is live and
        # contains the literal (db_check verifies via remapped refs).
        self.db_check()
        # Invariant 2: no clause mentioning a live activation variable
        # was dropped.
        if pinned:
            guarded_after = [
                frozenset(clause)
                for clause in self.live_clauses()
                if any(abs(literal) in pinned for literal in clause)
            ]
            for clause in guarded_before:
                assert clause in guarded_after, (
                    f"reduceDB dropped clause {sorted(clause)} mentioning "
                    f"live activation vars {pinned}"
                )
        return removed


class TestClauseDBManagement:
    @given(cnf_instances())
    @settings(max_examples=60, deadline=None)
    def test_reduce_db_preserves_verdicts_and_invariants(self, clauses):
        """With the reduction floor forced to 1 (reduceDB fires on
        nearly every conflict), verdicts still match the reference and
        the auditing invariants hold at every pass."""
        solver = _AuditingSolver(clauses, reduce_floor=1)
        model = solver.solve()
        oracle = reference.dpll_reference([list(c) for c in clauses], {})
        assert (model is None) == (oracle is None)

    @given(cnf_instances())
    @settings(max_examples=60, deadline=None)
    def test_minimized_learned_clauses_still_implied(self, clauses):
        """Recursive minimization only ever drops redundant literals:
        every surviving learned clause is implied by the input (fresh
        reference solve of input ∧ ¬clause is UNSAT)."""
        solver = WatchedSolver(clauses, minimize=True, reduce_floor=1)
        solver.solve()
        for clause in solver.live_learned_clauses():
            negated_units = [(-literal,) for literal in clause]
            assert reference.dpll_reference(list(clauses) + negated_units) is None
        if not solver._unsat:
            for literal in solver._units:
                assert reference.dpll_reference(
                    list(clauses) + [(-literal,)]
                ) is None

    @given(cnf_instances())
    @settings(max_examples=40, deadline=None)
    def test_minimization_never_changes_verdicts(self, clauses):
        with_min = WatchedSolver(clauses, minimize=True).solve() is not None
        without = WatchedSolver(clauses, minimize=False).solve() is not None
        assert with_min == without

    @given(st.lists(cnf_instances(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_retire_then_solve_agreement_post_reduce(self, batches):
        """The TestActivationRetirement contract extended to post-reduceDB
        states: activation/retirement sequences on a solver that reduces
        (and compacts) aggressively still decide each batch exactly as a
        fresh reference solve."""
        shared = _AuditingSolver(reduce_floor=1)
        used = 0
        for clauses in batches:
            activation = _activation_var(clauses, used)
            used = activation
            mark = shared.clause_mark()
            for clause in clauses:
                shared.add_clause(tuple(clause) + (-activation,))
            shared_verdict = shared.solve([activation]) is not None
            shared.retire(activation, since=mark)
            shared.db_check()
            fresh_verdict = reference.dpll_reference(list(clauses)) is not None
            assert shared_verdict == fresh_verdict
            for clause in shared.live_clauses():
                assert all(abs(literal) != activation for literal in clause)

    def test_reduce_db_actually_fires(self):
        """Deterministic coverage check: a pigeonhole instance under a
        floor of 1 must run real reductions (and drop real clauses), so
        the properties above genuinely exercise reduceDB."""
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

        solver = _AuditingSolver(pigeonhole(6, 5), reduce_floor=1)
        assert solver.solve() is None
        assert solver.reductions > 0
        assert solver.reduced_clauses > 0
        assert solver.compactions > 0

    def test_retire_triggers_tombstone_compaction(self):
        """Retiring the bulk of a large database crosses the tombstone
        fraction and compacts the arena; marks taken before the
        compaction degrade to full scans, not stale offsets."""
        solver = WatchedSolver()
        early_mark = solver.clause_mark()
        for i in range(1, 301):
            solver.add_clause((i, -(i + 1), 1000))
        stats = solver.clause_db_stats()
        assert stats["compactions"] == 0
        removed = solver.retire(1000, since=early_mark)
        assert removed == 300
        stats = solver.clause_db_stats()
        assert stats["compactions"] >= 1
        assert stats["dead_words"] == 0
        assert stats["live_input"] == 0
        # A pre-compaction mark still works for a later retire scan.
        solver.add_clause((1, 2, 999))
        assert solver.retire(999, since=early_mark) == 1
        solver.db_check()
