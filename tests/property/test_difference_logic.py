"""Property suite for difference-logic theory propagation (PR 5).

Four contracts are pinned here:

* **conjunction soundness** — on random conjunctions of difference
  literals the DPLL(T) verdict equals exhaustive integer enumeration
  over a window provably wide enough to contain a solution whenever one
  exists (each constraint shifts a bound by at most ``max |k| + 1``, so
  a satisfiable system has a solution within ``±Σ(|k| + 1)``);
* **validity envelope** — on random boolean combinations of mixed
  ``==``/``<=`` atoms, ``check_validity`` with the solver fast paths
  refutes and errors *byte-identically* to the pure enumerator and may
  only soundly strengthen BOUNDED acceptance into PROVED;
* **explanation minimality** — a theory conflict blames exactly the
  literals of one negative cycle: the blamed set is jointly infeasible
  and dropping any single literal restores feasibility;
* **no blocked models on the pure fragment** — pure difference-logic
  formulas are decided entirely by theory propagation
  (``models_blocked == 0``), on a fresh session and on a shared one.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.arith import (
    DifferenceLogicPropagator,
    negated_constraint,
    normalize_order_atom,
)
from repro.smt.cnf import AtomTable
from repro.smt.session import SolverSession
from repro.smt.solver import Verdict, check_validity
from repro.smt.sorts import INT
from repro.smt.terms import App, Const, SymVar, conj, evaluate_term, free_symvars

VARS = [SymVar(name, INT) for name in ("dx", "dy", "dz")]
MAX_CONSTANT = 2


@st.composite
def order_atoms(draw):
    """A difference-logic atom over three variables and small constants."""
    op = draw(st.sampled_from(["<", "<=", ">", ">="]))
    left = draw(st.sampled_from(VARS))
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        right = draw(st.sampled_from([v for v in VARS if v is not left]))
    elif shape == 1:
        base = draw(st.sampled_from([v for v in VARS if v is not left]))
        offset = draw(st.integers(-MAX_CONSTANT, MAX_CONSTANT))
        right = App("+", (base, Const(offset)))
    else:
        right = Const(draw(st.integers(-MAX_CONSTANT, MAX_CONSTANT)))
    return App(op, (left, right))


@st.composite
def difference_literals(draw):
    atom = draw(order_atoms())
    if draw(st.booleans()):
        return App("not", (atom,))
    return atom


def _window_solvable(formula, half_width):
    """Exhaustive integer enumeration of the formula's variables over
    ``[-half_width, half_width]`` — a complete SAT oracle for difference
    systems whose solutions (when any exist) fit the window."""
    names = sorted(v.name for v in free_symvars(formula))
    values = range(-half_width, half_width + 1)
    for combo in itertools.product(values, repeat=len(names)):
        if evaluate_term(formula, dict(zip(names, combo))):
            return True
    return False


class TestConjunctionsAgainstEnumeration:
    @given(st.lists(difference_literals(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_dpllt_verdict_matches_integer_enumeration(self, literals):
        formula = conj(*literals)
        verdict = SolverSession().theory_valid(App("not", (formula,)))
        assert verdict is not None, formula
        # Each constraint bound is at most MAX_CONSTANT + 1 in magnitude
        # (strictness adds one), so a satisfiable system of n literals
        # has a solution within ±n·(MAX_CONSTANT + 1).
        half_width = len(literals) * (MAX_CONSTANT + 1)
        assert (not verdict) == _window_solvable(formula, half_width), formula

    @given(st.lists(difference_literals(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_pure_fragment_never_blocks_models(self, literals):
        session = SolverSession()
        assert session.theory_valid(App("not", (conj(*literals),))) is not None
        assert session.stats()["models_blocked"] == 0


@st.composite
def mixed_formulas(draw, depth=2):
    """Boolean structure over mixed equality / order atoms."""
    if depth == 0:
        atom = draw(order_atoms())
        if draw(st.booleans()):
            left = draw(st.sampled_from(VARS))
            right = draw(st.sampled_from(VARS + [Const(0), Const(1)]))
            atom = App(draw(st.sampled_from(["==", "!="])), (left, right))
        return atom
    op = draw(st.sampled_from(["and", "or", "not", "implies"]))
    if op == "not":
        return App("not", (draw(mixed_formulas(depth=depth - 1)),))
    return App(
        op,
        (draw(mixed_formulas(depth=depth - 1)), draw(mixed_formulas(depth=depth - 1))),
    )


class TestValidityEnvelope:
    @given(mixed_formulas())
    @settings(max_examples=60, deadline=None)
    def test_fast_paths_only_strengthen_soundly(self, formula):
        with_sat = check_validity(formula, use_cache=False)
        enumerated = check_validity(formula, use_cache=False, use_sat=False)
        if with_sat.verdict is Verdict.PROVED:
            # A solver-PROVED formula is valid over ℤ: the bounded
            # enumerator must not have found a countermodel.
            assert enumerated.verdict is not Verdict.REFUTED, formula
        else:
            # Every undecided query falls through to the *same*
            # enumeration: verdict and countermodel are byte-identical.
            assert with_sat.verdict == enumerated.verdict, formula
            assert with_sat.model == enumerated.model, formula

    @given(st.lists(mixed_formulas(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_session_matches_fresh_on_the_mixed_fragment(self, batch):
        fresh = [check_validity(f, use_cache=False) for f in batch]
        session = SolverSession()
        shared = [
            check_validity(f, use_cache=False, session=session) for f in batch
        ]
        for one, other in zip(fresh, shared):
            if Verdict.PROVED in (one.verdict, other.verdict):
                # The mixed-fragment model check is an over-
                # approximation evaluated per shrunk model, so a warmed
                # session may soundly strengthen BOUNDED into PROVED;
                # it must never flip acceptance.
                assert {one.verdict, other.verdict} <= {
                    Verdict.PROVED,
                    Verdict.BOUNDED,
                }, (one.verdict, other.verdict)
            else:
                assert one.verdict == other.verdict
                assert one.model == other.model


def _feasible(constraints):
    """Bellman–Ford feasibility of a set of (u, v, k) constraints —
    an oracle independent of the propagator's incremental graph."""
    nodes = {node for u, v, _k in constraints for node in (u, v)}
    if not nodes:
        return True
    distance = {node: 0 for node in nodes}
    edges = [(v, u, k) for u, v, k in constraints]
    for _ in range(len(nodes)):
        changed = False
        for source, target, weight in edges:
            candidate = distance[source] + weight
            if candidate < distance[target]:
                distance[target] = candidate
                changed = True
        if not changed:
            return True
    return False


class TestExplanationMinimality:
    @given(st.lists(difference_literals(), min_size=2, max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_conflict_explanations_are_single_negative_cycles(self, literals):
        table = AtomTable()
        atoms = {}
        trail = []
        for literal_term in literals:
            negated = False
            atom = literal_term
            if isinstance(atom, App) and atom.op == "not":
                negated = True
                atom = atom.args[0]
            var = table.atom(atom)
            atoms[var] = atom
            trail.append(-var if negated else var)
        propagator = DifferenceLogicPropagator(table)
        propagator.reset()
        # Literal-indexed, as the flat-arena solver hands it over:
        # slots 2v / 2v+1 per variable, both filled on assignment.
        assign = [0] * (2 * (table.count + 1))
        conflict = None
        for literal in trail:
            variable = abs(literal)
            if assign[variable << 1] != 0:
                continue  # duplicate atom: keep the first polarity
            propagator.assert_literal(literal)
            value = 1 if literal > 0 else -1
            assign[variable << 1] = value
            assign[(variable << 1) | 1] = -value
            status, payload = propagator.check(assign)
            if status == "conflict":
                conflict = payload
                break
        if conflict is None:
            return
        blamed = [-literal for literal in conflict]  # the true literals
        assert set(map(abs, blamed)) <= set(map(abs, trail))

        def constraint_of(literal):
            constraint = normalize_order_atom(atoms[abs(literal)])
            return constraint if literal > 0 else negated_constraint(constraint)

        blamed_constraints = [constraint_of(literal) for literal in blamed]
        # The blamed set is genuinely infeasible…
        assert not _feasible(blamed_constraints)
        # …and minimal: dropping any one literal restores feasibility.
        for index in range(len(blamed_constraints)):
            rest = blamed_constraints[:index] + blamed_constraints[index + 1:]
            assert _feasible(rest), (blamed, index)


# Representative pure difference-logic VC shapes: transitivity chains,
# bound propagation, window pinning, and an infeasible cycle.
def _corpus():
    x, y, z = VARS
    le = lambda a, b: App("<=", (a, b))  # noqa: E731
    lt = lambda a, b: App("<", (a, b))  # noqa: E731
    chain = App(
        "implies", (conj(le(x, y), le(y, z)), le(x, z))
    )
    bounds = App(
        "implies",
        (conj(le(x, Const(2)), le(Const(0), x)), lt(x, Const(4))),
    )
    window = App(
        "implies",
        (conj(lt(x, y), lt(y, App("+", (x, Const(2))))), le(y, App("+", (x, Const(1))))),
    )
    cycle = App("not", (conj(lt(x, y), lt(y, z), lt(z, x)),))
    return [chain, bounds, window, cycle]


class TestPureFragmentRegression:
    def test_corpus_is_proved_with_zero_blocked_models(self):
        session = SolverSession()
        for formula in _corpus():
            result = check_validity(formula, use_cache=False, session=session)
            assert result.verdict is Verdict.PROVED, formula
        stats = session.stats()
        assert stats["models_blocked"] == 0
        assert stats["fallbacks"] == 0
        # Every corpus case is decided by the theory layer: either a
        # mid-search propagation or a root-level theory conflict.
        assert stats["theory_propagations"] + stats["theory_conflicts"] > 0

    def test_corpus_fresh_dpllt_never_blocks(self):
        for formula in _corpus():
            session = SolverSession()
            assert session.theory_valid(formula) is True
            assert session.stats()["models_blocked"] == 0
