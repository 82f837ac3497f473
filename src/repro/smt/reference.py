"""The retained *reference* solver: the seed's algorithms, unoptimized.

This module preserves, verbatim in structure, the pre-optimization
implementation of the solver stack — recursive AST-walking evaluation
(:func:`repro.smt.terms.evaluate_term` already *is* the reference
evaluator and is shared), uncached recursive simplification, uncached
NNF/Tseitin conversion, the clause-copying recursive DPLL with
pure-literal elimination, the non-incremental DPLL(T) loop, and the
uncached validity check.

It exists for two reasons:

* **correctness oracle** — the property suite
  (``tests/property/test_smt_core_properties.py``) asserts that the
  interned / compiled / watched-literal core agrees with this module on
  randomly generated formulas;
* **benchmark baseline** — ``benchmarks/run_benchmarks.py`` times the
  optimized core against this module on identical inputs and records
  both the speedups and verdict agreement in ``BENCH_smt.json``.

Nothing here is memoized and nothing consults the caches of
:mod:`repro.smt.intern` or :mod:`repro.smt.cache`; the only shared
infrastructure is the hash-consed term representation itself (term
construction is canonical repo-wide) and the congruence-closure theory
solver, which the optimization did not touch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .cnf import CNF, AtomTable, Clause, is_atom
from .dpll import _theory_literals
from .euf import congruence_closure_consistent
from .solver import _MAX_ASSIGNMENTS, Result, Verdict
from .sorts import Scope, Sort
from .terms import App, Const, Term, evaluate_term, negate

Assignment = Dict[int, bool]

#: The reference evaluator is the recursive walk retained in terms.py.
evaluate_reference = evaluate_term


# ---------------------------------------------------------------------------
# Simplification (seed version: recursive, uncached, original rule set)
# ---------------------------------------------------------------------------

_TRUE = Const(True)
_FALSE = Const(False)


def simplify_reference(term: Term) -> Term:
    """Seed ``simplify``: bottom-up, no memoization, original rules."""
    if isinstance(term, Const) or not isinstance(term, App):
        return term
    args = tuple(simplify_reference(arg) for arg in term.args)
    folded = _try_fold(term.op, args)
    if folded is not None:
        return folded
    rewritten = _rewrite(term.op, args)
    if rewritten is not None:
        return rewritten
    return App(term.op, args)


def _try_fold(op: str, args: tuple[Term, ...]) -> Term | None:
    if not all(isinstance(arg, Const) for arg in args):
        return None
    try:
        value = evaluate_term(App(op, args), {})
    except Exception:  # noqa: BLE001
        return None
    return Const(value)


def _rewrite(op: str, args: tuple[Term, ...]) -> Term | None:
    if op == "and":
        left, right = args
        if left == _TRUE:
            return right
        if right == _TRUE:
            return left
        if left == _FALSE or right == _FALSE:
            return _FALSE
        if left == right:
            return left
        return None
    if op == "or":
        left, right = args
        if left == _FALSE:
            return right
        if right == _FALSE:
            return left
        if left == _TRUE or right == _TRUE:
            return _TRUE
        if left == right:
            return left
        return None
    if op == "implies":
        antecedent, consequent = args
        if antecedent == _FALSE or consequent == _TRUE:
            return _TRUE
        if antecedent == _TRUE:
            return consequent
        if antecedent == consequent:
            return _TRUE
        return None
    if op == "not":
        (operand,) = args
        if operand == _TRUE:
            return _FALSE
        if operand == _FALSE:
            return _TRUE
        if isinstance(operand, App) and operand.op == "not":
            return operand.args[0]
        return None
    if op == "==":
        left, right = args
        if left == right:
            return _TRUE
        return None
    if op == "ite":
        condition, then_term, else_term = args
        if condition == _TRUE:
            return then_term
        if condition == _FALSE:
            return else_term
        if then_term == else_term:
            return then_term
        return None
    if op == "+":
        left, right = args
        if left == Const(0):
            return right
        if right == Const(0):
            return left
        return None
    if op == "-":
        left, right = args
        if right == Const(0):
            return left
        if left == right:
            return Const(0)
        return None
    if op == "*":
        left, right = args
        if left == Const(1):
            return right
        if right == Const(1):
            return left
        if left == Const(0) or right == Const(0):
            return Const(0)
        return None
    return None


# ---------------------------------------------------------------------------
# NNF / Tseitin (seed version: uncached)
# ---------------------------------------------------------------------------


def to_nnf_reference(term: Term, negated: bool = False) -> Term:
    """Seed ``to_nnf``: recursive, no memo."""
    if isinstance(term, Const):
        value = bool(term.value) != negated
        return Const(value)
    if is_atom(term):
        return negate(term) if negated else term
    assert isinstance(term, App)
    if term.op == "not":
        return to_nnf_reference(term.args[0], not negated)
    if term.op == "and":
        parts = tuple(to_nnf_reference(arg, negated) for arg in term.args)
        return App("or" if negated else "and", parts)
    if term.op == "or":
        parts = tuple(to_nnf_reference(arg, negated) for arg in term.args)
        return App("and" if negated else "or", parts)
    if term.op == "implies":
        left, right = term.args
        if negated:  # ¬(a ⇒ b) = a ∧ ¬b
            return App("and", (to_nnf_reference(left, False), to_nnf_reference(right, True)))
        return App("or", (to_nnf_reference(left, True), to_nnf_reference(right, False)))
    if term.op == "ite":
        condition, then_term, else_term = term.args
        positive = App(
            "and",
            (
                App("implies", (condition, then_term)),
                App("implies", (App("not", (condition,)), else_term)),
            ),
        )
        return to_nnf_reference(positive, negated)
    raise TypeError(f"unexpected boolean connective {term.op!r}")


def tseitin_reference(term: Term) -> tuple[CNF, AtomTable, int]:
    """Seed Tseitin conversion (per-call caches only)."""
    table = AtomTable()
    clauses: CNF = []
    cache: Dict[Term, int] = {}

    def convert(current: Term) -> int:
        if current in cache:
            return cache[current]
        if isinstance(current, Const):
            literal = table.fresh()
            clauses.append((literal,) if current.value else (-literal,))
            cache[current] = literal
            return literal
        if is_atom(current):
            literal = table.atom(current)
            cache[current] = literal
            return literal
        assert isinstance(current, App)
        if current.op == "not":
            literal = -convert(current.args[0])
            cache[current] = literal
            return literal
        if current.op in ("and", "or"):
            sub = [convert(arg) for arg in current.args]
            fresh = table.fresh()
            if current.op == "and":
                for literal in sub:
                    clauses.append((-fresh, literal))
                clauses.append(tuple([fresh] + [-literal for literal in sub]))
            else:
                for literal in sub:
                    clauses.append((fresh, -literal))
                clauses.append(tuple([-fresh] + sub))
            cache[current] = fresh
            return fresh
        if current.op == "implies":
            rewritten = App("or", (App("not", (current.args[0],)), current.args[1]))
            literal = convert(rewritten)
            cache[current] = literal
            return literal
        if current.op == "ite":
            condition, then_term, else_term = current.args
            rewritten = App(
                "and",
                (
                    App("or", (App("not", (condition,)), then_term)),
                    App("or", (condition, else_term)),
                ),
            )
            literal = convert(rewritten)
            cache[current] = literal
            return literal
        raise TypeError(f"unexpected boolean connective {current.op!r}")

    nnf = to_nnf_reference(term)
    root = convert(nnf)
    return clauses, table, root


def cnf_of_reference(term: Term) -> tuple[CNF, AtomTable]:
    clauses, table, root = tseitin_reference(term)
    return clauses + [(root,)], table


# ---------------------------------------------------------------------------
# DPLL (seed version: recursive, clause-copying, pure-literal elimination)
# ---------------------------------------------------------------------------


def _propagate(clauses: List[Clause], assignment: Assignment) -> Optional[List[Clause]]:
    """Unit propagation to fixpoint; None on conflict."""
    changed = True
    clauses = list(clauses)
    while changed:
        changed = False
        next_clauses: List[Clause] = []
        for clause in clauses:
            unassigned: List[int] = []
            satisfied = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    unassigned.append(literal)
                elif (literal > 0) == value:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return None  # conflict
            if len(unassigned) == 1:
                literal = unassigned[0]
                assignment[abs(literal)] = literal > 0
                changed = True
            else:
                next_clauses.append(tuple(unassigned))
        clauses = next_clauses
    return clauses


def _pure_literals(clauses: List[Clause], assignment: Assignment) -> None:
    polarity: Dict[int, set] = {}
    for clause in clauses:
        for literal in clause:
            polarity.setdefault(abs(literal), set()).add(literal > 0)
    for variable, signs in polarity.items():
        if variable not in assignment and len(signs) == 1:
            assignment[variable] = signs.pop()


def _choose(clauses: List[Clause], assignment: Assignment) -> Optional[int]:
    counts: Dict[int, int] = {}
    for clause in clauses:
        for literal in clause:
            variable = abs(literal)
            if variable not in assignment:
                counts[variable] = counts.get(variable, 0) + 1
    if not counts:
        return None
    return max(counts, key=lambda variable: (counts[variable], -variable))


def dpll_reference(
    clauses: CNF, assignment: Optional[Assignment] = None
) -> Optional[Assignment]:
    """Seed ``dpll``: recursive search copying the clause list per level."""
    assignment = dict(assignment or {})
    simplified = _propagate(list(clauses), assignment)
    if simplified is None:
        return None
    _pure_literals(simplified, assignment)
    simplified = _propagate(simplified, assignment)
    if simplified is None:
        return None
    if not simplified:
        return assignment
    variable = _choose(simplified, assignment)
    if variable is None:
        return assignment
    for value in (True, False):
        trial = dict(assignment)
        trial[variable] = value
        result = dpll_reference(simplified, trial)
        if result is not None:
            return result
    return None


def sat_reference(term: Term) -> Optional[Assignment]:
    clauses, _table = cnf_of_reference(term)
    return dpll_reference(clauses)


def propositionally_valid_reference(term: Term) -> bool:
    return sat_reference(App("not", (term,))) is None


@dataclass(frozen=True)
class TheoryResult:
    """Outcome of the seed DPLL(T) search."""

    satisfiable: bool
    boolean_model: Optional[Assignment] = None
    equalities: Tuple[Tuple[Term, Term], ...] = ()
    disequalities: Tuple[Tuple[Term, Term], ...] = ()
    models_blocked: int = 0


def dpllt_equality_reference(
    term: Term, max_models: int = 10_000
) -> Optional[TheoryResult]:
    """Seed DPLL(T): rebuilds and re-propagates the growing clause list
    from zero for every blocked model."""
    clauses, table = cnf_of_reference(term)
    blocked = 0
    working = list(clauses)
    for _ in range(max_models):
        model = dpll_reference(working)
        if model is None:
            return TheoryResult(False, models_blocked=blocked)
        split = _theory_literals(model, table)
        if split is None:
            return None  # outside the fragment
        equalities, disequalities = split
        if congruence_closure_consistent(equalities, disequalities):
            return TheoryResult(
                True,
                boolean_model=model,
                equalities=tuple(equalities),
                disequalities=tuple(disequalities),
                models_blocked=blocked,
            )
        conflict = tuple(
            -index if value else index
            for index, value in sorted(model.items())
            if table.term_of(index) is not None
        )
        if not conflict:
            return TheoryResult(False, models_blocked=blocked)
        working.append(conflict)
        blocked += 1
    return None  # model budget exhausted: undecided


def euf_valid_reference(term: Term, max_models: int = 10_000) -> Optional[bool]:
    result = dpllt_equality_reference(App("not", (term,)), max_models=max_models)
    if result is None:
        return None
    return not result.satisfiable


# ---------------------------------------------------------------------------
# Validity (seed version: uncached, interpreted enumeration)
# ---------------------------------------------------------------------------


def int_constants_reference(term: Term) -> frozenset[int]:
    """Seed ``int_constants``: uncached recursive walk."""
    if isinstance(term, Const):
        if isinstance(term.value, bool):
            return frozenset()
        if isinstance(term.value, int):
            return frozenset({term.value})
        return frozenset()
    if isinstance(term, App):
        result: frozenset[int] = frozenset()
        for arg in term.args:
            result |= int_constants_reference(arg)
        return result
    return frozenset()


def free_symvars_reference(term: Term) -> frozenset:
    """Seed ``free_symvars``: uncached recursive walk."""
    from .terms import SymVar

    if isinstance(term, Const):
        return frozenset()
    if isinstance(term, SymVar):
        return frozenset({term})
    if isinstance(term, App):
        result: frozenset = frozenset()
        for arg in term.args:
            result |= free_symvars_reference(arg)
        return result
    raise TypeError(f"not a term: {term!r}")


def check_validity_reference(
    formula: Term,
    scope: Scope | None = None,
    sorts: Mapping[str, Sort] | None = None,
    exhaustive: bool = False,
    use_sat: bool = True,
) -> Result:
    """Seed ``check_validity``: no cache, no compilation, recursive DPLL."""
    scope = scope or Scope()
    scope = scope.widen(tuple(int_constants_reference(formula)))
    simplified = simplify_reference(formula)
    if simplified == Const(True):
        return Result(Verdict.PROVED)
    if simplified == Const(False):
        return Result(Verdict.REFUTED, model={})

    if use_sat:
        if propositionally_valid_reference(simplified):
            return Result(Verdict.PROVED)
        euf = euf_valid_reference(simplified)
        if euf is True:
            return Result(Verdict.PROVED)

    variables = sorted(free_symvars_reference(simplified), key=lambda v: v.name)
    if not variables:
        try:
            value = evaluate_term(simplified, {})
        except Exception:  # noqa: BLE001
            return Result(Verdict.UNKNOWN)
        if value:
            return Result(Verdict.PROVED, checked_assignments=1)
        return Result(Verdict.REFUTED, model={}, checked_assignments=1)

    domains = []
    for variable in variables:
        sort = (sorts or {}).get(variable.name, variable.sort)
        domains.append(list(sort.domain(scope)))

    checked = 0
    for combo in itertools.product(*domains):
        assignment = {variable.name: value for variable, value in zip(variables, combo)}
        checked += 1
        if checked > _MAX_ASSIGNMENTS:
            return Result(Verdict.BOUNDED, checked_assignments=checked - 1)
        try:
            value = evaluate_term(simplified, assignment)
        except Exception:  # noqa: BLE001
            return Result(Verdict.UNKNOWN, checked_assignments=checked)
        if not value:
            return Result(Verdict.REFUTED, model=assignment, checked_assignments=checked)
    verdict = Verdict.PROVED if exhaustive else Verdict.BOUNDED
    return Result(verdict, checked_assignments=checked)
