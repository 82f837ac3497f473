"""Validity checking by rewriting + small-scope model search.

This module is the repository's substitute for the Z3 backend that
HyperViper uses (see ``docs/ARCHITECTURE.md``).  Given a boolean term,
:func:`check_validity` returns one of three verdicts:

* ``PROVED`` — rewriting folded the formula to ``true`` (sound,
  assumption-free), or every assignment in an *exhaustively enumerable*
  scope satisfies it and the caller declared the scope complete;
* ``REFUTED`` — a concrete counterexample assignment was found (always
  sound: the model is checked by evaluation);
* ``BOUNDED`` — no counterexample exists within the searched scope, but
  the scope is not known to be complete.  The verifier treats ``BOUNDED``
  like Z3's ``unsat`` of the negation within quantifier instantiation
  limits: acceptance is reported with the bound that was used.

``UNKNOWN`` is reported when the formula contains operations the
evaluator cannot interpret.

Performance architecture (see ``src/repro/smt/README.md``): terms are
hash-consed, so ``simplify``/``free_symvars``/``int_constants`` are
memoized per unique node; the boolean and theory fast paths run on the
CDCL core of :mod:`repro.smt.dpll` (first-UIP clause learning, VSIDS,
phase saving, Luby restarts) fed by a polarity-aware Tseitin
conversion, with a *propagator stack* pushing theory facts into the
search at every fixpoint — congruence closure for ``==``/``!=`` atoms
(:class:`repro.smt.euf.EqualityPropagator`) composed with an
incremental difference-logic constraint graph for integer
``<``/``<=``/``>``/``>=`` atoms
(:class:`repro.smt.arith.DifferenceLogicPropagator`).  Only formulas
outside those fragments (non-linear arithmetic, collection operations,
uninterpreted-function comparisons) reach the bounded enumeration,
which evaluates a *compiled* closure (:mod:`repro.smt.compile`) over a
single mutated assignment dict; and whole queries are cached across
calls (:mod:`repro.smt.cache`) keyed on the interned formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping, Optional

from . import cache as validity_cache
from .arith import is_difference_atom, normalize_equality_atom
from .cnf import BOOL_CONNECTIVES
from .compile import compile_term
from .euf import is_equality_atom
from .session import SolverSession
from .simplify import simplify
from .sorts import INT, IntSort, Scope, Sort
from .terms import App, Const, SymVar, Term, evaluate_term, free_symvars, int_constants


class Verdict(Enum):
    PROVED = "proved"
    BOUNDED = "bounded"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Result:
    verdict: Verdict
    model: Optional[Mapping[str, Any]] = None
    checked_assignments: int = 0
    #: True when this result was served from the cross-call validity cache.
    from_cache: bool = False
    #: Process-wide cache counters at the time this result was produced.
    cache_hits: int = 0
    cache_misses: int = 0

    def is_valid(self) -> bool:
        """Acceptance: PROVED or BOUNDED (no counterexample in scope)."""
        return self.verdict in (Verdict.PROVED, Verdict.BOUNDED)

    def __bool__(self) -> bool:
        return self.is_valid()


_MAX_ASSIGNMENTS = 200_000


def _integer_domain(sort: Sort) -> bool:
    """A sort override that keeps difference-logic reasoning sound: the
    full integers, or a finite enumerated sort whose values are all
    integers (validity over ℤ subsumes validity over any subset)."""
    if isinstance(sort, IntSort):
        return True
    values = getattr(sort, "values", None)  # finite enumerated sorts (vcgen)
    if values is not None:
        return all(
            isinstance(value, int) and not isinstance(value, bool)
            for value in values
        )
    return False


def _orders_safe(term: Term, sorts: Mapping[str, Sort] | None) -> bool:
    """Whether difference-logic reasoning may run on this query.

    A ``sorts`` override reinterpreting an INT-labelled variable over a
    non-integer domain (a collection-valued resource CELL) would make
    order/offset arithmetic on that variable unsound, so the order
    fragment is disabled exactly when such a variable occurs inside a
    difference-relevant atom — an order atom, or an equality the
    difference propagator would turn into edges."""
    if not sorts:
        return True
    unsafe = {
        name for name, sort in sorts.items() if not _integer_domain(sort)
    }
    if not unsafe:
        return True
    stack = [term]
    visited: set = set()
    while stack:
        current = stack.pop()
        if not isinstance(current, App):
            continue
        if current.op in BOOL_CONNECTIVES:
            marker = id(current)
            if marker in visited:
                continue
            visited.add(marker)
            stack.extend(current.args)
            continue
        if is_difference_atom(current) or (
            is_equality_atom(current)
            and normalize_equality_atom(current) is not None
        ):
            if any(v.name in unsafe for v in free_symvars(current)):
                return False
    return True


def check_validity(
    formula: Term,
    scope: Scope | None = None,
    sorts: Mapping[str, Sort] | None = None,
    exhaustive: bool = False,
    use_sat: bool = True,
    use_cache: bool = True,
    session: SolverSession | None = None,
    cache: "validity_cache.ValidityCache | None" = None,
) -> Result:
    """Check that ``formula`` holds for all assignments to its free
    symbolic variables.

    ``sorts`` overrides the sort recorded in each :class:`SymVar`;
    ``exhaustive=True`` asserts that the provided scope covers the entire
    semantic domain (finite problems), upgrading BOUNDED to PROVED.

    With ``use_sat`` (default), two sound fast paths run before the
    bounded enumeration: a CDCL check of the boolean skeleton (a
    propositional tautology is valid under every theory) and, for
    formulas whose atoms are ground (dis)equalities and/or integer
    difference-logic comparisons, a DPLL(T) search with eager theory
    propagation (congruence closure + difference constraint graph) —
    both yield genuine PROVED verdicts, not bounded ones.  Both fast
    paths always run on a :class:`~repro.smt.session.SolverSession`
    (assumption-activated VCs over one clause database): the one passed
    as ``session``, or a transient one built for this query, whose
    answer is the *fresh* verdict.  A warm session gives the fresh
    verdict on the propositional and pure-theory fragments and on
    out-of-fragment formulas; on the *mixed* equality/order fragment it
    may additionally decide a query a fresh session leaves to the
    enumerator — a sound strengthening of BOUNDED into PROVED, never a
    change of acceptance.

    With ``use_cache`` (default), decisive results are memoized across
    calls keyed on the interned formula + scope + sorts; repeated
    discharges of syntactically identical VCs are O(1).  When the
    process-wide cache has its persistent layer active (loaded from a
    ``--cache-dir`` store, or explicitly enabled), in-memory misses
    additionally consult the fingerprint-keyed persistent entries, so
    repeated CLI/CI invocations start warm.  Cache hits are flagged on
    the result (``from_cache``) and the process-wide hit/miss counters
    ride along on every result.

    ``cache`` passes an explicit :class:`~repro.smt.cache.ValidityCache`
    handle for this query; by default the current process default
    (:func:`repro.smt.cache.get_default`) is consulted — which
    :func:`repro.api.open_cache` scopes without any global singleton in
    the public path.
    """
    scope = scope or Scope()
    scope = scope.widen(tuple(int_constants(formula)))

    cache = cache if cache is not None else validity_cache.get_default()
    key = None
    pkey = None
    if use_cache:
        key = validity_cache.make_key(formula, scope, sorts, exhaustive, use_sat)
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                return replace(
                    hit,
                    model=dict(hit.model) if hit.model is not None else None,
                    from_cache=True,
                    cache_hits=cache.hits,
                    cache_misses=cache.misses,
                )
            if cache.persistence_enabled:
                pkey = validity_cache.persistent_key(
                    formula, scope, sorts, exhaustive, use_sat
                )
                if pkey is not None:
                    persisted = cache.get_persistent(pkey)
                    if persisted is not None:
                        # Promote into the in-memory layer so later
                        # lookups are O(1) identity-keyed hits.
                        cache.put(key, persisted)
                        return replace(
                            persisted,
                            model=dict(persisted.model)
                            if persisted.model is not None
                            else None,
                            from_cache=True,
                            cache_hits=cache.hits,
                            cache_misses=cache.misses,
                        )

    result = _check_validity(formula, scope, sorts, exhaustive, use_sat, session)
    if key is not None and result.verdict is not Verdict.UNKNOWN:
        # Store a private model snapshot so callers mutating their copy
        # cannot corrupt later hits.
        cache.put(
            key,
            replace(
                result,
                model=dict(result.model) if result.model is not None else None,
            ),
            persistent_key=pkey,
        )
    return replace(
        result,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def _check_validity(
    formula: Term,
    scope: Scope,
    sorts: Mapping[str, Sort] | None,
    exhaustive: bool,
    use_sat: bool,
    session: SolverSession | None = None,
) -> Result:
    simplified = simplify(formula)
    if simplified == Const(True):
        return Result(Verdict.PROVED)
    if simplified == Const(False):
        return Result(Verdict.REFUTED, model={})

    if use_sat:
        # The equality fragment is domain-generic and always on; the
        # order fragment is gated per query by _orders_safe.
        allow_orders = _orders_safe(simplified, sorts)
        if session is None:
            session = SolverSession()
        if session.propositionally_valid(simplified):
            return Result(Verdict.PROVED)
        theory = session.theory_valid(simplified, allow_orders=allow_orders)
        if theory is True:
            return Result(Verdict.PROVED)
        # theory False means a *theory* countermodel exists but no
        # concrete assignment is constructed; fall through so the
        # enumerator can exhibit one (or bound out).

    variables = sorted(free_symvars(simplified), key=lambda v: v.name)
    if not variables:
        # Closed but not folded: evaluate directly.
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

    try:
        evaluator = compile_term(simplified)
    except Exception:  # noqa: BLE001 — compilation is best-effort
        evaluator = lambda env: evaluate_term(simplified, env)  # noqa: E731

    names = [variable.name for variable in variables]
    assignment: dict[str, Any] = {}
    checked = 0
    for combo in itertools.product(*domains):
        for name, value in zip(names, combo):
            assignment[name] = value
        checked += 1
        if checked > _MAX_ASSIGNMENTS:
            return Result(Verdict.BOUNDED, checked_assignments=checked - 1)
        try:
            value = evaluator(assignment)
        except Exception:  # noqa: BLE001
            return Result(Verdict.UNKNOWN, checked_assignments=checked)
        if not value:
            return Result(
                Verdict.REFUTED, model=dict(assignment), checked_assignments=checked
            )
    verdict = Verdict.PROVED if exhaustive else Verdict.BOUNDED
    return Result(verdict, checked_assignments=checked)


def find_model(
    formula: Term,
    scope: Scope | None = None,
    sorts: Mapping[str, Sort] | None = None,
    session: SolverSession | None = None,
) -> Optional[Mapping[str, Any]]:
    """Find an assignment satisfying ``formula`` (SAT), or None in scope."""
    from .terms import negate

    result = check_validity(negate(formula), scope, sorts, session=session)
    if result.verdict == Verdict.REFUTED:
        return result.model
    return None
