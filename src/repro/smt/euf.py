"""Congruence closure: the decision procedure for ground equality with
uninterpreted functions (EUF), plus the theory propagator that plugs it
into the CDCL search of :mod:`repro.smt.dpll`.

Given asserted equalities ``s = t`` and disequalities ``s ≠ t`` between
ground terms, the conjunction is satisfiable iff, after closing the
equalities under congruence (``a = b ⟹ f(a) = f(b)``), no disequality
relates two terms of the same class.  This is the Nelson–Oppen-style
core theory Z3 applies to HyperViper's function-heavy verification
conditions.

The implementation is union-find with Downey–Sethi–Tarjan-style use
lists: every class representative keeps the list of parent applications
built over its members, and a union re-signs exactly those parents
against a signature table instead of rescanning every ``App`` per
fixpoint round.  Closure is maintained *eagerly* — ``merge`` leaves the
structure congruence-closed — which is what the incremental theory
propagation of :class:`EqualityPropagator` relies on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .terms import App, Const, Term

EQUALITY_OPS = frozenset({"==", "!="})


def is_equality_atom(term: Term) -> bool:
    """An atom of the EUF fragment: (dis)equality between ground terms."""
    return isinstance(term, App) and term.op in EQUALITY_OPS and len(term.args) == 2


def subterms(term: Term) -> Iterable[Term]:
    """All subterms, children before parents."""
    if isinstance(term, App):
        for arg in term.args:
            yield from subterms(arg)
    yield term


class CongruenceClosure:
    """Union-find over terms with use-list congruence propagation.

    The structure is kept congruence-closed after every ``merge``: a
    union moves the absorbed root's use list (the ``App`` nodes with an
    argument in that class) onto the surviving root and recomputes just
    those signatures against ``_sig``, queueing any newly congruent pair.
    Registration of an ``App`` likewise consults the signature table, so
    terms first seen *after* their arguments were merged still land in
    the right class.

    >>> from repro.smt.terms import App, SymVar
    >>> from repro.smt.sorts import INT
    >>> a, b = SymVar("a", INT), SymVar("b", INT)
    >>> cc = CongruenceClosure()
    >>> cc.merge(a, b)
    >>> cc.same(App("f", (a,)), App("f", (b,)))
    True
    """

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._uses: Dict[Term, List[App]] = {}
        self._sig: Dict[tuple, App] = {}
        self._pending: List[Tuple[Term, Term]] = []
        self._consts: List[Const] = []

    def _register(self, term: Term) -> None:
        if term in self._parent:
            return
        self._parent[term] = term
        self._uses[term] = []
        if isinstance(term, Const):
            self._consts.append(term)
            return
        if isinstance(term, App):
            for arg in term.args:
                self._register(arg)
            roots = tuple(self._root(arg) for arg in term.args)
            for root in roots:
                self._uses[root].append(term)
            signature = (term.op, roots)
            other = self._sig.get(signature)
            if other is None:
                self._sig[signature] = term
            else:
                self._pending.append((term, other))

    def _root(self, term: Term) -> Term:
        """Representative of an already-registered term (with path
        compression); does not drain pending congruences."""
        parent = self._parent
        root = term
        while parent[root] != root:
            root = parent[root]
        while parent[term] != root:
            parent[term], term = root, parent[term]
        return root

    def find(self, term: Term) -> Term:
        self._register(term)
        self._propagate()
        return self._root(term)

    def same(self, left: Term, right: Term) -> bool:
        self._register(left)
        self._register(right)
        self._propagate()
        return self._root(left) == self._root(right)

    def merge(self, left: Term, right: Term) -> None:
        self._register(left)
        self._register(right)
        self._pending.append((left, right))
        self._propagate()

    def constants(self) -> Sequence[Const]:
        """The registered constant terms (used for distinct-value checks)."""
        return self._consts

    def _union(self, left: Term, right: Term) -> None:
        root_left, root_right = self._root(left), self._root(right)
        if root_left == root_right:
            return
        uses = self._uses
        # Union by use-list weight: re-sign the smaller parent set.
        if len(uses[root_left]) > len(uses[root_right]):
            root_left, root_right = root_right, root_left
        self._parent[root_left] = root_right
        moved = uses[root_left]
        uses[root_left] = []
        sig = self._sig
        for parent_app in moved:
            signature = (
                parent_app.op,
                tuple(self._root(arg) for arg in parent_app.args),
            )
            other = sig.get(signature)
            if other is None:
                sig[signature] = parent_app
            elif self._root(other) != self._root(parent_app):
                self._pending.append((parent_app, other))
        uses[root_right].extend(moved)

    def _propagate(self) -> None:
        pending = self._pending
        while pending:
            left, right = pending.pop()
            self._union(left, right)

    def _close(self) -> None:
        """Drain pending congruences.  Kept for API compatibility — the
        closure is maintained eagerly through the use lists, so this no
        longer rescans the term universe."""
        self._propagate()

    def classes(self) -> Dict[Term, frozenset]:
        """The current partition, keyed by representative."""
        self._propagate()
        groups: Dict[Term, set] = {}
        for term in self._parent:
            groups.setdefault(self._root(term), set()).add(term)
        return {root: frozenset(members) for root, members in groups.items()}


def congruence_closure_consistent(
    equalities: Sequence[Tuple[Term, Term]],
    disequalities: Sequence[Tuple[Term, Term]],
) -> bool:
    """Satisfiability of ``⋀ eqs ∧ ⋀ neqs`` over uninterpreted terms.

    Distinct constants are distinct values, so asserted equalities that
    merge two different :class:`Const` terms are inconsistent too.
    """
    cc = CongruenceClosure()
    for left, right in equalities:
        cc.merge(left, right)
    # Different constants in one class: inconsistent.
    labels: Dict[Term, Const] = {}
    for constant in cc.constants():
        root = cc.find(constant)
        seen = labels.get(root)
        if seen is not None and seen.value != constant.value:
            return False
        labels.setdefault(root, constant)
    for left, right in disequalities:
        if cc.same(left, right):
            return False
        # x ≠ x is inconsistent even without merges.
        if left == right:
            return False
    return True


class EqualityPropagator:
    """DPLL(T) theory propagator for the ground equality fragment.

    Mirrors the boolean trail of a :class:`~repro.smt.dpll.WatchedSolver`
    into an incrementally extended :class:`CongruenceClosure`.  At every
    boolean propagation fixpoint the solver calls :meth:`check`, which

    * reports a **theory conflict** as soon as an asserted disequality
      relates two merged terms or a class holds two distinct constants
      (no need to wait for a full boolean model), and
    * **propagates entailed atoms**: an unassigned equality atom whose
      sides share a class is enqueued true; one whose sides are related
      by an asserted disequality (up to congruence) or sit in classes
      labelled with distinct constants is enqueued false.

    Explanations over-approximate: a conflict/implication is blamed on
    the full set of asserted equality literals (plus the one disequality
    involved).  That keeps explanation generation O(1) per premise at
    the cost of somewhat wider learned clauses — ample for the VC-sized
    instances this repository discharges.

    Assertions are incremental in the forward direction (each new
    equality is one ``merge``); a backjump marks the closure dirty and
    the next use rebuilds it from the surviving prefix of the trail.

    The ``reset`` / ``assert_literal`` / ``backjump`` / ``check`` /
    ``atom_vars`` / ``rescan`` protocol is shared with
    :class:`repro.smt.arith.DifferenceLogicPropagator`; the two compose
    in a :class:`repro.smt.arith.PropagatorStack` over one trail for
    the mixed equality/order fragment (see ``smt/README.md``,
    "The theory propagator stack").
    """

    def __init__(self, table) -> None:
        #: var -> (left, right, positive-literal-means-equality)
        self._atoms: Dict[int, Tuple[Term, Term, bool]] = {}
        self._table = table
        #: the atoms currently mirrored and propagated — an alias of
        #: ``_atoms`` until :meth:`focus` narrows it, so the unfocused
        #: hot path pays nothing.
        self._live: Dict[int, Tuple[Term, Term, bool]] = self._atoms
        self.rescan()
        self._stack: List[int] = []  # mirrored trail (0 for ignored literals)
        self._eq_lits: List[int] = []
        self._diseqs: List[Tuple[int, Term, Term]] = []
        self._cc = CongruenceClosure()
        self._dirty = False
        self.propagations = 0
        self.conflicts = 0

    def atom_vars(self) -> Iterable[int]:
        """The boolean variables this propagator may assert or consume."""
        return self._atoms.keys()

    def rescan(self) -> None:
        """Pick up atoms added to the table since construction.

        A :class:`~repro.smt.session.SolverSession` keeps one propagator
        over a *growing* shared atom table: each new VC may introduce new
        equality atoms, registered here before the next ``solve``.  Known
        atoms keep their entries (the dict is only extended), so the
        mirrored trail stays consistent across rescans.
        """
        atoms = self._atoms
        for index, term in self._table.atoms().items():
            if index not in atoms and is_equality_atom(term):
                left, right = term.args
                atoms[index] = (left, right, term.op == "==")

    def focus(self, variables: "Iterable[int] | None") -> None:
        """Restrict mirroring and propagation to these atom vars (None =
        every known atom).  A shared session focuses each activated
        query on its own atoms: stale atoms from retired queries are
        treated exactly like a fresh solver that never saw them."""
        if variables is None:
            self._live = self._atoms
        else:
            atoms = self._atoms
            self._live = {
                var: atoms[var] for var in variables if var in atoms
            }

    def reset(self) -> None:
        """Forget the mirrored trail (start of a ``solve`` call)."""
        self._stack.clear()
        self._dirty = True

    def assert_literal(self, literal: int) -> None:
        """Mirror one trail literal (ignored unless it is a focused
        equality atom)."""
        info = self._live.get(abs(literal))
        if info is None:
            self._stack.append(0)
            return
        self._stack.append(literal)
        if not self._dirty:
            self._apply(literal, info)

    def backjump(self, keep: int) -> None:
        """Truncate the mirrored trail to its first ``keep`` entries."""
        del self._stack[keep:]
        self._dirty = True

    def _apply(self, literal: int, info: Tuple[Term, Term, bool]) -> None:
        left, right, positive_is_eq = info
        if (literal > 0) == positive_is_eq:
            self._cc.merge(left, right)
            self._eq_lits.append(literal)
        else:
            self._diseqs.append((literal, left, right))

    def _rebuild(self) -> None:
        self._cc = CongruenceClosure()
        self._eq_lits = []
        self._diseqs = []
        atoms = self._atoms
        for literal in self._stack:
            if literal:
                self._apply(literal, atoms[abs(literal)])
        self._dirty = False

    def check(self, assign: List[int]):
        """Theory-check the mirrored trail.

        ``assign`` is the solver's *literal-indexed* value array
        (``assign[2 * var]`` is 0 unassigned, ±1 for the positive
        literal's truth).  Returns ``("conflict", clause)`` with every
        clause literal currently false, or ``("ok", propagations)``
        where each propagation is ``(literal, premises)`` — premises are
        the true literals entailing it.
        """
        if self._dirty:
            self._rebuild()
        cc = self._cc
        premises = self._eq_lits
        # 1. Asserted disequality inside one class → conflict; otherwise
        #    remember the root pair for entailed-false propagation.
        diseq_by_roots: Dict[Tuple[Term, Term], int] = {}
        for literal, left, right in self._diseqs:
            root_left, root_right = cc.find(left), cc.find(right)
            if root_left == root_right:
                self.conflicts += 1
                clause = [-literal]
                clause.extend(-e for e in premises)
                return "conflict", clause
            diseq_by_roots[(root_left, root_right)] = literal
            diseq_by_roots[(root_right, root_left)] = literal
        # 2. Two distinct constants in one class → conflict; otherwise
        #    label roots for entailed-false propagation.
        labels: Dict[Term, Const] = {}
        for constant in cc.constants():
            root = cc.find(constant)
            seen = labels.get(root)
            if seen is not None and seen.value != constant.value:
                self.conflicts += 1
                return "conflict", [-e for e in premises]
            labels.setdefault(root, constant)
        # 3. Entailed atoms among the unassigned ones (restricted to the
        #    focused query's atoms when a session set a focus).
        implied: List[Tuple[int, List[int]]] = []
        n = len(assign)
        for var, (left, right, positive_is_eq) in self._live.items():
            encoded = var << 1
            if encoded < n and assign[encoded] != 0:
                continue
            root_left, root_right = cc.find(left), cc.find(right)
            if root_left == root_right:
                literal = var if positive_is_eq else -var
                implied.append((literal, list(premises)))
                continue
            diseq_literal = diseq_by_roots.get((root_left, root_right))
            if diseq_literal is not None:
                literal = -var if positive_is_eq else var
                implied.append((literal, [diseq_literal] + premises))
                continue
            label_left = labels.get(root_left)
            label_right = labels.get(root_right)
            if (
                label_left is not None
                and label_right is not None
                and label_left.value != label_right.value
            ):
                literal = -var if positive_is_eq else var
                implied.append((literal, list(premises)))
        self.propagations += len(implied)
        return "ok", implied
