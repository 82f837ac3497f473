"""Difference-logic theory propagation for integer order atoms.

The DPLL(T) core of :mod:`repro.smt.dpll` propagates equality atoms
through congruence closure (:class:`repro.smt.euf.EqualityPropagator`);
before this module every verification condition mixing *order* atoms
(``<``/``<=``/``>``/``>=``) fell back to bounded model enumeration.
This module closes that gap for the **integer difference-logic
fragment**: atoms that normalize to a difference constraint

    ``u - v <= k``        (``u``, ``v`` integer variables, ``k ∈ ℤ``)

after folding strictness (``u < v  ⟺  u - v <= -1`` over the integers)
and moving ``± constant`` offsets into the bound.  The decision
procedure is the classical constraint graph: a conjunction of
difference constraints is satisfiable iff the graph with one edge
``v →(k) u`` per constraint has no negative cycle, and a constraint is
entailed iff a path of total weight ``<= k`` connects ``v`` to ``u``.

:class:`DifferenceLogicPropagator` maintains that graph *incrementally
along the boolean trail* (the same assert / backjump / check protocol as
``EqualityPropagator``):

* each asserted order literal adds its edge and repairs a feasible
  **potential function** with a Dijkstra-style relaxation (Cotton–Maler;
  the incremental form of Bellman–Ford — only nodes whose potential the
  new edge disturbs are re-relaxed);
* a relaxation that reaches back to the new edge's tail has found a
  **negative cycle**: the theory conflict is reported with a *minimal
  explanation* — exactly the literals labelling the cycle's edges;
* at every propagation fixpoint, unassigned atoms whose constraint (or
  whose negation) is entailed by a shortest path are enqueued into the
  boolean trail, with the path's literals as premises.

Equality atoms between difference-logic terms participate too: an
asserted ``x == y`` contributes the edge pair ``x - y <= 0`` /
``y - x <= 0``, and a tight pair of paths propagates the equality atom
back — so the equality and difference-logic propagators of a
:class:`PropagatorStack` exchange entailed equalities *through the
shared boolean trail* without a bespoke Nelson–Oppen channel.

:func:`mixed_consistent` is the model-level companion: the joint
EUF + difference-logic satisfiability check applied to full boolean
models in the mixed fragment, with equality exchange run to a fixpoint
in both directions.  Its "inconsistent" verdicts are always genuine
(each round only adds entailed facts), which is what makes the blocking
clauses of the mixed DPLL(T) loop globally sound theory lemmas; a
"consistent" verdict outside the exchanged envelope merely sends the
caller to the bounded enumerator.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .euf import CongruenceClosure, is_equality_atom
from .sorts import INT
from .terms import App, Const, SymVar, Term

ORDER_OPS = frozenset({"<", "<=", ">", ">="})


def is_order_atom(term: Term) -> bool:
    """A binary comparison atom (not necessarily difference-logic)."""
    return isinstance(term, App) and term.op in ORDER_OPS and len(term.args) == 2


class _ZeroNode:
    """The distinguished graph node interpreted as the integer 0, so
    one-sided bounds (``x <= 3``) become difference constraints too."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return "«0»"


ZERO = _ZeroNode()

#: A difference constraint ``u - v <= k``: (u, v, k).
Constraint = Tuple[object, object, int]


def _linear(term: Term, sign: int, coeffs: Dict[Term, int]) -> Optional[int]:
    """Accumulate ``sign * term`` into ``coeffs`` as a ±1 linear
    combination of integer variables; returns the constant part, or
    None if the term is outside the fragment."""
    if isinstance(term, Const):
        value = term.value
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return sign * value
    if isinstance(term, SymVar):
        if term.sort != INT:
            return None
        coeffs[term] = coeffs.get(term, 0) + sign
        return 0
    if isinstance(term, App):
        if term.op == "+" and len(term.args) == 2:
            left = _linear(term.args[0], sign, coeffs)
            if left is None:
                return None
            right = _linear(term.args[1], sign, coeffs)
            return None if right is None else left + right
        if term.op == "-" and len(term.args) == 2:
            left = _linear(term.args[0], sign, coeffs)
            if left is None:
                return None
            right = _linear(term.args[1], -sign, coeffs)
            return None if right is None else left + right
        if term.op == "neg" and len(term.args) == 1:
            return _linear(term.args[0], -sign, coeffs)
    return None


def _difference(left: Term, right: Term) -> Optional[Tuple[object, object, int]]:
    """``left - right`` as ``u - v + c`` with at most one positive and
    one negative variable (``ZERO`` standing in for an absent side)."""
    coeffs: Dict[Term, int] = {}
    left_const = _linear(left, 1, coeffs)
    if left_const is None:
        return None
    right_const = _linear(right, -1, coeffs)
    if right_const is None:
        return None
    positive = [v for v, c in coeffs.items() if c == 1]
    negative = [v for v, c in coeffs.items() if c == -1]
    balanced = len(positive) + len(negative) == sum(
        1 for c in coeffs.values() if c != 0
    )
    if not balanced or len(positive) > 1 or len(negative) > 1:
        return None
    u = positive[0] if positive else ZERO
    v = negative[0] if negative else ZERO
    return u, v, left_const + right_const


def normalize_order_atom(atom: Term) -> Optional[Constraint]:
    """The difference constraint ``u - v <= k`` asserted by the
    *positive* literal of an order atom, or None outside the fragment.

    ``>``/``>=`` swap sides; strict bounds shift by one (integers)."""
    if not is_order_atom(atom):
        return None
    left, right = atom.args
    op = atom.op
    if op in (">", ">="):
        left, right = right, left
        strict = op == ">"
    else:
        strict = op == "<"
    parts = _difference(left, right)
    if parts is None:
        return None
    u, v, constant = parts
    return u, v, (-1 if strict else 0) - constant


def normalize_equality_atom(atom: Term) -> Optional[Tuple[Constraint, Constraint]]:
    """The edge pair asserted by an integer equality ``left == right``
    (``u - v <= d`` and ``v - u <= -d``), or None outside the fragment."""
    if not is_equality_atom(atom):
        return None
    parts = _difference(*atom.args)
    if parts is None:
        return None
    u, v, constant = parts
    return (u, v, -constant), (v, u, constant)


def negated_constraint(constraint: Constraint) -> Constraint:
    """``¬(u - v <= k)  ⟺  v - u <= -k - 1`` over the integers."""
    u, v, k = constraint
    return v, u, -k - 1


def is_difference_atom(term: Term) -> bool:
    """An order atom the difference-logic propagator can decide."""
    return normalize_order_atom(term) is not None


def is_offset_equality_atom(term: Term) -> bool:
    """An integer equality atom carrying arithmetic structure (an offset
    or subtraction on a side), so congruence closure alone cannot see
    its difference content — ``x == y + 1`` is consistent for EUF even
    alongside ``y == x + 1``.  Such atoms route a formula into the mixed
    loop even when no order atom occurs."""
    if not is_equality_atom(term) or normalize_equality_atom(term) is None:
        return False
    return any(
        isinstance(side, App) and side.op in ("+", "-", "neg")
        for side in term.args
    )


# ---------------------------------------------------------------------------
# The theory propagator
# ---------------------------------------------------------------------------


class DifferenceLogicPropagator:
    """DPLL(T) theory propagator for the integer difference fragment.

    Implements the same protocol as
    :class:`repro.smt.euf.EqualityPropagator` — ``reset`` /
    ``assert_literal`` / ``backjump`` / ``check`` / ``atom_vars`` /
    ``rescan`` — so the two compose in a :class:`PropagatorStack` over
    one boolean trail.

    The constraint graph carries one edge ``v →(k) u`` per asserted
    constraint ``u - v <= k``, together with a *potential* ``π`` keeping
    every edge's reduced cost ``π(v) + k - π(u)`` non-negative (a
    feasible solution, maintained by incremental Bellman–Ford
    relaxation).  Asserts are incremental in the forward direction; a
    backjump marks the graph dirty and the next use replays the
    surviving prefix of the mirrored trail (the potential survives as a
    warm start — removing edges never invalidates it).

    Conflict explanations are **minimal**: exactly the literals
    labelling the edges of the detected negative cycle.  Propagation
    premises are the literals along the entailing shortest path.
    """

    __slots__ = (
        "_table", "_atoms", "_atoms_by_node", "_trivial", "_live",
        "_stack", "_dirty",
        "_pi", "_out", "_edges", "_active", "_conflict", "_tick",
        "propagations", "conflicts",
    )

    def __init__(self, table) -> None:
        self._table = table
        #: var -> ("order", constraint) | ("eq", edge, mirror, positive_is_eq)
        self._atoms: Dict[int, tuple] = {}
        #: node -> atom vars mentioning it, so a check only visits atoms
        #: whose nodes the *current* constraint graph touches — per-query
        #: cost stays proportional to the query, not to the lifetime of
        #: a session's shared atom table.
        self._atoms_by_node: Dict[object, List[int]] = {}
        #: atoms whose constraint relates a node to itself (``x <= x+3``):
        #: constant-valued, propagated premise-free.
        self._trivial: List[int] = []
        #: the atoms currently mirrored and propagated — an alias of
        #: ``_atoms`` until :meth:`focus` narrows it, so the unfocused
        #: hot path pays nothing.
        self._live: Dict[int, tuple] = self._atoms
        self.rescan()
        self._stack: List[int] = []  # mirrored trail (0 for ignored literals)
        self._dirty = False
        self._pi: Dict[object, int] = {}
        self._out: Dict[object, List[int]] = {}
        self._edges: List[Tuple[object, object, int, int]] = []
        self._active: set = set()  # nodes incident to a current edge
        self._conflict: Optional[List[int]] = None
        self._tick = count()  # heap tiebreaker: graph nodes are unordered
        self.propagations = 0
        self.conflicts = 0

    # -- protocol ---------------------------------------------------------

    def atom_vars(self) -> Iterable[int]:
        """The boolean variables this propagator may assert or consume."""
        return self._atoms.keys()

    def rescan(self) -> None:
        """Pick up atoms added to the shared table since construction
        (sessions grow one table across VCs); known atoms keep their
        entries, so the mirrored trail stays consistent."""
        atoms = self._atoms
        by_node = self._atoms_by_node
        for index, term in self._table.atoms().items():
            if index in atoms:
                continue
            constraint = normalize_order_atom(term)
            if constraint is not None:
                atoms[index] = ("order", constraint)
            else:
                pair = normalize_equality_atom(term)
                if pair is None:
                    continue
                atoms[index] = ("eq", pair[0], pair[1], term.op == "==")
                constraint = pair[0]
            u, v, _k = constraint
            if u is v:
                self._trivial.append(index)
            else:
                by_node.setdefault(u, []).append(index)
                by_node.setdefault(v, []).append(index)

    def focus(self, variables: "Optional[Iterable[int]]") -> None:
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
        """Mirror one trail literal (ignored unless a focused
        difference-logic atom)."""
        info = self._live.get(abs(literal))
        if info is None:
            self._stack.append(0)
            return
        self._stack.append(literal)
        if not self._dirty and self._conflict is None:
            self._apply(literal, info)

    def backjump(self, keep: int) -> None:
        """Truncate the mirrored trail to its first ``keep`` entries."""
        del self._stack[keep:]
        self._dirty = True

    def check(self, assign: Sequence[int]):
        """Theory-check the mirrored trail.

        Returns ``("conflict", clause)`` — every clause literal false,
        the negations of a negative cycle's labels — or
        ``("ok", propagations)`` with ``(literal, premises)`` pairs."""
        if self._dirty:
            self._rebuild()
        if self._conflict is not None:
            return "conflict", [-literal for literal in self._conflict]
        implied: List[Tuple[int, List[int]]] = []
        shortest: Dict[object, tuple] = {}
        n = len(assign)
        # A non-trivial atom is only entailable through a path between
        # its two nodes, which requires both to be incident to current
        # edges: visit exactly those (plus the constant-valued ones),
        # keeping the scan proportional to the query rather than to the
        # whole shared session table.
        active = self._active
        by_node = self._atoms_by_node
        live = self._live
        candidates: List[int] = [var for var in self._trivial if var in live]
        seen: set = set(candidates)
        for node in active:
            for var in by_node.get(node, ()):
                if var not in seen and var in live:
                    seen.add(var)
                    candidates.append(var)
        for var in candidates:
            info = live[var]
            u, v, _k = info[1]
            if u is not v and (u not in active or v not in active):
                continue  # no path can connect them in the current graph
            # assign is literal-indexed: slot 2*var carries the value of
            # the positive literal (0 unassigned, ±1).
            value = assign[var << 1] if (var << 1) < n else 0
            if info[0] == "order":
                # An assigned order atom's constraint is an edge, so any
                # contradiction already surfaced as a negative cycle;
                # only unassigned ones can still be propagated.
                if value != 0:
                    continue
                constraint = info[1]
                premises = self._entails(constraint, shortest)
                if premises is not None:
                    implied.append((var, premises))
                    continue
                premises = self._entails(negated_constraint(constraint), shortest)
                if premises is not None:
                    implied.append((-var, premises))
                continue
            _kind, edge, mirror, positive_is_eq = info
            true_literal = var if positive_is_eq else -var
            asserted_true = value != 0 and (value > 0) == (true_literal > 0)
            if not asserted_true:
                forward = self._entails(edge, shortest)
                if forward is not None:
                    backward = self._entails(mirror, shortest)
                    if backward is not None:
                        implied.append((true_literal, _dedupe(forward + backward)))
                        continue
            asserted_false = value != 0 and not asserted_true
            if not asserted_false:
                refuted = self._entails(negated_constraint(edge), shortest)
                if refuted is None:
                    refuted = self._entails(negated_constraint(mirror), shortest)
                if refuted is not None:
                    implied.append((-true_literal, refuted))
        self.propagations += len(implied)
        return "ok", implied

    # -- constraint graph -------------------------------------------------

    def _constraints_for(self, literal: int, info: tuple) -> Tuple[Constraint, ...]:
        if info[0] == "order":
            constraint = info[1]
            return (constraint,) if literal > 0 else (negated_constraint(constraint),)
        _kind, edge, mirror, positive_is_eq = info
        if (literal > 0) == positive_is_eq:
            return edge, mirror  # asserted equality: both directions
        return ()  # a disequality is disjunctive: left to congruence closure

    def _apply(self, literal: int, info: tuple) -> None:
        for constraint in self._constraints_for(literal, info):
            cycle = self._add_edge(constraint, literal)
            if cycle is not None:
                self._conflict = cycle
                self.conflicts += 1
                return

    def _rebuild(self) -> None:
        self._out = {}
        self._edges = []
        self._active = set()
        self._conflict = None
        self._dirty = False
        atoms = self._atoms
        for literal in self._stack:
            if literal and self._conflict is None:
                self._apply(literal, atoms[abs(literal)])

    def _add_edge(self, constraint: Constraint, literal: int) -> Optional[List[int]]:
        """Add ``u - v <= k``; repair the potential; the literals of a
        negative cycle if the new edge closes one, else None."""
        u, v, k = constraint
        if u is v:
            return [literal] if k < 0 else None  # x - x <= k
        pi = self._pi
        pi.setdefault(u, 0)
        pi.setdefault(v, 0)
        index = len(self._edges)
        self._edges.append((v, u, k, literal))
        self._out.setdefault(v, []).append(index)
        self._active.add(u)
        self._active.add(v)
        slack = pi[v] + k - pi[u]
        if slack >= 0:
            return None
        # Dijkstra-style relaxation over reduced costs from the edge's
        # head: decrease π only where the new edge forces it.
        needed: Dict[object, int] = {u: slack}
        pred: Dict[object, int] = {u: index}
        done: set = set()
        tick = self._tick
        heap: List[tuple] = [(slack, next(tick), u)]
        edges = self._edges
        out = self._out
        while heap:
            drop, _, node = heappop(heap)
            if node in done or drop > needed.get(node, 0):
                continue
            if drop >= 0:
                break
            if node is v:
                # Reached the new edge's tail with a net decrease: the
                # pred chain plus the new edge is a negative cycle.
                literals: List[int] = []
                current = v
                while True:
                    edge_index = pred[current]
                    source, _dst, _w, label = edges[edge_index]
                    literals.append(label)
                    if edge_index == index:
                        return _dedupe(literals)
                    current = source
            done.add(node)
            pi[node] += drop
            needed[node] = 0
            for edge_index in out.get(node, ()):
                _src, target, weight, _label = edges[edge_index]
                if target in done:
                    continue
                slack = pi[node] + weight - pi[target]
                if slack < needed.get(target, 0):
                    needed[target] = slack
                    pred[target] = edge_index
                    heappush(heap, (slack, next(tick), target))
        return None

    def _shortest_from(self, source) -> tuple:
        """Shortest reduced-cost distances and predecessor edges from
        ``source`` (Dijkstra; the potential keeps weights non-negative)."""
        pi = self._pi
        edges = self._edges
        out = self._out
        dist: Dict[object, int] = {source: 0}
        pred: Dict[object, int] = {}
        done: set = set()
        tick = self._tick
        heap: List[tuple] = [(0, next(tick), source)]
        while heap:
            d, _, node = heappop(heap)
            if node in done:
                continue
            done.add(node)
            for edge_index in out.get(node, ()):
                _src, target, weight, _label = edges[edge_index]
                if target in done:
                    continue
                candidate = d + pi[node] + weight - pi[target]
                if candidate < dist.get(target, candidate + 1):
                    dist[target] = candidate
                    pred[target] = edge_index
                    heappush(heap, (candidate, next(tick), target))
        return dist, pred

    def _entails(self, constraint: Constraint, shortest: Dict[object, tuple]):
        """The premise literals entailing ``u - v <= k`` (a path from
        ``v`` to ``u`` of weight ``<= k``), or None if not entailed."""
        u, v, k = constraint
        if u is v:
            return [] if k >= 0 else None
        pi = self._pi
        if u not in pi or v not in pi:
            return None
        paths = shortest.get(v)
        if paths is None:
            paths = shortest[v] = self._shortest_from(v)
        dist, pred = paths
        reduced = dist.get(u)
        if reduced is None or reduced + pi[u] - pi[v] > k:
            return None
        literals: List[int] = []
        node = u
        while node is not v:
            edge_index = pred[node]
            source, _dst, _w, label = self._edges[edge_index]
            literals.append(label)
            node = source
        return _dedupe(literals)


def _dedupe(literals: List[int]) -> List[int]:
    seen: set = set()
    unique: List[int] = []
    for literal in literals:
        if literal not in seen:
            seen.add(literal)
            unique.append(literal)
    return unique


# ---------------------------------------------------------------------------
# Propagator composition
# ---------------------------------------------------------------------------


class PropagatorStack:
    """Several theory propagators sharing one boolean trail.

    Implements the propagator protocol itself, so
    :meth:`repro.smt.dpll.WatchedSolver.attach_theory` accepts a stack
    wherever it accepts a single propagator.  Trail events fan out to
    every element; ``check`` returns the first conflict, otherwise the
    concatenated propagations.  Elements exchange entailed facts
    *through the trail*: a literal one theory propagates is mirrored
    into every other theory at the next fixpoint.
    """

    __slots__ = ("_propagators",)

    def __init__(self, *propagators) -> None:
        self._propagators = tuple(propagators)

    @property
    def elements(self) -> tuple:
        return self._propagators

    def atom_vars(self) -> Iterable[int]:
        variables: set = set()
        for propagator in self._propagators:
            variables.update(propagator.atom_vars())
        return variables

    def rescan(self) -> None:
        for propagator in self._propagators:
            propagator.rescan()

    def focus(self, variables) -> None:
        for propagator in self._propagators:
            propagator.focus(variables)

    def reset(self) -> None:
        for propagator in self._propagators:
            propagator.reset()

    def assert_literal(self, literal: int) -> None:
        for propagator in self._propagators:
            propagator.assert_literal(literal)

    def backjump(self, keep: int) -> None:
        for propagator in self._propagators:
            propagator.backjump(keep)

    def check(self, assign: Sequence[int]):
        implied: List[Tuple[int, List[int]]] = []
        for propagator in self._propagators:
            status, payload = propagator.check(assign)
            if status == "conflict":
                return status, payload
            implied.extend(payload)
        return "ok", implied

    @property
    def propagations(self) -> int:
        return sum(p.propagations for p in self._propagators)

    @property
    def conflicts(self) -> int:
        return sum(p.conflicts for p in self._propagators)


# ---------------------------------------------------------------------------
# Model-level joint consistency (the mixed fragment's blocking oracle)
# ---------------------------------------------------------------------------


def _floyd_warshall(nodes: List[object], edges: List[Constraint]):
    """All-pairs shortest paths; None when a negative cycle exists."""
    dist: Dict[object, Dict[object, int]] = {a: {a: 0} for a in nodes}
    for u, v, k in edges:
        row = dist.setdefault(v, {v: 0})
        if k < row.get(u, k + 1):
            row[u] = k
        dist.setdefault(u, {u: 0})
    for middle in dist:
        middle_row = dist[middle]
        for a in dist:
            through = dist[a].get(middle)
            if through is None:
                continue
            row = dist[a]
            for b, tail in list(middle_row.items()):
                candidate = through + tail
                if candidate < row.get(b, candidate + 1):
                    row[b] = candidate
    for a in dist:
        if dist[a].get(a, 0) < 0:
            return None
    return dist


def _node_term(node) -> Term:
    return Const(0) if node is ZERO else node


def mixed_consistent(
    equalities: Sequence[Tuple[Term, Term]],
    disequalities: Sequence[Tuple[Term, Term]],
    orders: Sequence[Tuple[Term, bool]],
) -> bool:
    """Joint satisfiability of ``⋀ eqs ∧ ⋀ neqs ∧ ⋀ orders`` over
    EUF + integer difference logic.

    ``orders`` pairs each order atom with its asserted boolean value;
    every atom must be in the difference fragment (the callers check the
    whole formula before entering the mixed DPLL(T) loop).

    Equalities are exchanged between the theories to a fixpoint:
    congruence-merged difference variables become zero-weight edge
    pairs, and tight difference cycles (``dist(a,b) = dist(b,a) = 0``,
    or a variable pinned to an exact constant) become merges.  Every
    exchanged fact is entailed, so an "inconsistent" verdict is genuine
    — the property the mixed loop's unguarded blocking lemmas rely on.
    A "consistent" verdict outside this envelope is an
    over-approximation; the caller falls back to bounded enumeration.
    """
    constraints: List[Constraint] = []
    for atom, value in orders:
        constraint = normalize_order_atom(atom)
        if constraint is None:
            raise ValueError(f"not a difference-logic atom: {atom!r}")
        constraints.append(constraint if value else negated_constraint(constraint))
    return _search_consistent(
        list(equalities), list(disequalities), constraints, _SPLIT_LIMIT
    )


#: Bound on disequality case splits per model-level check (each split
#: resolves one diseq whose pinpoint sits inside a bounded difference
#: range, so the worst case is 2^limit tiny graph checks).
_SPLIT_LIMIT = 8


def _search_consistent(
    equalities: List[Tuple[Term, Term]],
    disequalities: List[Tuple[Term, Term]],
    constraints: List[Constraint],
    splits: int,
) -> bool:
    derived: List[Tuple[Term, Term]] = []
    while True:
        closure = CongruenceClosure()
        for left, right in equalities:
            closure.merge(left, right)
        for left, right in derived:
            closure.merge(left, right)
        # Distinct constants in one class: inconsistent (and label the
        # classes so difference variables pinned by EUF gain bounds).
        labels: Dict[Term, Const] = {}
        for constant in closure.constants():
            root = closure.find(constant)
            seen = labels.get(root)
            if seen is not None and seen.value != constant.value:
                return False
            labels.setdefault(root, constant)
        for left, right in disequalities:
            if left == right or closure.same(left, right):
                return False

        edges = list(constraints)
        for left, right in equalities:
            pair = normalize_equality_atom(App("==", (left, right)))
            if pair is not None:
                edges.extend(pair)
        nodes: List[object] = []
        seen_nodes: set = set()
        for u, v, _k in edges:
            for node in (u, v):
                if node not in seen_nodes:
                    seen_nodes.add(node)
                    nodes.append(node)
        # EUF → difference logic: merged variables are zero apart, and a
        # class labelled with an integer constant pins its variables.
        by_root: Dict[Term, List[object]] = {}
        for node in nodes:
            root = closure.find(_node_term(node))
            by_root.setdefault(root, []).append(node)
            label = labels.get(root)
            if (
                node is not ZERO
                and label is not None
                and isinstance(label.value, int)
                and not isinstance(label.value, bool)
            ):
                if ZERO not in seen_nodes:
                    seen_nodes.add(ZERO)
                    nodes.append(ZERO)
                edges.append((node, ZERO, label.value))
                edges.append((ZERO, node, -label.value))
        for group in by_root.values():
            for first, second in zip(group, group[1:]):
                edges.append((first, second, 0))
                edges.append((second, first, 0))

        dist = _floyd_warshall(nodes, edges)
        if dist is None:
            return False  # negative cycle
        # A disequality whose sides the difference constraints pin to
        # the same value is inconsistent (covers offset terms like
        # ``y ≠ x + 1`` under ``x < y ∧ y < x + 2``, which no
        # congruence merge can express).
        for left, right in disequalities:
            parts = _difference(left, right)
            if parts is None:
                continue
            u, v, offset = parts  # left - right = (u - v) + offset
            if u is v:
                if offset == 0:
                    return False
                continue
            upper = dist.get(v, {}).get(u)  # strongest bound on u - v
            lower = dist.get(u, {}).get(v)  # strongest bound on v - u
            if (
                upper is not None
                and lower is not None
                and upper <= -offset
                and lower <= offset
            ):
                return False  # u - v forced to exactly -offset
        # Difference logic → EUF: tight cycles force equalities.
        new_equalities: List[Tuple[Term, Term]] = []
        for i, a in enumerate(nodes):
            row = dist.get(a, {})
            for b in nodes[i + 1:]:
                forward = row.get(b)
                backward = dist.get(b, {}).get(a)
                if forward == 0 and backward == 0:
                    term_a, term_b = _node_term(a), _node_term(b)
                    if not closure.same(term_a, term_b):
                        new_equalities.append((term_a, term_b))
        if ZERO in seen_nodes:
            zero_row = dist.get(ZERO, {})
            for node in nodes:
                if node is ZERO:
                    continue
                upper = zero_row.get(node)
                lower = dist.get(node, {}).get(ZERO)
                if upper is not None and lower is not None and upper + lower == 0:
                    pinned = Const(upper)
                    term = _node_term(node)
                    if not closure.same(term, pinned):
                        new_equalities.append((term, pinned))
        if not new_equalities:
            break
        derived.extend(new_equalities)

    # Exchange fixpoint reached without contradiction.  A disequality
    # whose pinpoint lies strictly inside a *bounded* difference range
    # is not decided by either theory alone (``0 <= x <= 1 ∧ x ≠ 0 ∧
    # x ≠ 1`` is the classic non-convexity case): split it into the two
    # integer-complement half-ranges and recurse.  The split is
    # exhaustive, so a both-branches-fail verdict is still genuine.
    if splits > 0:
        for left, right in disequalities:
            parts = _difference(left, right)
            if parts is None:
                continue
            u, v, offset = parts  # left - right = (u - v) + offset
            if u is v:
                continue  # constant difference: settled above
            upper = dist.get(v, {}).get(u)  # strongest bound on u - v
            lower = dist.get(u, {}).get(v)  # strongest bound on v - u
            if upper is None or lower is None:
                continue  # an unbounded side: the pinpoint is avoidable
            if -offset > upper or -offset < -lower:
                continue  # pinpoint outside the feasible range
            below = constraints + [(u, v, -offset - 1)]
            above = constraints + [(v, u, offset - 1)]
            return _search_consistent(
                equalities, disequalities, below, splits - 1
            ) or _search_consistent(equalities, disequalities, above, splits - 1)
    return True
