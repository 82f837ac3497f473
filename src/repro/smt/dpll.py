"""CDCL SAT solving over a flat clause arena, with the theory-propagator
hook that the DPLL(T) loop of :mod:`repro.smt.session` attaches its
equality and difference-logic propagators to.

PR 2 replaced the seed's recursive clause-copying DPLL with an iterative
trail + two-watched-literal search; PR 3 upgraded it to full CDCL
(first-UIP learning, VSIDS, phase saving, Luby restarts, MiniSat
assumptions, theory propagation).  This revision restructures the solver
around **flat integer arrays** so the hot loop is allocation-free and
mypyc/Cython/PyPy-friendly, and adds the deferred **learned-clause
database management**:

* **Packed clause arena** — every clause lives in one shared ``int``
  list.  A clause is addressed by the offset of its first literal
  (its *ref*); three header words precede the literals::

      arena[ref - 3]   size   (number of literals; the walk stride)
      arena[ref - 2]   state  (-1 dead/tombstoned, 0 live input,
                               k > 0 live learned with LBD k)
      arena[ref - 1]   stamp  (conflict counter at last involvement,
                               the recency half of the reduceDB score)

  Literals are stored *encoded*: variable ``v`` positive is ``2v``,
  negative is ``2v + 1`` (negation is ``^ 1``, the variable is
  ``>> 1``).  The assignment array is **literal-indexed** — a single
  ``assign[lit]`` read answers "is this literal true/false/unassigned"
  with no sign tests — and the watch lists are a flat list-of-lists
  indexed by encoded literal.  The DIMACS-style signed-int surface
  (``add_clause``, ``solve`` models, ``retire``) is unchanged.
* **Learned-clause DB management** — every learned clause records its
  LBD (number of distinct decision levels) at learn time; when the live
  learned count outgrows an adaptive bound, :meth:`reduce_db` drops the
  worst half by ``(LBD, recency)`` while protecting reason clauses of
  trail literals, glue clauses (LBD ≤ 2), binaries, and clauses
  mentioning a live assumption variable.  Retirement tombstones clauses
  in place; a compaction pass rewrites the arena (remapping watch lists
  and trail reasons) whenever tombstones dominate, so long sessions
  never creep.
* **Recursive conflict-clause minimization** — learned clauses are
  shrunk by the Sörensson–Biere self-subsumption test before
  installation: a literal is dropped when its reason antecedents are
  (recursively) confined to literals already in the clause.

Everything PR 3 established is preserved: first-UIP learning with VSIDS
and phase saving, Luby restarts, MiniSat-style assumption levels,
:meth:`WatchedSolver.retire` tombstoning of activation-guarded and
learned clauses, and the ``reset`` / ``assert_literal`` / ``backjump`` /
``check`` theory-propagator protocol
(:class:`repro.smt.euf.EqualityPropagator`,
:class:`repro.smt.arith.DifferenceLogicPropagator`, composed by
:class:`repro.smt.arith.PropagatorStack`) — propagators now read the
literal-indexed assignment array (``assign[2 * var]``) but still mirror
the trail as signed ints.  ``solve`` accepts MiniSat-style assumption
literals so sessions can activate and retire queries against one shared
clause database, and found models are *shrunk* to a satisfying partial
assignment over the input clauses (so DPLL(T) blocking clauses never
mention don't-care atoms).

The restart / reduceDB / minimization features can be toggled
independently at construction — the solver conformance suite
(``tests/property/test_solver_conformance.py``) runs the differential
contract against :mod:`repro.smt.reference` over every combination.

Validity queries reach this solver only through a
:class:`~repro.smt.session.SolverSession`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from .arith import is_difference_atom
from .cnf import AtomTable, Clause
from .euf import is_equality_atom
from .terms import App

Assignment = Dict[int, bool]

#: Conflicts before the first restart; later restarts scale by Luby.
_RESTART_BASE = 100
#: VSIDS: the bump increment grows by 1/0.95 per conflict (equivalent to
#: decaying every variable's activity by 0.95).
_ACTIVITY_GROWTH = 1.0 / 0.95
_ACTIVITY_RESCALE = 1e100

#: Reason markers: -1 is a decision/assumption/root fact; -2 marks a
#: theory propagation whose explanation lives in ``_theory_reasons``.
_NO_REASON = -1
_THEORY_REASON = -2

#: Arena layout: three header words precede each clause's literals.
_HDR = 3
#: Clause-state header values (arena[ref - 2]).
_STATE_DEAD = -1
_STATE_INPUT = 0  # any value > 0 is "learned, with that LBD"

#: Clause marks encode (compaction epoch, arena offset) in one int so
#: session code can hold a mark across a solve that compacts the arena.
_MARK_EPOCH = 1 << 48

#: reduceDB defaults: the live-learned bound starts at
#: ``max(floor, live_inputs // 3)`` and grows geometrically per pass.
_REDUCE_FLOOR = 300
_REDUCE_GROWTH = 1.3
#: Compact the arena when tombstones exceed this fraction of it.
_COMPACT_FRACTION = 0.4


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…(0-based)."""
    size, exponent = 1, 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        exponent -= 1
        index %= size
    return 1 << exponent


def _encode(literal: int) -> int:
    """Signed DIMACS literal -> encoded literal (2v / 2v+1)."""
    return (literal << 1) if literal > 0 else ((-literal) << 1) | 1


def _decode(encoded: int) -> int:
    """Encoded literal -> signed DIMACS literal."""
    return -(encoded >> 1) if encoded & 1 else (encoded >> 1)


class WatchedSolver:
    """CDCL over an incrementally extensible flat-arena clause database.

    The clause arena, watch lists, learned clauses, variable activities
    and saved phases persist across :meth:`solve` calls; each call
    restarts the search from decision level zero, which is exactly what
    the lazy-SMT blocking loop needs (the database only grows, modulo
    :meth:`retire` and reduceDB).  Search arrays (assignment, level,
    reason, trail) are persistent too and cleared by trail-walking, so a
    ``solve`` call allocates nothing proportional to the variable count.

    ``attach_theory`` plugs in a DPLL(T) propagator consulted at every
    propagation fixpoint (see :class:`repro.smt.euf.EqualityPropagator`
    for the protocol: ``reset`` / ``assert_literal`` / ``backjump`` /
    ``check``).

    Keyword toggles (all default-on) gate the search features the
    conformance suite sweeps: ``restarts`` (Luby restarts),
    ``reduce_db`` (learned-clause garbage collection), ``minimize``
    (recursive conflict-clause minimization).  ``reduce_floor`` tunes
    how many live learned clauses are tolerated before the first
    reduction — property tests set it very low to force reductions on
    small instances.
    """

    __slots__ = (
        # flat clause database
        "_arena", "_watches", "_units", "_unit_set", "_unsat",
        "_ninput_live", "_nlearned_live", "_dead_words", "_epoch",
        # persistent heuristic state
        "_nvars", "_activity", "_phase", "_var_inc", "_theory",
        # persistent (trail-cleared) search state
        "_assign", "_level", "_reason", "_trail", "_trail_lim",
        "_head", "_theory_head", "_heap", "_pinned", "_pinned_vars",
        "_theory_reasons", "_seen",
        # configuration
        "_restarts_on", "_reduce_on", "_minimize_on",
        "_max_learnts", "_reduce_floor",
        # counters (exposed for tests and benchmarks)
        "conflicts", "restarts", "learned_clauses", "retired_clauses",
        "reduced_clauses", "reductions", "compactions", "minimized_literals",
    )

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        *,
        restarts: bool = True,
        reduce_db: bool = True,
        minimize: bool = True,
        reduce_floor: int = _REDUCE_FLOOR,
    ) -> None:
        self._arena: List[int] = []
        self._watches: List[List[int]] = [[], []]  # indexed by encoded literal
        self._units: List[int] = []  # signed root-level facts
        self._unit_set: set[int] = set()
        self._unsat = False
        self._ninput_live = 0
        self._nlearned_live = 0
        self._dead_words = 0
        self._epoch = 0
        self._nvars = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [True]
        self._var_inc = 1.0
        self._theory = None
        self._assign: List[int] = [0, 0]  # literal-indexed: ±1 / 0
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]
        self._trail: List[int] = []  # encoded literals
        self._trail_lim: List[int] = []
        self._head = 0
        self._theory_head = 0
        self._heap: Optional[List[Tuple[float, int]]] = None
        self._pinned: List[int] = []  # encoded assumption literals
        self._pinned_vars: set[int] = set()
        self._theory_reasons: Dict[int, List[int]] = {}  # var -> encoded clause
        self._seen = bytearray(1)
        self._restarts_on = restarts
        self._reduce_on = reduce_db
        self._minimize_on = minimize
        self._reduce_floor = max(1, reduce_floor)
        self._max_learnts = self._reduce_floor
        self.conflicts = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.retired_clauses = 0
        self.reduced_clauses = 0
        self.reductions = 0
        self.compactions = 0
        self.minimized_literals = 0
        for clause in clauses:
            self.add_clause(clause)

    def attach_theory(self, propagator) -> None:
        """Attach a theory propagator consulted at every fixpoint.

        ``propagator`` may be a single theory
        (:class:`repro.smt.euf.EqualityPropagator`,
        :class:`repro.smt.arith.DifferenceLogicPropagator`) or a
        :class:`repro.smt.arith.PropagatorStack` composing several over
        the shared trail.  The propagator's atom variables are
        registered eagerly: an atom can drop out of every clause (e.g.
        it only occurred in a dropped tautology) yet still be
        propagated by the theory.
        """
        self._theory = propagator
        top = 0
        for variable in propagator.atom_vars():
            if variable > top:
                top = variable
        if top > self._nvars:
            self._grow_to(top)

    def _grow_to(self, top: int) -> None:
        """Extend every variable-indexed array up to variable ``top``."""
        grow = top - self._nvars
        if grow <= 0:
            return
        self._activity.extend([0.0] * grow)
        self._phase.extend([True] * grow)
        self._assign.extend([0] * (2 * grow))
        self._level.extend([0] * grow)
        self._reason.extend([_NO_REASON] * grow)
        self._seen.extend(bytes(grow))
        watches = self._watches
        for _ in range(2 * grow):
            watches.append([])
        self._nvars = top

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add an input clause of signed literals; duplicates are
        collapsed, tautologies dropped.

        Unit clauses are deduplicated (re-adding a known fact is a
        no-op) and a unit contradicting an existing root-level fact
        marks the database unsatisfiable immediately.
        """
        literals = list(clause)
        if len(literals) > 1:
            seen = set(literals)
            if len(seen) != len(literals):
                deduped: List[int] = []
                emitted: set[int] = set()
                for literal in literals:
                    if literal not in emitted:
                        emitted.add(literal)
                        deduped.append(literal)
                literals = deduped
            for literal in literals:
                if -literal in seen:
                    return  # tautological clause: always satisfied
        if not literals:
            self._unsat = True
            return
        top = 0
        for literal in literals:
            variable = literal if literal > 0 else -literal
            if variable > top:
                top = variable
        if top > self._nvars:
            self._grow_to(top)
        if len(literals) == 1:
            literal = literals[0]
            unit_set = self._unit_set
            if -literal in unit_set:
                self._unsat = True  # root-level conflict, caught at add time
                return
            if literal not in unit_set:
                unit_set.add(literal)
                self._units.append(literal)
            return
        arena = self._arena
        arena.append(len(literals))
        arena.append(_STATE_INPUT)
        arena.append(0)
        ref = len(arena)
        for literal in literals:
            arena.append(
                (literal << 1) if literal > 0 else ((-literal) << 1) | 1
            )
        self._watches[arena[ref]].append(ref)
        self._watches[arena[ref + 1]].append(ref)
        self._ninput_live += 1

    # -- incremental sessions --------------------------------------------

    def clause_mark(self) -> int:
        """A position in the clause database; pass to :meth:`retire` to
        restrict its scan to clauses added at or after the mark.

        The mark is opaque: it folds the arena offset together with the
        compaction epoch, so a mark taken before a reduceDB/compaction
        pass degrades to a full scan instead of landing mid-clause.
        """
        return self._epoch * _MARK_EPOCH + len(self._arena)

    def _clause_refs(self, start: int = 0) -> Iterable[int]:
        """Walk the arena yielding every clause ref from ``start`` on
        (live and dead; callers filter on the state word)."""
        arena = self._arena
        end = len(arena)
        ref = start + _HDR
        while ref <= end:
            yield ref
            ref += arena[ref - _HDR] + _HDR

    def live_clauses(self) -> List[List[int]]:
        """The non-retired clauses (input and learned) as signed-literal
        lists, for inspection."""
        arena = self._arena
        out: List[List[int]] = []
        for ref in self._clause_refs():
            if arena[ref - 2] != _STATE_DEAD:
                out.append(
                    [_decode(arena[i]) for i in range(ref, ref + arena[ref - _HDR])]
                )
        return out

    def live_learned_clauses(self) -> List[List[int]]:
        """The live *learned* clauses as signed-literal lists."""
        arena = self._arena
        out: List[List[int]] = []
        for ref in self._clause_refs():
            if arena[ref - 2] > 0:
                out.append(
                    [_decode(arena[i]) for i in range(ref, ref + arena[ref - _HDR])]
                )
        return out

    def clause_db_stats(self) -> Dict[str, int]:
        """Arena-level counters for benchmarks, tests and session stats."""
        return {
            "arena_words": len(self._arena),
            "dead_words": self._dead_words,
            "live_input": self._ninput_live,
            "live_learned": self._nlearned_live,
            "max_learnts": self._max_learnts,
            "epoch": self._epoch,
            "reductions": self.reductions,
            "compactions": self.compactions,
            "reduced_clauses": self.reduced_clauses,
            "minimized_literals": self.minimized_literals,
        }

    def retire(self, variable: int, since: int = 0) -> int:
        """Permanently drop every clause mentioning ``variable``.

        This is the MiniSat-style retirement of an *activation* variable:
        a VC's clauses are guarded by ``¬a`` (with ``a`` asserted as an
        assumption while the VC is live), and since no clause ever
        contains the positive literal ``a``, resolution can never cancel
        ``¬a`` — so every clause mentioning the variable (the guarded
        originals plus any clause learned from them) is exactly the set
        of clauses whose truth depends on the retired query, and dropping
        them is sound.  ``since`` should be the :meth:`clause_mark` taken
        just before the guarded clauses were added, which keeps the scan
        proportional to the clauses of the retired query (a mark that
        predates a compaction falls back to a full scan).

        Root-level unit facts on the variable (e.g. a learned ``¬a``
        recording that the query was unsatisfiable) are dropped too, so
        the database keeps no trace of the retired session.  Returns the
        number of clauses removed.
        """
        epoch, start = divmod(since, _MARK_EPOCH)
        if epoch != self._epoch:
            start = 0  # the arena moved underneath the mark: scan fully
        arena = self._arena
        watches = self._watches
        positive = variable << 1
        negative = positive | 1
        removed = 0
        for ref in self._clause_refs(start):
            state = arena[ref - 2]
            if state == _STATE_DEAD:
                continue
            size = arena[ref - _HDR]
            hit = False
            for i in range(ref, ref + size):
                if arena[i] | 1 == negative:
                    hit = True
                    break
            if not hit:
                continue
            for watched in (arena[ref], arena[ref + 1]):
                watchers = watches[watched]
                try:
                    watchers.remove(ref)
                except ValueError:
                    pass
            arena[ref - 2] = _STATE_DEAD
            self._dead_words += size + _HDR
            if state > 0:
                self._nlearned_live -= 1
            else:
                self._ninput_live -= 1
            removed += 1
        for literal in (variable, -variable):
            if literal in self._unit_set:
                self._unit_set.discard(literal)
                self._units.remove(literal)
        self.retired_clauses += removed
        arena_len = len(self._arena)
        if (
            arena_len > 256
            and self._dead_words > arena_len * _COMPACT_FRACTION
        ):
            self._compact()
        return removed

    # -- clause DB management --------------------------------------------

    def reduce_db(self) -> int:
        """Drop the worst half of the removable learned clauses.

        The score is glucose-flavoured: clauses are ranked by
        ``(LBD, staleness)`` — higher LBD and older last-involvement
        first.  Never removed: reason clauses of current trail literals
        (*locked*), glue clauses (LBD ≤ 2), binary clauses, and clauses
        mentioning a live assumption (activation) variable — so an
        activated query never loses lemmas about its own guard mid-solve
        and :meth:`retire` still finds them.  The arena is compacted
        afterwards.  Returns the number of clauses dropped.
        """
        arena = self._arena
        assign = self._assign
        reason = self._reason
        pinned_vars = self._pinned_vars
        candidates: List[Tuple[int, int, int]] = []  # (lbd, -stamp, ref)
        for ref in self._clause_refs():
            lbd = arena[ref - 2]
            if lbd <= 0:
                continue  # input or dead
            if lbd <= 2:
                continue  # glue: keep unconditionally
            size = arena[ref - _HDR]
            if size <= 2:
                continue  # binaries propagate for free
            first = arena[ref]
            if assign[first] > 0 and reason[first >> 1] == ref:
                continue  # locked: the reason of a trail literal
            if pinned_vars:
                guarded = False
                for i in range(ref, ref + size):
                    if (arena[i] >> 1) in pinned_vars:
                        guarded = True
                        break
                if guarded:
                    continue
            candidates.append((lbd, -arena[ref - 1], ref))
        if not candidates:
            self._max_learnts = int(self._max_learnts * _REDUCE_GROWTH) + 1
            return 0
        candidates.sort()
        watches = self._watches
        removed = 0
        # Drop the worse half (the tail of the ascending (lbd, age) sort).
        for lbd, _age, ref in candidates[len(candidates) // 2:]:
            for watched in (arena[ref], arena[ref + 1]):
                try:
                    watches[watched].remove(ref)
                except ValueError:
                    pass
            arena[ref - 2] = _STATE_DEAD
            self._dead_words += arena[ref - _HDR] + _HDR
            removed += 1
        self._nlearned_live -= removed
        self.reduced_clauses += removed
        self.reductions += 1
        self._max_learnts = int(self._max_learnts * _REDUCE_GROWTH) + 1
        self._compact()
        return removed

    def _compact(self) -> None:
        """Rewrite the arena without its tombstones.

        Live clauses keep their relative order; watch lists are rebuilt
        and the reason refs of current trail literals remapped.  The
        compaction epoch is bumped so outstanding clause marks degrade
        to full scans rather than dangling.
        """
        arena = self._arena
        fresh: List[int] = []
        mapping: Dict[int, int] = {}
        for ref in self._clause_refs():
            size = arena[ref - _HDR]
            if arena[ref - 2] == _STATE_DEAD:
                continue
            fresh.append(size)
            fresh.append(arena[ref - 2])
            fresh.append(arena[ref - 1])
            new_ref = len(fresh)
            mapping[ref] = new_ref
            fresh.extend(arena[ref:ref + size])
        self._arena = arena = fresh
        watches = self._watches
        for watcher_list in watches:
            if watcher_list:
                del watcher_list[:]
        for ref in mapping.values():
            watches[arena[ref]].append(ref)
            watches[arena[ref + 1]].append(ref)
        reason = self._reason
        for literal in self._trail:
            variable = literal >> 1
            old = reason[variable]
            if old >= 0:
                reason[variable] = mapping.get(old, _NO_REASON)
        self._dead_words = 0
        self._epoch += 1
        self.compactions += 1

    def db_check(self) -> bool:
        """Structural invariant check of the arena and watch lists (for
        the test suite; raises AssertionError on violation).

        * every live clause has ≥ 2 literals and is watched on exactly
          its first two;
        * every watch-list entry refs a live clause whose corresponding
          watched literal equals the list's literal;
        * every trail literal's clause reason is live and contains it;
        * the literal-indexed assignment is polarity-consistent.
        """
        arena = self._arena
        watches = self._watches
        expected: Dict[Tuple[int, int], int] = {}
        for ref in self._clause_refs():
            size = arena[ref - _HDR]
            state = arena[ref - 2]
            assert size >= 2, f"clause at {ref} has size {size}"
            if state == _STATE_DEAD:
                continue
            for watched in (arena[ref], arena[ref + 1]):
                key = (watched, ref)
                expected[key] = expected.get(key, 0) + 1
        seen: Dict[Tuple[int, int], int] = {}
        for literal, watcher_list in enumerate(watches):
            for ref in watcher_list:
                assert arena[ref - 2] != _STATE_DEAD, (
                    f"watch list {literal} refs dead clause {ref}"
                )
                assert literal in (arena[ref], arena[ref + 1]), (
                    f"clause {ref} watched on {literal} but its watches are "
                    f"{arena[ref]}, {arena[ref + 1]}"
                )
                key = (literal, ref)
                seen[key] = seen.get(key, 0) + 1
        assert seen == expected, (
            f"watch lists out of sync: extra={set(seen) - set(expected)} "
            f"missing={set(expected) - set(seen)}"
        )
        assign = self._assign
        reason = self._reason
        for literal in self._trail:
            assert assign[literal] > 0, f"trail literal {literal} not true"
            ref = reason[literal >> 1]
            if ref >= 0:
                assert arena[ref - 2] != _STATE_DEAD, (
                    f"reason {ref} of trail literal {literal} is dead"
                )
                size = arena[ref - _HDR]
                assert literal in arena[ref:ref + size], (
                    f"reason {ref} does not contain its trail literal"
                )
        for variable in range(1, self._nvars + 1):
            positive = variable << 1
            assert assign[positive] == -assign[positive | 1], (
                f"assignment of variable {variable} is polarity-inconsistent"
            )
        return True

    # -- search ----------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> Optional[Assignment]:
        """A satisfying (partial) assignment, or None if unsatisfiable.

        ``assumptions`` are asserted as pseudo-decisions at the bottom
        of the decision stack (MiniSat-style), so clauses learned under
        them remain valid for later calls without them; they are always
        included in a returned model.
        """
        if self._unsat:
            return None
        self._retract()
        assumptions = [_encode(literal) for literal in assumptions]
        if assumptions:
            top = max(literal >> 1 for literal in assumptions)
            if top > self._nvars:
                self._grow_to(top)
        assign = self._assign
        trail = self._trail
        trail_lim = self._trail_lim
        self._pinned = assumptions
        self._pinned_vars = {literal >> 1 for literal in assumptions}
        self._theory_reasons = {}
        theory = self._theory
        if theory is not None:
            theory.reset()
        if self._reduce_on:
            floor = max(self._reduce_floor, self._ninput_live // 3)
            if self._max_learnts < floor:
                self._max_learnts = floor

        level = self._level
        reason = self._reason
        for literal in self._units:
            encoded = _encode(literal)
            value = assign[encoded]
            if value == 0:
                assign[encoded] = 1
                assign[encoded ^ 1] = -1
                level[encoded >> 1] = 0
                reason[encoded >> 1] = _NO_REASON
                trail.append(encoded)
            elif value < 0:
                self._unsat = True
                return None

        restart_count = 0
        conflicts_since_restart = 0
        restart_limit = _RESTART_BASE * _luby(0)
        restarts_on = self._restarts_on
        reduce_on = self._reduce_on

        try:
            while True:
                conflict = self._propagate()
                if conflict is None and theory is not None:
                    conflict = self._theory_sync()
                    if conflict is None and self._head < len(trail):
                        continue  # theory enqueued literals: propagate them
                if conflict is not None:
                    self.conflicts += 1
                    if not trail_lim:
                        self._unsat = True
                        return None
                    literals = (
                        self._clause_literals(conflict)
                        if isinstance(conflict, int)
                        else conflict
                    )
                    # Theory conflicts can live entirely below the current
                    # decision level; fall back to where they bite.
                    top = 0
                    for literal in literals:
                        at = level[literal >> 1]
                        if at > top:
                            top = at
                    if top == 0:
                        self._unsat = True
                        return None
                    if top < len(trail_lim):
                        self._cancel_until(top)
                    learned, back_level, lbd = self._analyze(literals)
                    self._cancel_until(back_level)
                    self._assert_learned(learned, lbd)
                    self._var_inc *= _ACTIVITY_GROWTH
                    if (
                        reduce_on
                        and self._nlearned_live - len(trail_lim)
                        > self._max_learnts
                    ):
                        self.reduce_db()
                    conflicts_since_restart += 1
                    if restarts_on and conflicts_since_restart >= restart_limit:
                        conflicts_since_restart = 0
                        restart_count += 1
                        self.restarts += 1
                        restart_limit = _RESTART_BASE * _luby(restart_count)
                        if trail_lim:
                            self._cancel_until(0)
                    continue
                # -- all propagated: assert assumptions, then decide ------
                while len(trail_lim) < len(assumptions):
                    literal = assumptions[len(trail_lim)]
                    value = assign[literal]
                    if value == 0:
                        trail_lim.append(len(trail))
                        self._enqueue(literal, _NO_REASON)
                        break
                    if value < 0:
                        return None  # assumption falsified by the database
                    trail_lim.append(len(trail))  # already true: dummy level
                else:
                    variable = self._pick_branch()
                    if variable == 0:
                        return self._shrink()
                    trail_lim.append(len(trail))
                    encoded = variable << 1
                    if not self._phase[variable]:
                        encoded |= 1
                    self._enqueue(encoded, _NO_REASON)
        finally:
            # Leave no assignment behind: the next solve (or retire, or
            # compaction) starts from a clean, all-unassigned state.
            self._retract()

    def _retract(self) -> None:
        """Unassign the entire trail (phases saved), emptying the search
        state without touching any O(nvars) array."""
        assign = self._assign
        phase = self._phase
        reason = self._reason
        for literal in self._trail:
            variable = literal >> 1
            phase[variable] = not literal & 1
            assign[literal] = 0
            assign[literal ^ 1] = 0
            reason[variable] = _NO_REASON
        del self._trail[:]
        del self._trail_lim[:]
        self._head = 0
        self._theory_head = 0
        self._heap = None

    def _clause_literals(self, ref: int) -> List[int]:
        arena = self._arena
        return arena[ref:ref + arena[ref - _HDR]]

    def _enqueue(self, literal: int, reason_ref: int) -> None:
        variable = literal >> 1
        assign = self._assign
        assign[literal] = 1
        assign[literal ^ 1] = -1
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason_ref
        self._trail.append(literal)

    def _propagate(self) -> Optional[int]:
        """Unit propagation to fixpoint; the falsified clause's ref on
        conflict."""
        arena = self._arena
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        trail = self._trail
        head = self._head
        current_level = len(self._trail_lim)
        while head < len(trail):
            false_literal = trail[head] ^ 1
            head += 1
            watchers = watches[false_literal]
            if not watchers:
                continue
            i = 0
            while i < len(watchers):
                ref = watchers[i]
                first = arena[ref]
                if first == false_literal:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = false_literal
                if assign[first] > 0:
                    i += 1  # satisfied by the other watch
                    continue
                end = ref + arena[ref - _HDR]
                for j in range(ref + 2, end):
                    candidate = arena[j]
                    if assign[candidate] >= 0:
                        arena[ref + 1] = candidate
                        arena[j] = false_literal
                        watches[candidate].append(ref)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if assign[first] == 0:
                        assign[first] = 1
                        assign[first ^ 1] = -1
                        variable = first >> 1
                        level[variable] = current_level
                        reason[variable] = ref
                        trail.append(first)
                        i += 1
                    else:
                        self._head = head
                        return ref  # conflict
        self._head = head
        return None

    def _theory_sync(self) -> Optional[List[int]]:
        """Feed new trail literals to the theory and act on its verdict.

        Returns a conflict clause as an encoded-literal list (every
        literal false), or None after enqueueing any theory-entailed
        literals.  Explanations are kept *lazily* — the reason literal
        list is stashed per variable and only consulted if conflict
        analysis actually resolves on the propagated literal — so theory
        propagation never grows the clause arena or the watch lists.
        """
        theory = self._theory
        trail = self._trail
        head = self._theory_head
        while head < len(trail):
            theory.assert_literal(_decode(trail[head]))
            head += 1
        self._theory_head = head
        status, payload = theory.check(self._assign)
        if status == "conflict":
            return [_encode(literal) for literal in payload]
        assign = self._assign
        for literal, premises in payload:
            encoded = _encode(literal)
            value = assign[encoded]
            if value != 0:
                if value > 0:
                    continue  # already true: nothing to do
                clause = [encoded]
                clause.extend(_encode(-premise) for premise in premises)
                return clause  # entailed literal already false
            reason_literals = [encoded]
            reason_literals.extend(_encode(-premise) for premise in premises)
            self._theory_reasons[encoded >> 1] = reason_literals
            if len(reason_literals) == 1 and literal not in self._unit_set:
                # Premise-free entailment (e.g. an x ≠ x atom): also a
                # root-level fact for future solve calls.
                self._unit_set.add(literal)
                self._units.append(literal)
            self._enqueue(encoded, _THEORY_REASON)
        return None

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int, int]:
        """First-UIP conflict analysis with recursive minimization.

        Resolves the conflict clause backwards along the trail until a
        single literal of the current decision level remains; returns
        the learned clause as encoded literals (asserting literal first,
        a literal of the backjump level second), the backjump level, and
        the clause's LBD.
        """
        arena = self._arena
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        theory_reasons = self._theory_reasons
        increment = self._var_inc
        current = len(self._trail_lim)
        seen = self._seen
        to_clear: List[int] = []
        learned: List[int] = [0]
        counter = 0
        resolved = -1  # the literal whose reason we are resolving with
        index = len(trail)
        rescale = False
        conflicts_stamp = self.conflicts
        literals = conflict
        while True:
            for literal in literals:
                if literal == resolved:
                    continue
                variable = literal >> 1
                if not seen[variable] and level[variable] > 0:
                    seen[variable] = 1
                    to_clear.append(variable)
                    activity[variable] += increment
                    if activity[variable] > _ACTIVITY_RESCALE:
                        rescale = True
                    if level[variable] >= current:
                        counter += 1
                    else:
                        learned.append(literal)
            while True:
                index -= 1
                resolved = trail[index]
                variable = resolved >> 1
                if seen[variable]:
                    break
            seen[variable] = 0
            counter -= 1
            if counter == 0:
                break
            reason_ref = reason[variable]
            if reason_ref == _THEORY_REASON:
                literals = theory_reasons[variable]
            else:
                size = arena[reason_ref - _HDR]
                literals = arena[reason_ref:reason_ref + size]
                if arena[reason_ref - 2] > 0:
                    arena[reason_ref - 1] = conflicts_stamp  # recently used
        learned[0] = resolved ^ 1
        if rescale:
            self._rescale_activity()
        if len(learned) > 2 and self._minimize_on:
            learned = self._minimize(learned, to_clear)
        for variable in to_clear:
            seen[variable] = 0
        if len(learned) == 1:
            return learned, 0, 1
        best = 1
        best_level = level[learned[1] >> 1]
        for i in range(2, len(learned)):
            at = level[learned[i] >> 1]
            if at > best_level:
                best, best_level = i, at
        learned[1], learned[best] = learned[best], learned[1]
        levels = {level[literal >> 1] for literal in learned}
        return learned, best_level, max(1, len(levels))

    def _minimize(self, learned: List[int], to_clear: List[int]) -> List[int]:
        """Sörensson–Biere recursive self-subsumption minimization.

        A non-asserting literal is redundant when every antecedent of
        its reason is either already in the clause (``seen``) or itself
        recursively redundant; the decision-level signature mask prunes
        branches that could never close.  Works uniformly over arena
        reasons and lazily-stashed theory reasons.
        """
        level = self._level
        abstract = 0
        for literal in learned[1:]:
            abstract |= 1 << (level[literal >> 1] & 63)
        kept = [learned[0]]
        removed = 0
        for literal in learned[1:]:
            if self._reason[literal >> 1] == _NO_REASON or not self._redundant(
                literal, abstract, to_clear
            ):
                kept.append(literal)
            else:
                removed += 1
        self.minimized_literals += removed
        return kept

    def _redundant(self, literal: int, abstract: int, to_clear: List[int]) -> bool:
        arena = self._arena
        seen = self._seen
        level = self._level
        reason = self._reason
        theory_reasons = self._theory_reasons
        stack = [literal]
        marked_from = len(to_clear)
        while stack:
            current = stack.pop()
            reason_ref = reason[current >> 1]
            if reason_ref == _THEORY_REASON:
                literals = theory_reasons[current >> 1]
            else:
                size = arena[reason_ref - _HDR]
                literals = arena[reason_ref:reason_ref + size]
            for antecedent in literals:
                variable = antecedent >> 1
                if antecedent == current or seen[variable]:
                    continue
                at = level[variable]
                if at == 0:
                    continue
                if (
                    reason[variable] == _NO_REASON
                    or not (1 << (at & 63)) & abstract
                ):
                    # A decision (or a level absent from the clause) on
                    # the path: the literal is not redundant.  Unmark
                    # everything this check marked — a stale ``seen``
                    # flag would let a later check (or a later conflict
                    # analysis) treat an unexplored literal as confined.
                    tail = to_clear[marked_from:]
                    del to_clear[marked_from:]
                    for cleared in tail:
                        seen[cleared] = 0
                    return False
                seen[variable] = 1
                to_clear.append(variable)
                stack.append(antecedent)
        return True

    def _assert_learned(self, learned: List[int], lbd: int) -> None:
        """Install a learned clause (encoded literals) and assert its
        UIP literal."""
        self.learned_clauses += 1
        literal = learned[0]
        if len(learned) == 1:
            # Backjumped to the root: the UIP is a new global fact.
            signed = _decode(literal)
            if signed not in self._unit_set:
                self._unit_set.add(signed)
                self._units.append(signed)
            self._enqueue(literal, _NO_REASON)
            return
        arena = self._arena
        arena.append(len(learned))
        arena.append(max(1, lbd))
        arena.append(self.conflicts)
        ref = len(arena)
        arena.extend(learned)
        self._watches[learned[0]].append(ref)
        self._watches[learned[1]].append(ref)
        self._nlearned_live += 1
        self._enqueue(literal, ref)

    def _cancel_until(self, target: int) -> None:
        """Undo all assignments above decision level ``target``."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= target:
            return
        base = trail_lim[target]
        trail = self._trail
        assign = self._assign
        reason = self._reason
        phase = self._phase
        activity = self._activity
        heap = self._heap
        for literal in trail[base:]:
            variable = literal >> 1
            phase[variable] = not literal & 1  # phase saving
            assign[literal] = 0
            assign[literal ^ 1] = 0
            reason[variable] = _NO_REASON
            if heap is not None:
                heappush(heap, (-activity[variable], variable))
        del trail[base:]
        del trail_lim[target:]
        self._head = base
        if self._theory is not None and self._theory_head > base:
            self._theory.backjump(base)
            self._theory_head = base

    def _pick_branch(self) -> int:
        """Unassigned variable of maximal activity (0 when none left)."""
        heap = self._heap
        assign = self._assign
        if heap is None:
            activity = self._activity
            heap = self._heap = [
                (-activity[variable], variable)
                for variable in range(1, self._nvars + 1)
                if assign[variable << 1] == 0
            ]
            heapify(heap)
        while heap:
            _, variable = heappop(heap)
            if assign[variable << 1] == 0:
                return variable
        return 0

    def _rescale_activity(self) -> None:
        scale = 1.0 / _ACTIVITY_RESCALE
        self._activity = [value * scale for value in self._activity]
        self._var_inc *= scale
        if self._heap is not None:
            assign = self._assign
            activity = self._activity
            heap = [
                (-activity[variable], variable)
                for variable in range(1, self._nvars + 1)
                if assign[variable << 1] == 0
            ]
            heapify(heap)
            self._heap = heap

    def _shrink(self) -> Assignment:
        """Reduce a total model to a satisfying partial assignment.

        For every *input* clause the true literal assigned earliest on
        the trail is kept (deterministic); everything else is dropped,
        except assumption and unit-clause literals.  Learned clauses are
        skipped — they are implied, so any extension of a partial model
        satisfying the input clauses satisfies them too — which keeps
        DPLL(T) blocking clauses from mentioning don't-care atoms.
        """
        arena = self._arena
        assign = self._assign
        position = {
            literal >> 1: rank for rank, literal in enumerate(self._trail)
        }
        needed: set[int] = {literal >> 1 for literal in self._pinned}
        needed.update(
            literal if literal > 0 else -literal for literal in self._units
        )
        for ref in self._clause_refs():
            if arena[ref - 2] != _STATE_INPUT:
                continue  # retired clauses impose nothing; learned implied
            best = 0
            best_rank = -1
            satisfied_by_needed = False
            for i in range(ref, ref + arena[ref - _HDR]):
                literal = arena[i]
                if assign[literal] <= 0:
                    continue
                variable = literal >> 1
                if variable in needed:
                    satisfied_by_needed = True
                    break
                rank = position.get(variable, 0)
                if best == 0 or rank < best_rank:
                    best, best_rank = variable, rank
            if not satisfied_by_needed and best != 0:
                needed.add(best)
        return {
            variable: assign[variable << 1] > 0
            for variable in needed
            if assign[variable << 1] != 0
        }


# ---------------------------------------------------------------------------
# Theory-literal classification (the session's and the reference's
# DPLL(T) loops)
# ---------------------------------------------------------------------------


def _theory_literals(
    model: Assignment, table: AtomTable, orders: bool = False
) -> Optional[tuple]:
    """Split a boolean model into asserted theory literals.

    Without ``orders`` (the seed-compatible contract kept for
    :mod:`repro.smt.reference`): ``(equalities, disequalities)``, or
    None if the model asserts a non-equality atom.  With ``orders``,
    difference-logic order atoms are classified too — the result is
    ``(equalities, disequalities, order_assignments)`` with the latter
    pairing each order atom with its asserted value, and None now means
    an atom outside *both* fragments."""
    equalities: list = []
    disequalities: list = []
    order_atoms: list = []
    for index, value in model.items():
        term = table.term_of(index)
        if term is None:
            continue  # Tseitin definition variable
        if is_equality_atom(term):
            assert isinstance(term, App)
            left, right = term.args
            positive = value if term.op == "==" else not value
            if positive:
                equalities.append((left, right))
            else:
                disequalities.append((left, right))
            continue
        if orders and is_difference_atom(term):
            order_atoms.append((term, value))
            continue
        return None
    if orders:
        return equalities, disequalities, order_atoms
    return equalities, disequalities
