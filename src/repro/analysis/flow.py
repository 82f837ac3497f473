"""Flow-sensitive PC-taint analysis (Denning & Denning 1977).

A classic information-flow analysis over the object language, reusing the
taint lattice of :mod:`repro.verifier.taint`.  It tracks explicit flows
(secret values propagating through assignments and the heap) and implicit
flows (a *program-counter taint* raised inside branches and loops whose
condition depends on a secret), and returns one of two verdicts:

* ``secure`` — a *sound* claim: every observable output trace is a
  function of the low inputs alone, for every scheduler.
* ``unknown`` — the analysis cannot decide; only the full abstract-
  commutativity pipeline (spec validity, taint + CSL discipline, action
  conformance, retroactive obligations) can.

Soundness is bought with aggressive bail-outs: whenever a program uses a
feature whose security argument genuinely needs the paper's machinery
(interfering parallel branches, outputs inside ``||``, blocking guards,
address values escaping into arithmetic, dynamic ``fork``/``join``), the
verdict degrades to ``unknown`` with a recorded reason.  What remains —
programs whose parallel branches are non-interfering and whose outputs
are manifestly low — is decided by the taint walk:

* parallel branches with disjoint variable/heap footprints and no
  observable output commute with every interleaving, so the final state
  and the trace are schedule-independent;
* with a deterministic trace per input, low-equivalence of traces reduces
  to every printed value being low-tainted and no print occurring under a
  secret program counter.

Like the full verifier's taint stage, the analysis is **termination- and
abort-insensitive**: a secret may still influence *whether* the trace is
finite (e.g. a busy-wait loop on a high condition).  This matches the
observation model of ``security.noninterference``, which compares the
traces of terminating schedules only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..lang.ast import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Call,
    Command,
    Expr,
    Fork,
    If,
    Join,
    Lit,
    Load,
    Par,
    Print,
    Seq,
    Share,
    Skip,
    Store,
    UnOp,
    Unshare,
    Var,
    While,
    command_fv,
    command_mod,
    expr_fv,
    node_pos,
)
from ..verifier.declarations import ProgramSpec
from ..verifier.taint import HIGH, LOW, Taint, join
from .diagnostics import Diagnostic, diagnostic_at
from .races import collect_accesses

#: Iteration bound for while-loop taint fixpoints (matches the verifier).
_FIXPOINT_BOUND = 64


@dataclass(frozen=True)
class FlowReport:
    """Outcome of the flow analysis."""

    verdict: str  # 'secure' | 'unknown'
    findings: Tuple[Diagnostic, ...] = ()  # potential leaks (F001/F002)
    reasons: Tuple[str, ...] = ()  # bail-out reasons, empty when decisive

    @property
    def secure(self) -> bool:
        return self.verdict == "secure"


class _Bailout(Exception):
    """Internal: abandon the walk, the verdict is ``unknown``."""


class _FlowAnalyzer:
    def __init__(
        self,
        low_inputs: Iterable[str],
        high_inputs: Iterable[str],
        observable: Callable[[str], bool],
        source: str,
    ) -> None:
        self._env: Dict[str, Taint] = {}
        self._heap: Dict[str, Taint] = {}
        self._addr_vars: Set[str] = set()
        self._observable = observable
        self._source = source
        self._reasons: List[str] = []
        self._findings: List[Diagnostic] = []
        for name in low_inputs:
            self._env[name] = LOW
        for name in high_inputs:
            self._env[name] = HIGH

    # -- plumbing ------------------------------------------------------------

    def _bail(self, message: str, node: Optional[Command] = None) -> None:
        pos = node_pos(node) if node is not None else None
        if pos is not None:
            message = f"{message} (at {pos})"
        self._reasons.append(message)
        raise _Bailout(message)

    def _var(self, name: str) -> Taint:
        # Uninitialized variables read as 0 in both runs: low.
        return self._env.get(name, LOW)

    def _taint(self, expr: Expr) -> Taint:
        if isinstance(expr, Lit):
            return LOW
        if isinstance(expr, Var):
            return self._var(expr.name)
        if isinstance(expr, UnOp):
            return self._taint(expr.operand)
        if isinstance(expr, BinOp):
            return join(self._taint(expr.left), self._taint(expr.right))
        if isinstance(expr, Call):
            taint = LOW
            for arg in expr.args:
                taint = join(taint, self._taint(arg))
            return taint
        raise TypeError(f"not an expression: {expr!r}")

    def _check_no_address_escape(self, expr: Expr, node: Command, context: str) -> None:
        escaped = expr_fv(expr) & self._addr_vars
        if escaped:
            self._bail(
                f"address value {sorted(escaped)[0]!r} escapes into {context} — "
                f"addresses are allocation-order dependent",
                node,
            )

    # -- state snapshots (for branch joins) -----------------------------------

    def _snapshot(self) -> Tuple[Dict[str, Taint], Dict[str, Taint]]:
        return dict(self._env), dict(self._heap)

    def _restore(self, snap: Tuple[Dict[str, Taint], Dict[str, Taint]]) -> None:
        self._env, self._heap = dict(snap[0]), dict(snap[1])

    def _join_into(self, other: Tuple[Dict[str, Taint], Dict[str, Taint]]) -> None:
        env, heap = other
        for name in set(self._env) | set(env):
            self._env[name] = join(self._env.get(name, LOW), env.get(name, LOW))
        for name in set(self._heap) | set(heap):
            self._heap[name] = join(self._heap.get(name, LOW), heap.get(name, LOW))

    def _state_equal(self, other: Tuple[Dict[str, Taint], Dict[str, Taint]]) -> bool:
        env, heap = other
        names = set(self._env) | set(env)
        if any(self._env.get(n, LOW) != env.get(n, LOW) for n in names):
            return False
        cells = set(self._heap) | set(heap)
        return all(self._heap.get(c, LOW) == heap.get(c, LOW) for c in cells)

    # -- command walk ---------------------------------------------------------

    def _walk(self, cmd: Command, pc: Taint, in_branch: bool) -> None:
        if isinstance(cmd, (Skip, Share, Unshare)):
            return
        if isinstance(cmd, Assign):
            if cmd.target in self._addr_vars:
                self._bail(f"address variable {cmd.target!r} is reassigned", cmd)
            self._check_no_address_escape(cmd.expr, cmd, "an assignment")
            self._env[cmd.target] = join(self._taint(cmd.expr), pc)
            return
        if isinstance(cmd, Alloc):
            if in_branch:
                # A cell allocated under a branch/loop/|| may not exist on
                # the joining path; accessing it there is a runtime fault.
                self._bail("allocation inside a branch, loop, or parallel composition", cmd)
            self._check_no_address_escape(cmd.expr, cmd, "an allocation initializer")
            self._addr_vars.add(cmd.target)
            self._env[cmd.target] = LOW
            self._heap[cmd.target] = join(self._taint(cmd.expr), pc)
            return
        if isinstance(cmd, Load):
            address = self._address_of(cmd)
            if cmd.target in self._addr_vars:
                self._bail(f"address variable {cmd.target!r} is reassigned", cmd)
            self._env[cmd.target] = join(self._heap.get(address, LOW), pc)
            return
        if isinstance(cmd, Store):
            address = self._address_of(cmd)
            self._check_no_address_escape(cmd.expr, cmd, "a heap write")
            self._heap[address] = join(self._taint(cmd.expr), pc)
            return
        if isinstance(cmd, Seq):
            self._walk(cmd.first, pc, in_branch)
            self._walk(cmd.second, pc, in_branch)
            return
        if isinstance(cmd, If):
            self._check_no_address_escape(cmd.condition, cmd, "a branch condition")
            branch_pc = join(pc, self._taint(cmd.condition))
            before = self._snapshot()
            self._walk(cmd.then_branch, branch_pc, True)
            then_state = self._snapshot()
            self._restore(before)
            self._walk(cmd.else_branch, branch_pc, True)
            self._join_into(then_state)
            return
        if isinstance(cmd, While):
            self._walk_while(cmd, pc)
            return
        if isinstance(cmd, Par):
            self._walk_par(cmd, pc)
            return
        if isinstance(cmd, Atomic):
            if cmd.when is not None:
                self._bail(
                    "blocking guard on an atomic block — schedule effects need App. D reasoning",
                    cmd,
                )
            self._walk(cmd.body, pc, in_branch)
            return
        if isinstance(cmd, Print):
            if not self._observable(cmd.channel):
                return
            self._check_no_address_escape(cmd.expr, cmd, "an output")
            if not pc.is_low():
                self._findings.append(
                    diagnostic_at(
                        "F002",
                        "error",
                        f"print({cmd.expr}): output under a secret-dependent branch "
                        f"or loop condition (implicit flow)",
                        node=cmd,
                        source=self._source,
                    )
                )
            elif not self._taint(cmd.expr).is_low():
                self._findings.append(
                    diagnostic_at(
                        "F001",
                        "error",
                        f"print({cmd.expr}): printed value is secret-tainted (explicit flow)",
                        node=cmd,
                        source=self._source,
                    )
                )
            return
        if isinstance(cmd, (Fork, Join)):
            self._bail("dynamic fork/join — desugar to the structured calculus first", cmd)
        raise TypeError(f"not a command: {cmd!r}")

    def _address_of(self, cmd) -> str:
        address = cmd.address
        if not isinstance(address, Var):
            self._bail("heap access through a computed address", cmd)
        if address.name not in self._addr_vars:
            self._bail(f"heap access through {address.name!r}, which no visible alloc defines", cmd)
        return address.name

    def _walk_while(self, cmd: While, pc: Taint) -> None:
        for _ in range(_FIXPOINT_BOUND):
            self._check_no_address_escape(cmd.condition, cmd, "a loop condition")
            body_pc = join(pc, self._taint(cmd.condition))
            before = self._snapshot()
            self._walk(cmd.body, body_pc, True)
            self._join_into(before)
            if self._state_equal(before):
                return
        self._bail(f"while ({cmd.condition}): taint fixpoint did not converge", cmd)

    def _walk_par(self, cmd: Par, pc: Taint) -> None:
        left, right = cmd.left, cmd.right
        # Observable output inside || is interleaving-ordered: undecidable here.
        for branch in (left, right):
            if self._has_observable_print(branch):
                self._bail("observable output inside a parallel composition", cmd)
        # Variable interference: one branch writes what the other touches.
        left_mod, right_mod = command_mod(left), command_mod(right)
        left_fv, right_fv = command_fv(left), command_fv(right)
        clash = (left_mod & right_fv) | (right_mod & left_fv)
        if clash:
            self._bail(
                f"parallel branches interfere on variable {sorted(clash)[0]!r}",
                cmd,
            )
        # Heap interference: conflicting accesses, even synchronized ones —
        # the surviving value is interleaving-dependent.
        left_heap = {(a.location, a.kind) for a in collect_accesses(left)}
        right_heap = {(a.location, a.kind) for a in collect_accesses(right)}
        for location, kind in left_heap:
            for other_location, other_kind in right_heap:
                same = location is None or other_location is None or location == other_location
                if same and (kind == "write" or other_kind == "write"):
                    where = location if location is not None else other_location
                    self._bail(
                        f"parallel branches interfere on heap cell [{where or '?'}]",
                        cmd,
                    )
        # Non-interfering branches commute with every schedule: analyze
        # independently and merge the (disjoint) effects.
        before = self._snapshot()
        self._walk(left, pc, True)
        left_state = self._snapshot()
        self._restore(before)
        self._walk(right, pc, True)
        self._join_into(left_state)

    def _has_observable_print(self, cmd: Command) -> bool:
        if isinstance(cmd, Print):
            return self._observable(cmd.channel)
        if isinstance(cmd, Seq):
            return self._has_observable_print(cmd.first) or self._has_observable_print(cmd.second)
        if isinstance(cmd, If):
            return self._has_observable_print(cmd.then_branch) or self._has_observable_print(
                cmd.else_branch
            )
        if isinstance(cmd, While):
            return self._has_observable_print(cmd.body)
        if isinstance(cmd, Par):
            return self._has_observable_print(cmd.left) or self._has_observable_print(cmd.right)
        if isinstance(cmd, Atomic):
            return self._has_observable_print(cmd.body)
        return False

    # -- entry ----------------------------------------------------------------

    def run(self, program: Command) -> FlowReport:
        try:
            self._walk(program, LOW, False)
        except _Bailout:
            return FlowReport("unknown", tuple(self._findings), tuple(self._reasons))
        if self._findings:
            return FlowReport("unknown", tuple(self._findings), ())
        return FlowReport("secure", (), ())


def analyze_flow(
    program: Command,
    low_inputs: Iterable[str] = (),
    high_inputs: Iterable[str] = (),
    observable: Optional[Callable[[str], bool]] = None,
    source: str = "<program>",
) -> FlowReport:
    """Run the flow analysis on ``program``.

    ``observable`` decides which output channels the attacker sees;
    by default every channel is observable (the conservative choice).
    """
    analyzer = _FlowAnalyzer(
        low_inputs=low_inputs,
        high_inputs=high_inputs,
        observable=observable if observable is not None else (lambda channel: True),
        source=source,
    )
    return analyzer.run(program)


def analyze_spec_flow(spec: ProgramSpec, source: Optional[str] = None) -> FlowReport:
    """Flow analysis of a full :class:`ProgramSpec` (inputs + channel labels)."""
    return analyze_flow(
        spec.program,
        low_inputs=spec.low_inputs,
        high_inputs=spec.high_inputs,
        observable=spec.channel_observable,
        source=source if source is not None else spec.name,
    )
