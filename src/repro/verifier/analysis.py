"""The core static analysis of the automated verifier.

A relational taint analysis over the object language that discharges the
four central properties of Sec. 2.2/2.3 at the program level:

1. *Low initial abstract value* — the value stored in the resource cell at
   ``share`` must be low;
2. *Number of modifications is low* — atomic actions under high branch or
   loop conditions produce a **retroactive obligation** (the paper checks
   the count when unsharing; we discharge the obligation with the bounded
   relational checker, see :mod:`repro.verifier.frontend`);
3. *Modification arguments satisfy the precondition* — the projections an
   action declares low must be low-tainted at the call site, or again a
   retroactive obligation is recorded (the pipeline pattern of Sec. 5);
4. *Commutativity* — delegated to the specification validity checker.

The analysis also enforces the CSL discipline that makes the logic apply:
the shared cell is only accessed inside annotated atomic blocks while
shared, every modification goes through a declared action, and unique
actions are used by at most one thread of any parallel composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    node_pos,
)
from ..spec.actions import Action
from .declarations import ProgramSpec, ResourceDecl
from .taint import HIGH, LOW, Taint, abstract, join, join_all

# Projection names (Action.low_projections) mapped to pair components of a
# ``pair(a, b)`` argument expression; None means the whole argument.
PROJECTION_INDEX: dict[str, Optional[int]] = {
    "arg": None,
    "fst": 0,
    "snd": 1,
    "key": 0,
    "salary": 1,
    "amount": 1,
}


@dataclass
class Obligation:
    """A proof obligation deferred to retroactive (bounded) checking."""

    kind: str  # 'retroactive-count' | 'retroactive-pre' | 'unary-requires'
    description: str
    discharged: bool = False
    method: str = ""

    def __str__(self) -> str:
        status = f"discharged by {self.method}" if self.discharged else "OPEN"
        return f"[{self.kind}] {self.description} ({status})"


@dataclass
class AnalysisState:
    """Mutable abstract state of the taint walk."""

    env: dict[str, Taint] = field(default_factory=dict)
    heap: dict[str, Taint] = field(default_factory=dict)  # keyed by location var
    phase: dict[str, str] = field(default_factory=dict)  # resource -> phase

    def copy(self) -> "AnalysisState":
        return AnalysisState(dict(self.env), dict(self.heap), dict(self.phase))

    def var(self, name: str) -> Taint:
        return self.env.get(name, LOW)  # uninitialized variables are 0 in both runs

    def join_with(self, other: "AnalysisState") -> None:
        for name in set(self.env) | set(other.env):
            self.env[name] = join(self.var(name), other.var(name))
        for name in set(self.heap) | set(other.heap):
            self.heap[name] = join(self.heap.get(name, LOW), other.heap.get(name, LOW))
        for name in set(self.phase) | set(other.phase):
            if self.phase.get(name) != other.phase.get(name):
                raise AnalysisError(
                    f"resource {name!r} is in different phases on joining control paths"
                )

    def equivalent(self, other: "AnalysisState") -> bool:
        names = set(self.env) | set(other.env)
        if any(self.var(name) != other.var(name) for name in names):
            return False
        locations = set(self.heap) | set(other.heap)
        return all(self.heap.get(loc, LOW) == other.heap.get(loc, LOW) for loc in locations)


class AnalysisError(Exception):
    """An unconditional verification error found by the static analysis."""


def _cite(node) -> str:
    """`` (at line L, col C)`` when the parser stamped a position, else ``""``."""
    pos = node_pos(node)
    return f" (at {pos})" if pos is not None else ""


@dataclass
class AnalysisReport:
    errors: list[str] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)
    atomic_blocks: list[Atomic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors


class TaintAnalyzer:
    """Walks a program, tracking relational taints and CSL discipline."""

    def __init__(self, program_spec: ProgramSpec) -> None:
        self._spec = program_spec
        self.report = AnalysisReport()
        # Loop fixpoints revisit atomic blocks; record each node only once.
        self._seen_atomics: set[int] = set()
        self._obligation_keys: dict[tuple, Obligation] = {}

    # -- entry point ---------------------------------------------------------

    def analyze(self) -> AnalysisReport:
        state = AnalysisState()
        for name in self._spec.low_inputs:
            state.env[name] = LOW
        for name in self._spec.high_inputs:
            state.env[name] = HIGH
        for decl in self._spec.resources:
            state.phase[decl.name] = "inactive"
        self._check_unique_usage(self._spec.program)
        try:
            self._walk(self._spec.program, state, high_ctx=False, in_atomic=None)
        except AnalysisError as error:
            self.report.errors.append(str(error))
        return self.report

    # -- expression taint -----------------------------------------------------

    def expr_taint(self, expr: Expr, state: AnalysisState) -> Taint:
        if isinstance(expr, Lit):
            return LOW
        if isinstance(expr, Var):
            return state.var(expr.name)
        if isinstance(expr, UnOp):
            return self.expr_taint(expr.operand, state)
        if isinstance(expr, BinOp):
            left = self.expr_taint(expr.left, state)
            right = self.expr_taint(expr.right, state)
            combined = join(left, right)
            # Arithmetic on abstract values loses the view structure.
            return HIGH if combined.is_abstract() else combined
        if isinstance(expr, Call):
            return self._call_taint(expr, state)
        raise TypeError(f"not an expression: {expr!r}")

    def _call_taint(self, expr: Call, state: AnalysisState) -> Taint:
        taints = [self.expr_taint(arg, state) for arg in expr.args]
        abstracts = [taint for taint in taints if taint.is_abstract()]
        if abstracts:
            if len(abstracts) == 1 and all(t.is_low() or t.is_abstract() for t in taints):
                resource = abstracts[0].resource
                decl = self._spec.resource_by_name(resource)
                if expr.function in decl.low_views:
                    return LOW
            return HIGH
        return join_all(*taints)

    # -- command walk ---------------------------------------------------------

    def _walk(
        self,
        cmd: Command,
        state: AnalysisState,
        high_ctx: bool,
        in_atomic: Optional[ResourceDecl],
    ) -> None:
        if isinstance(cmd, Skip):
            return
        if isinstance(cmd, Assign):
            taint = self.expr_taint(cmd.expr, state)
            state.env[cmd.target] = HIGH if high_ctx else taint
            return
        if isinstance(cmd, Alloc):
            state.env[cmd.target] = LOW
            state.heap[cmd.target] = HIGH if high_ctx else self.expr_taint(cmd.expr, state)
            return
        if isinstance(cmd, Load):
            state.env[cmd.target] = self._load_taint(cmd, state, high_ctx, in_atomic)
            return
        if isinstance(cmd, Store):
            self._store(cmd, state, high_ctx, in_atomic)
            return
        if isinstance(cmd, Seq):
            self._walk(cmd.first, state, high_ctx, in_atomic)
            self._walk(cmd.second, state, high_ctx, in_atomic)
            return
        if isinstance(cmd, If):
            condition_taint = self.expr_taint(cmd.condition, state)
            branch_high = high_ctx or not condition_taint.is_low()
            then_state = state.copy()
            else_state = state.copy()
            self._walk(cmd.then_branch, then_state, branch_high, in_atomic)
            self._walk(cmd.else_branch, else_state, branch_high, in_atomic)
            then_state.join_with(else_state)
            state.env, state.heap, state.phase = then_state.env, then_state.heap, then_state.phase
            return
        if isinstance(cmd, While):
            self._walk_while(cmd, state, high_ctx, in_atomic)
            return
        if isinstance(cmd, Par):
            left_state = state.copy()
            right_state = state.copy()
            self._walk(cmd.left, left_state, high_ctx, in_atomic)
            self._walk(cmd.right, right_state, high_ctx, in_atomic)
            left_state.join_with(right_state)
            state.env, state.heap, state.phase = left_state.env, left_state.heap, left_state.phase
            return
        if isinstance(cmd, Atomic):
            self._walk_atomic(cmd, state, high_ctx, in_atomic)
            return
        if isinstance(cmd, Share):
            decl = self._spec.resource_by_name(cmd.resource)
            if state.phase.get(decl.name) != "inactive":
                raise AnalysisError(f"share {decl.name}: resource is already {state.phase.get(decl.name)}")
            initial = state.heap.get(decl.location_var, HIGH)
            if not initial.is_low():
                self.report.errors.append(
                    f"share {decl.name}: initial resource value is not low "
                    f"(property 1 — low initial abstract value)"
                )
            state.phase[decl.name] = "shared"
            return
        if isinstance(cmd, Unshare):
            decl = self._spec.resource_by_name(cmd.resource)
            if state.phase.get(decl.name) != "shared":
                raise AnalysisError(f"unshare {decl.name}: resource is not shared")
            state.phase[decl.name] = "unshared"
            return
        if isinstance(cmd, Print):
            if not self._spec.channel_observable(cmd.channel):
                return  # unobservable channel: no lowness obligation
            if high_ctx:
                self.report.errors.append(
                    f"print({cmd.expr}): output statement under a high branch condition{_cite(cmd)}"
                )
            taint = self.expr_taint(cmd.expr, state)
            if not taint.is_low():
                self.report.errors.append(
                    f"print({cmd.expr}): printed value has taint {taint} — low output may leak{_cite(cmd)}"
                )
            return
        if isinstance(cmd, (Fork, Join)):
            raise AnalysisError(
                f"{cmd}: the static analysis works on the structured core "
                f"calculus; desugar fork/join first with "
                f"repro.lang.desugar.threaded_equivalent (CaseStudy.program() does)"
            )
        raise TypeError(f"not a command: {cmd!r}")

    def _walk_while(
        self,
        cmd,
        state: AnalysisState,
        high_ctx: bool,
        in_atomic: Optional[ResourceDecl],
    ) -> None:
        for _ in range(64):
            condition_taint = self.expr_taint(cmd.condition, state)
            body_state = state.copy()
            self._walk(cmd.body, body_state, high_ctx or not condition_taint.is_low(), in_atomic)
            body_state.join_with(state)
            if body_state.equivalent(state):
                return
            state.env, state.heap = body_state.env, body_state.heap
        raise AnalysisError(f"while ({cmd.condition}): taint fixpoint did not converge")

    # -- heap access ------------------------------------------------------------

    def _location_decl(self, address: Expr) -> Optional[ResourceDecl]:
        if isinstance(address, Var):
            return self._spec.resource_by_location(address.name)
        return None

    def _load_taint(
        self,
        cmd: Load,
        state: AnalysisState,
        high_ctx: bool,
        in_atomic: Optional[ResourceDecl],
    ) -> Taint:
        decl = self._location_decl(cmd.address)
        if decl is not None:
            phase = state.phase.get(decl.name, "inactive")
            if phase == "shared":
                if in_atomic is not decl:
                    raise AnalysisError(
                        f"read of shared cell [{cmd.address}] outside an atomic block "
                        f"for {decl.name}{_cite(cmd)}"
                    )
                # Inside the atomic block only the invariant is known —
                # shared data is implicitly high (Sec. 2.6).
                return HIGH
            if phase == "unshared":
                if decl.has_identity_abstraction():
                    return LOW
                return abstract(decl.name)
            base = state.heap.get(decl.location_var, HIGH)
            return HIGH if high_ctx else base
        if isinstance(cmd.address, Var):
            base = state.heap.get(cmd.address.name, HIGH)
            return HIGH if high_ctx else base
        return HIGH

    def _store(
        self,
        cmd: Store,
        state: AnalysisState,
        high_ctx: bool,
        in_atomic: Optional[ResourceDecl],
    ) -> None:
        decl = self._location_decl(cmd.address)
        value_taint = self.expr_taint(cmd.expr, state)
        if decl is not None:
            phase = state.phase.get(decl.name, "inactive")
            if phase == "shared":
                if in_atomic is not decl:
                    raise AnalysisError(
                        f"write to shared cell [{cmd.address}] outside an atomic block "
                        f"for {decl.name}{_cite(cmd)}"
                    )
                return  # the action-conformance check validates the effect
            key = decl.location_var
        elif isinstance(cmd.address, Var):
            key = cmd.address.name
        else:
            return  # writes through computed addresses: no tracking (conservative)
        if high_ctx:
            state.heap[key] = HIGH
        else:
            state.heap[key] = value_taint

    # -- atomic blocks -------------------------------------------------------------

    def _walk_atomic(
        self,
        cmd: Atomic,
        state: AnalysisState,
        high_ctx: bool,
        in_atomic: Optional[ResourceDecl],
    ) -> None:
        if in_atomic is not None:
            raise AnalysisError("nested atomic blocks are not supported")
        if cmd.action is None:
            if any(phase == "shared" for phase in state.phase.values()):
                raise AnalysisError(
                    "unannotated atomic block while a resource is shared: every "
                    "modification must name its action"
                )
            self._walk(cmd.body, state, high_ctx, None)
            return
        decl = self._spec.resource_by_action(cmd.action)
        if state.phase.get(decl.name) != "shared":
            raise AnalysisError(
                f"atomic [{cmd.action}]: resource {decl.name} is not shared here "
                f"(no guard exists){_cite(cmd)}"
            )
        if id(cmd) not in self._seen_atomics:
            self._seen_atomics.add(id(cmd))
            self.report.atomic_blocks.append(cmd)
        action = decl.spec.action(cmd.action)
        # Obligations are keyed so loop-fixpoint revisits (where taints may
        # have risen) update rather than duplicate them.
        if cmd.when is not None:
            self._add_obligation(
                (id(cmd), "blocking-guard"),
                Obligation(
                    "blocking-guard",
                    f"atomic [{cmd.action}] has a blocking guard ({cmd.when}); its effect "
                    f"on schedules must be shown benign (App. D) — discharged by bounded "
                    f"checking",
                ),
            )
        if high_ctx:
            self._add_obligation(
                (id(cmd), "retroactive-count"),
                Obligation(
                    "retroactive-count",
                    f"atomic [{cmd.action}] occurs under a high condition; the number of "
                    f"performed actions must be shown low retroactively (Sec. 2.5)",
                ),
            )
        self._check_argument_lowness(action, cmd, state)
        if action.relational_requires is not None:
            self._add_obligation(
                (id(cmd), "retroactive-relational"),
                Obligation(
                    "retroactive-relational",
                    f"action {action.name} has a general relational precondition "
                    f"(e.g. value-dependent sensitivity, Sec. 3.4) that the taint "
                    f"walk cannot discharge; checked retroactively at unshare",
                ),
            )
        if action.unary_requires is not None:
            self._add_obligation(
                (id(cmd), "unary-requires"),
                Obligation(
                    "unary-requires",
                    f"action {action.name} has a unary argument constraint; discharged by "
                    f"bounded checking of the recorded arguments",
                ),
            )
        self._walk(cmd.body, state, high_ctx, decl)

    def _add_obligation(self, key: tuple, obligation: Obligation) -> None:
        existing = self._obligation_keys.get(key)
        if existing is None:
            self._obligation_keys[key] = obligation
            self.report.obligations.append(obligation)
        else:
            existing.description = obligation.description

    def _check_argument_lowness(self, action: Action, cmd: Atomic, state: AnalysisState) -> None:
        for projection_name, _ in action.low_projections:
            taint = self._projection_taint(projection_name, cmd.argument, state)
            if not taint.is_low():
                self._add_obligation(
                    (id(cmd), "retroactive-pre", projection_name),
                    Obligation(
                        "retroactive-pre",
                        f"atomic [{cmd.action}({cmd.argument})]: projection "
                        f"{projection_name!r} has taint {taint}; precondition must be "
                        f"established retroactively at unshare (Sec. 2.5)",
                    ),
                )

    def _projection_taint(self, projection_name: str, argument: Expr, state: AnalysisState) -> Taint:
        index = PROJECTION_INDEX.get(projection_name)
        if (
            index is not None
            and isinstance(argument, Call)
            and argument.function == "pair"
            and len(argument.args) == 2
        ):
            return self.expr_taint(argument.args[index], state)
        return self.expr_taint(argument, state)

    # -- unique-action discipline -----------------------------------------------------

    def _check_unique_usage(self, cmd: Command) -> None:
        """Unique guards are unsplittable: a unique action may not occur in
        both branches of any parallel composition."""

        def actions_used(command: Command) -> frozenset[str]:
            if isinstance(command, Atomic) and command.action is not None:
                return frozenset({command.action})
            if isinstance(command, Seq):
                return actions_used(command.first) | actions_used(command.second)
            if isinstance(command, If):
                return actions_used(command.then_branch) | actions_used(command.else_branch)
            if isinstance(command, While):
                return actions_used(command.body)
            if isinstance(command, Par):
                return actions_used(command.left) | actions_used(command.right)
            if isinstance(command, Atomic):
                return actions_used(command.body)
            return frozenset()

        def check(command: Command) -> None:
            if isinstance(command, Par):
                overlap = actions_used(command.left) & actions_used(command.right)
                for name in sorted(overlap):
                    try:
                        decl = self._spec.resource_by_action(name)
                    except KeyError:
                        continue
                    if decl.spec.action(name).is_unique:
                        self.report.errors.append(
                            f"unique action {name!r} is used by both branches of a parallel "
                            f"composition — unique guards cannot be split (Sec. 2.7)"
                        )
                check(command.left)
                check(command.right)
            elif isinstance(command, Seq):
                check(command.first)
                check(command.second)
            elif isinstance(command, If):
                check(command.then_branch)
                check(command.else_branch)
            elif isinstance(command, While):
                check(command.body)
            elif isinstance(command, Atomic):
                check(command.body)

        check(cmd)
