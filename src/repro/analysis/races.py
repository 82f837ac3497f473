"""Lockset-based static race detection (Eraser, Savage et al. 1997).

A may-happen-in-parallel analysis over the structured ``Par`` composition
combined with a lockset abstraction of ``atomic``: in this semantics an
``atomic`` block executes as one indivisible step, so every atomic block
behaves as a critical section of one global lock.  Two heap accesses can
race exactly when they sit in different branches of some parallel
composition (may happen in parallel), at least one is a write, and their
locksets are disjoint — i.e. at least one of them is outside every
``atomic``.

On top of the bare lockset check, two discipline checks from the paper's
CSL layer run when a :class:`~repro.verifier.declarations.ProgramSpec` is
available:

* ``R002`` — the shared resource cell is read or written outside an
  atomic block while the resource is shared (the verifier rejects this
  too, but late, as a stage-2 analysis error; here it surfaces in
  microseconds with a source position);
* ``R003`` — a unique action is used by both branches of a parallel
  composition (unique guards cannot be split, Sec. 2.7).

This is a diagnostic analysis: it over-approximates may-happen-in-parallel
(every pair of opposite ``Par`` branches is considered concurrent) and
under-approximates aliasing (heap cells are identified by the allocating
variable).  The *sound* one of the static analyses is
:mod:`repro.analysis.flow`, which independently rejects programs whose
parallel branches interfere at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

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
    walk,
)
from ..verifier.declarations import ProgramSpec
from .diagnostics import Diagnostic, diagnostic_at

#: The single global lock every ``atomic`` block holds.
ATOMIC_LOCK = "atomic"


@dataclass(frozen=True)
class HeapAccess:
    """One static heap access with the lockset held at the access site."""

    location: Optional[str]  # allocating variable, or None for computed addresses
    kind: str  # 'read' | 'write'
    lockset: frozenset
    node: Command

    def conflicts_with(self, other: "HeapAccess") -> bool:
        if self.kind == "read" and other.kind == "read":
            return False
        if self.location is not None and other.location is not None:
            if self.location != other.location:
                return False
        return not (self.lockset & other.lockset)

    def describe_location(self) -> str:
        return "?" if self.location is None else self.location


def _address_location(address: Expr) -> Optional[str]:
    return address.name if isinstance(address, Var) else None


def _guard_reads(expr: Expr, lockset: frozenset, node: Command) -> List[HeapAccess]:
    """Heap reads performed by a blocking guard's ``deref`` applications."""
    if isinstance(expr, Call):
        reads: List[HeapAccess] = []
        if expr.function == "deref" and len(expr.args) == 1:
            reads.append(HeapAccess(_address_location(expr.args[0]), "read", lockset, node))
        for arg in expr.args:
            reads.extend(_guard_reads(arg, lockset, node))
        return reads
    if isinstance(expr, BinOp):
        return _guard_reads(expr.left, lockset, node) + _guard_reads(expr.right, lockset, node)
    if isinstance(expr, UnOp):
        return _guard_reads(expr.operand, lockset, node)
    return []


def collect_accesses(cmd: Command, lockset: frozenset = frozenset()) -> List[HeapAccess]:
    """All static heap accesses in ``cmd`` with their locksets.

    ``alloc`` is not an access: the allocated cell is fresh, so it cannot
    race with anything already reachable.
    """
    if isinstance(cmd, (Skip, Assign, Share, Unshare, Print, Fork, Join)):
        return []
    if isinstance(cmd, Load):
        return [HeapAccess(_address_location(cmd.address), "read", lockset, cmd)]
    if isinstance(cmd, Store):
        return [HeapAccess(_address_location(cmd.address), "write", lockset, cmd)]
    if isinstance(cmd, Alloc):
        return []
    if isinstance(cmd, Seq):
        return collect_accesses(cmd.first, lockset) + collect_accesses(cmd.second, lockset)
    if isinstance(cmd, If):
        return collect_accesses(cmd.then_branch, lockset) + collect_accesses(cmd.else_branch, lockset)
    if isinstance(cmd, While):
        return collect_accesses(cmd.body, lockset)
    if isinstance(cmd, Par):
        return collect_accesses(cmd.left, lockset) + collect_accesses(cmd.right, lockset)
    if isinstance(cmd, Atomic):
        inner = lockset | {ATOMIC_LOCK}
        accesses = collect_accesses(cmd.body, inner)
        if cmd.when is not None:
            accesses.extend(_guard_reads(cmd.when, inner, cmd))
        return accesses
    raise TypeError(f"not a command: {cmd!r}")


def _each_par(cmd: Command):
    """Yield every ``Par`` node in ``cmd`` (pre-order)."""
    return (node for node in walk(cmd) if isinstance(node, Par))


def _lockset_races(cmd: Command, source: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for par in _each_par(cmd):
        left = collect_accesses(par.left)
        right = collect_accesses(par.right)
        reported: Set[Tuple[Optional[str], str, str]] = set()
        for a in left:
            for b in right:
                if not a.conflicts_with(b):
                    continue
                key = (a.location or b.location, a.kind, b.kind)
                if key in reported:
                    continue
                reported.add(key)
                location = a.describe_location() if a.location is not None else b.describe_location()
                unlocked = a if not a.lockset else b
                diagnostics.append(
                    diagnostic_at(
                        "R001",
                        "error",
                        f"data race on heap cell [{location}]: {a.kind} and {b.kind} may "
                        f"happen in parallel with disjoint locksets "
                        f"({set(a.lockset) or '{}'} vs {set(b.lockset) or '{}'})",
                        node=unlocked.node,
                        source=source,
                    )
                )
    return diagnostics


# =============================================================================
# Spec-aware discipline checks (R002 / R003)
# =============================================================================


def _shared_cell_discipline(
    cmd: Command,
    spec: ProgramSpec,
    shared: Set[str],
    in_atomic: Optional[str],
    source: str,
    diagnostics: List[Diagnostic],
) -> None:
    """Track share phases and flag shared-cell accesses outside atomics.

    Best-effort: control-flow joins keep the union of shared resources,
    which can only add diagnostics, never hide a straight-line violation.
    """
    if isinstance(cmd, (Skip, Assign, Alloc, Print, Fork, Join)):
        return
    if isinstance(cmd, (Load, Store)):
        address = cmd.address
        kind = "read" if isinstance(cmd, Load) else "write"
        if isinstance(address, Var):
            decl = spec.resource_by_location(address.name)
            if decl is not None and decl.name in shared and in_atomic != decl.name:
                diagnostics.append(
                    diagnostic_at(
                        "R002",
                        "error",
                        f"{kind} of shared cell [{address.name}] outside an atomic "
                        f"block while resource {decl.name} is shared",
                        node=cmd,
                        source=source,
                    )
                )
        return
    if isinstance(cmd, Seq):
        _shared_cell_discipline(cmd.first, spec, shared, in_atomic, source, diagnostics)
        _shared_cell_discipline(cmd.second, spec, shared, in_atomic, source, diagnostics)
        return
    if isinstance(cmd, If):
        _shared_cell_discipline(cmd.then_branch, spec, shared, in_atomic, source, diagnostics)
        _shared_cell_discipline(cmd.else_branch, spec, shared, in_atomic, source, diagnostics)
        return
    if isinstance(cmd, While):
        _shared_cell_discipline(cmd.body, spec, shared, in_atomic, source, diagnostics)
        return
    if isinstance(cmd, Par):
        left_shared, right_shared = set(shared), set(shared)
        _shared_cell_discipline(cmd.left, spec, left_shared, in_atomic, source, diagnostics)
        _shared_cell_discipline(cmd.right, spec, right_shared, in_atomic, source, diagnostics)
        shared.clear()
        shared.update(left_shared | right_shared)
        return
    if isinstance(cmd, Atomic):
        resource = in_atomic
        if cmd.action is not None:
            try:
                resource = spec.resource_by_action(cmd.action).name
            except KeyError:
                resource = in_atomic
        _shared_cell_discipline(cmd.body, spec, shared, resource, source, diagnostics)
        return
    if isinstance(cmd, Share):
        shared.add(cmd.resource)
        return
    if isinstance(cmd, Unshare):
        shared.discard(cmd.resource)
        return
    raise TypeError(f"not a command: {cmd!r}")


def _actions_used(cmd: Command) -> frozenset:
    return frozenset(
        node.action for node in walk(cmd) if isinstance(node, Atomic) and node.action is not None
    )


def _unique_action_splits(cmd: Command, spec: ProgramSpec, source: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for par in _each_par(cmd):
        overlap = _actions_used(par.left) & _actions_used(par.right)
        for name in sorted(overlap):
            try:
                decl = spec.resource_by_action(name)
            except KeyError:
                continue
            if decl.spec.action(name).is_unique:
                diagnostics.append(
                    diagnostic_at(
                        "R003",
                        "error",
                        f"unique action {name!r} is used by both branches of a "
                        f"parallel composition — unique guards cannot be split",
                        node=par,
                        source=source,
                    )
                )
    return diagnostics


def check_races(
    program: Command,
    spec: Optional[ProgramSpec] = None,
    source: str = "<program>",
) -> List[Diagnostic]:
    """Run the lockset race detector, plus R002/R003 when a spec is given."""
    diagnostics = _lockset_races(program, source)
    if spec is not None:
        shared: Set[str] = set()
        _shared_cell_discipline(program, spec, shared, None, source, diagnostics)
        diagnostics.extend(_unique_action_splits(program, spec, source))
    return diagnostics
