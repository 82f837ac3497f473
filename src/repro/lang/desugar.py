"""Static reduction of ``fork``/``join`` to structured ``||``.

The paper's logic is formalized for structured parallel composition; the
implementation language adds dynamic threads (Sec. 5).  HyperViper
verifies fork/join directly against per-procedure contracts; we instead
*desugar* well-structured fork/join programs into the paper's core
calculus and reuse the entire verification pipeline unchanged.  The
supported shape is the ubiquitous barrier pattern of the App. E example:

    prefix;
    t1 := fork p1(args1); ...; tn := fork pn(argsn);
    middle;                          # runs concurrently with the workers
    join p1(t1); ...; join pn(tn);
    suffix

possibly repeated in phases.  The desugared command is

    prefix; (body1 || ... || bodyn || middle); suffix

where each body is the procedure body with arguments substituted and
locals renamed apart (thread stores are private, so renaming is exactly
faithful).  The reduction checks the side conditions that make it sound:

* every ``join`` names a token variable bound by exactly one earlier,
  still-pending ``fork``;
* token variables are not otherwise read or written;
* fork argument expressions are not modified between the fork and its
  join (they are snapshots taken at fork time).

:func:`threaded_equivalent` packages the reduction for the verifier.  The
runtime for fork/join is the thread pool of :mod:`repro.lang.threads`, a
driver over the same step relation (:mod:`repro.lang.semantics`) that the
reduced program runs on; the two are cross-validated by enumerating all
interleavings of both on small programs and on the catalogue's fork/join
case studies (``tests/unit/test_threads.py``,
``tests/integration/test_threaded_cases.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .ast import (
    Command,
    Expr,
    Fork,
    Join,
    Seq,
    Skip,
    Var,
    command_fv,
    command_mod,
    expr_fv,
    expr_subst,
    map_command,
    par_all,
    seq_all,
    walk,
)
from .procedures import ProcedureError, ThreadedProgram


class DesugarError(Exception):
    """The program is outside the supported fork/join fragment."""


# ---------------------------------------------------------------------------
# Variable renaming (for making thread-local stores explicit)
# ---------------------------------------------------------------------------


def rename_expr(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    result = expr
    for old, new in mapping.items():
        result = expr_subst(result, old, Var(new))
    return result


def rename_vars(cmd: Command, mapping: Mapping[str, str]) -> Command:
    """Rename variables (both reads and writes) according to ``mapping``."""
    return map_command(
        cmd,
        lambda expr: rename_expr(expr, mapping),
        lambda name: mapping.get(name, name),
    )


# ---------------------------------------------------------------------------
# The reduction
# ---------------------------------------------------------------------------


def _linearize(cmd: Command) -> list[Command]:
    """Flatten the Seq spine of a command into a statement list."""
    if isinstance(cmd, Seq):
        return _linearize(cmd.first) + _linearize(cmd.second)
    if isinstance(cmd, Skip):
        return []
    return [cmd]


@dataclass
class _PendingFork:
    token: str
    procedure: str
    body: Command
    arg_fv: frozenset[str]


def forks_to_par(program: ThreadedProgram) -> Command:
    """Desugar the main command of ``program`` into structured ``||``.

    Raises :class:`DesugarError` if the program is outside the supported
    barrier-structured fragment (fork/join under conditionals or loops,
    re-used token variables, joins without matching forks, ...).
    """
    for proc in program.procedures:
        if _has_fork_join(proc.body):
            raise DesugarError(
                f"procedure {proc.name!r} itself forks; nested fork trees are "
                f"not in the supported fragment"
            )
    statements = _linearize(program.main)
    for statement in statements:
        if not isinstance(statement, (Fork, Join)) and _has_fork_join(statement):
            raise DesugarError(
                f"fork/join nested under control flow is not in the supported "
                f"fragment: {statement}"
            )

    output: list[Command] = []
    pending: list[_PendingFork] = []
    closed: list[_PendingFork] = []
    middle: list[Command] = []
    fork_counter = 0

    for statement in statements:
        if isinstance(statement, Fork):
            proc = program.procedure(statement.procedure)
            free = command_fv(proc.body)
            bound = set(proc.params) | set(command_mod(proc.body))
            if not free <= bound:
                raise DesugarError(
                    f"procedure {proc.name!r} reads undeclared variables "
                    f"{sorted(free - bound)} (thread stores are private; pass "
                    f"them as parameters)"
                )
            body = proc.instantiate(statement.args)
            locals_ = sorted(command_mod(body))
            mapping = {name: f"{name}__t{fork_counter}" for name in locals_}
            body = rename_vars(body, mapping)
            arg_fv: frozenset[str] = frozenset()
            for arg in statement.args:
                arg_fv |= expr_fv(arg)
            if any(p.token == statement.target for p in pending):
                raise DesugarError(
                    f"token variable {statement.target!r} reused while its "
                    f"thread is still pending"
                )
            pending.append(_PendingFork(statement.target, statement.procedure, body, arg_fv))
            fork_counter += 1
            continue
        if isinstance(statement, Join):
            if not isinstance(statement.token, Var):
                raise DesugarError(
                    f"join token must be a variable for static reduction, got "
                    f"{statement.token}"
                )
            index = next(
                (i for i, p in enumerate(pending) if p.token == statement.token.name),
                None,
            )
            if index is None:
                raise DesugarError(
                    f"join {statement.procedure}({statement.token}): no pending "
                    f"fork bound this token"
                )
            entry = pending[index]
            if entry.procedure != statement.procedure:
                raise DesugarError(
                    f"join names procedure {statement.procedure!r} but token "
                    f"{entry.token!r} was forked as {entry.procedure!r}"
                )
            # The join order within a barrier phase is irrelevant: we close
            # the phase when the last pending fork is joined.
            entry_done = pending.pop(index)
            closed.append(entry_done)
            if not pending:
                bodies = [entry.body for entry in closed]
                closed = []
                threads = list(bodies)
                if middle:
                    threads.append(seq_all(*middle))
                output.append(threads[0] if len(threads) == 1 else par_all(*threads))
                middle = []
            continue
        if pending:
            mods = command_mod(statement)
            for entry in pending + closed:
                if entry.token in mods:
                    raise DesugarError(
                        f"token variable {entry.token!r} is assigned while its "
                        f"thread is pending"
                    )
                if entry.arg_fv & mods:
                    raise DesugarError(
                        f"fork arguments of {entry.procedure!r} are modified "
                        f"between fork and join: {sorted(entry.arg_fv & mods)}"
                    )
            middle.append(statement)
        else:
            output.append(statement)

    if pending or closed:
        leftover = [p.procedure for p in pending + closed]
        raise DesugarError(f"forked threads never joined: {leftover}")
    if middle:
        raise DesugarError("internal error: middle statements without an open phase")
    return seq_all(*output)


def _has_fork_join(cmd: Command) -> bool:
    return any(isinstance(node, (Fork, Join)) for node in walk(cmd))


def threaded_equivalent(program: ThreadedProgram) -> Command:
    """Public entry point: the structured equivalent of a threaded program.

    A program without any fork/join is returned unchanged.
    """
    if not _has_fork_join(program.main):
        return program.main
    return forks_to_par(program)
