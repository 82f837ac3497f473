"""Procedures and threaded programs (the HyperViper front-end language).

HyperViper "supports a richer language than the one used in this paper; in
particular, instead of parallel composition commands, it allows dynamic
thread creation using fork and join commands" (Sec. 5).  This module
provides the declaration side of that richer language:

* :class:`Procedure` — a named, parameterized command (the body of a
  forkable worker, e.g. ``worker(households, f, t, m)`` of Fig. 3);
* :class:`ThreadedProgram` — a main command plus its procedure table.

The runtime for ``fork``/``join`` is the thread pool of
:mod:`repro.lang.threads`, which steps each thread with the structured
semantics (:mod:`repro.lang.semantics`) and performs only the
``fork``/``join`` redexes itself; the static reduction to the paper's
structured ``||`` (used by the verifier) lives in
:mod:`repro.lang.desugar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .ast import Command, Expr, command_mod, expr_subst, map_command


class ProcedureError(Exception):
    """Raised on ill-formed procedure declarations or calls."""


@dataclass(frozen=True)
class Procedure:
    """A named procedure ``p(x1, ..., xn) { body }``.

    The body may read its parameters and its own locals; it must not read
    variables of the enclosing scope (threads have private stores — all
    communication goes through the shared heap, as in the paper's model).
    """

    name: str
    params: Tuple[str, ...]
    body: Command

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise ProcedureError(f"procedure {self.name}: duplicate parameter names")

    def instantiate(self, args: Tuple[Expr, ...]) -> Command:
        """The body with parameters substituted by argument *expressions*.

        Used by the static desugarer; the thread pool instead binds
        evaluated values into a fresh store (call-by-value).
        """
        if len(args) != len(self.params):
            raise ProcedureError(
                f"procedure {self.name}: expected {len(self.params)} arguments, "
                f"got {len(args)}"
            )
        body = self.body
        for param, arg in zip(self.params, args):
            body = command_subst_expr(body, param, arg)
        return body


@dataclass(frozen=True)
class ThreadedProgram:
    """A main command plus the procedures it may fork."""

    main: Command
    procedures: Tuple[Procedure, ...] = ()

    def procedure(self, name: str) -> Procedure:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise ProcedureError(f"no procedure named {name!r}")

    def table(self) -> Mapping[str, Procedure]:
        return {proc.name: proc for proc in self.procedures}


def command_subst_expr(cmd: Command, name: str, replacement: Expr) -> Command:
    """Substitute ``replacement`` for free *reads* of variable ``name``.

    Substitution stops below a binder: a command that assigns to ``name``
    makes later occurrences refer to the local value, so we only
    substitute up to (and within the right-hand sides of) the first
    assignment to ``name`` on each control path.  Procedure bodies in our
    case studies never shadow their parameters, which keeps this simple
    rule exact; a shadowing body raises :class:`ProcedureError` so the
    inexactness can never be silent.
    """
    if name in command_mod(cmd):
        raise ProcedureError(
            f"substitution into a command that assigns {name!r} (shadowing "
            f"parameters is not supported; rename the local)"
        )
    return map_command(cmd, lambda expr: expr_subst(expr, name, replacement))
