"""Pluggable lint framework over the object-language AST.

A *lint target* is one program (optionally with procedures and a
:class:`~repro.verifier.declarations.ProgramSpec`); each registered
:class:`LintRule` maps a target to zero or more structured
:class:`~repro.analysis.diagnostics.Diagnostic` values.  On top of the
purely syntactic rules (L-codes), a target with enough context also runs
the lockset race detector (R-codes) and, when sensitivity labels are
known, the flow analysis (F-codes).

Targets come from three places:

* catalogue case studies (``lint_case``) — full spec context, all rules;
* explicit ``.prog`` files — parsed as (threaded) programs;
* Python files (``examples/``, ``src/repro/casestudies/``) — module-level
  string literals that look like object-language programs are extracted
  and linted individually, named ``file.py:<line>``.

New rules register themselves with the :func:`lint_rule` decorator; the
CLI (``python -m repro lint``) and the daemon's ``lint`` op both render
whatever the registry produces, so a rule added here shows up everywhere.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..lang.ast import (
    Alloc,
    Assign,
    Atomic,
    Command,
    Expr,
    Fork,
    If,
    Join,
    Lit,
    Load,
    Print,
    Seq,
    Skip,
    Store,
    Var,
    While,
    command_fv,
    expr_fv,
    walk,
)
from ..lang.desugar import threaded_equivalent
from ..lang.parser import ParseError, parse_threaded_program
from ..lang.procedures import ThreadedProgram
from ..verifier.declarations import ProgramSpec
from .diagnostics import Diagnostic, diagnostic_at, sort_diagnostics
from .flow import analyze_flow, analyze_spec_flow
from .races import check_races

#: Substrings a Python string literal must contain to be considered an
#: embedded object-language program worth parsing.
_PROGRAM_MARKERS = (":=", "atomic", "share ")


@dataclass
class LintTarget:
    """One unit of lintable code with whatever context is available."""

    source: str
    program: Optional[Command] = None
    threaded: Optional[ThreadedProgram] = None
    spec: Optional[ProgramSpec] = None
    low_inputs: Tuple[str, ...] = ()
    high_inputs: Tuple[str, ...] = ()
    parse_error: Optional[str] = None

    def commands(self) -> List[Tuple[str, Command]]:
        """Every command scope: the main program plus procedure bodies."""
        if self.threaded is not None:
            scopes = [("", self.threaded.main)]
            for procedure in self.threaded.procedures:
                scopes.append((f"procedure {procedure.name}", procedure.body))
            return scopes
        if self.program is not None:
            return [("", self.program)]
        return []

    def whole_program(self) -> Optional[Command]:
        """The structured command for whole-program analyses, desugaring
        ``fork``/``join`` when procedures are present (best effort)."""
        if self.threaded is not None:
            if not self.threaded.procedures:
                return self.threaded.main
            try:
                return threaded_equivalent(self.threaded)
            except Exception:
                return None  # malformed fork/join structure; L005 reports it
        return self.program


@dataclass(frozen=True)
class LintRule:
    code: str
    summary: str
    check: Callable[[LintTarget], Iterable[Diagnostic]]


#: Registry of syntactic lint rules, keyed by code.
LINT_RULES: Dict[str, LintRule] = {}


def lint_rule(code: str, summary: str):
    """Register a lint rule; the decorated function maps a target to
    an iterable of diagnostics."""

    def register(func: Callable[[LintTarget], Iterable[Diagnostic]]) -> Callable:
        LINT_RULES[code] = LintRule(code, summary, func)
        return func

    return register


# =============================================================================
# AST walking helpers
# =============================================================================


def _read_exprs(cmd: Command) -> List[Expr]:
    """Expressions evaluated (read) by one command, non-recursively."""
    if isinstance(cmd, Assign):
        return [cmd.expr]
    if isinstance(cmd, Load):
        return [cmd.address]
    if isinstance(cmd, Store):
        return [cmd.address, cmd.expr]
    if isinstance(cmd, Alloc):
        return [cmd.expr]
    if isinstance(cmd, If):
        return [cmd.condition]
    if isinstance(cmd, While):
        return [cmd.condition]
    if isinstance(cmd, Print):
        return [cmd.expr]
    if isinstance(cmd, Atomic):
        exprs: List[Expr] = []
        if cmd.argument is not None:
            exprs.append(cmd.argument)
        if cmd.when is not None:
            exprs.append(cmd.when)
        return exprs
    if isinstance(cmd, Fork):
        return list(cmd.args)
    if isinstance(cmd, Join):
        return [cmd.token]
    return []


def _reads(cmd: Command) -> frozenset:
    result: frozenset = frozenset()
    for node in walk(cmd):
        for expr in _read_exprs(node):
            result |= expr_fv(expr)
    return result


def _calls(expr: Expr) -> List[str]:
    from ..lang.ast import BinOp, Call, UnOp

    if isinstance(expr, Call):
        names = [expr.function]
        for arg in expr.args:
            names.extend(_calls(arg))
        return names
    if isinstance(expr, BinOp):
        return _calls(expr.left) + _calls(expr.right)
    if isinstance(expr, UnOp):
        return _calls(expr.operand)
    return []


# =============================================================================
# Syntactic rules
# =============================================================================


@lint_rule("L001", "variable is written but never read")
def _rule_unused_variable(target: LintTarget) -> Iterable[Diagnostic]:
    for scope, cmd in target.commands():
        reads = _reads(cmd)
        first_write: Dict[str, Command] = {}
        for node in walk(cmd):
            if isinstance(node, (Assign, Load, Alloc, Fork)) and node.target not in first_write:
                first_write[node.target] = node
        for name, node in first_write.items():
            if name not in reads:
                where = f" in {scope}" if scope else ""
                yield diagnostic_at(
                    "L001",
                    "warning",
                    f"variable {name!r} is written but never read{where}",
                    node=node,
                    source=target.source,
                )


@lint_rule("L002", "unreachable code after a non-terminating loop")
def _rule_dead_code(target: LintTarget) -> Iterable[Diagnostic]:
    for _, cmd in target.commands():
        for node in walk(cmd):
            if (
                isinstance(node, Seq)
                and isinstance(node.first, While)
                and node.first.condition == Lit(True)
                and not isinstance(node.second, Skip)
            ):
                yield diagnostic_at(
                    "L002",
                    "warning",
                    "unreachable code after a loop whose condition is always true",
                    node=node.second,
                    source=target.source,
                )


@lint_rule("L003", "procedure parameter shadows an outer variable")
def _rule_shadowing(target: LintTarget) -> Iterable[Diagnostic]:
    if target.threaded is None or not target.threaded.procedures:
        return
    outer = command_fv(target.threaded.main)
    for procedure in target.threaded.procedures:
        for parameter in procedure.params:
            if parameter in outer:
                yield diagnostic_at(
                    "L003",
                    "warning",
                    f"parameter {parameter!r} of procedure {procedure.name!r} "
                    f"shadows a variable of the main program",
                    node=procedure.body,
                    source=target.source,
                )


@lint_rule("L004", "annotated atomic block never touches the shared cell")
def _rule_atomic_without_access(target: LintTarget) -> Iterable[Diagnostic]:
    for _, cmd in target.commands():
        for node in walk(cmd):
            if not isinstance(node, Atomic) or node.action is None:
                continue
            accessed = [
                inner
                for inner in walk(node.body)
                if isinstance(inner, (Load, Store))
            ]
            location: Optional[str] = None
            if target.spec is not None:
                try:
                    location = target.spec.resource_by_action(node.action).location_var
                except KeyError:
                    location = None
            if location is not None:
                accessed = [
                    inner
                    for inner in accessed
                    if isinstance(inner.address, Var) and inner.address.name == location
                ]
            if not accessed:
                cell = f"[{location}]" if location is not None else "any heap cell"
                yield diagnostic_at(
                    "L004",
                    "warning",
                    f"atomic [{node.action}] never accesses {cell} — the annotation "
                    f"declares an action the block cannot perform",
                    node=node,
                    source=target.source,
                )


@lint_rule("L005", "fork without a matching join")
def _rule_fork_without_join(target: LintTarget) -> Iterable[Diagnostic]:
    for _, cmd in target.commands():
        joins: List[Join] = [n for n in walk(cmd) if isinstance(n, Join)]
        for node in walk(cmd):
            if not isinstance(node, Fork):
                continue
            matched = any(
                j.procedure == node.procedure and node.target in expr_fv(j.token)
                for j in joins
            )
            if not matched:
                yield diagnostic_at(
                    "L005",
                    "error",
                    f"fork of {node.procedure!r} into {node.target!r} has no matching "
                    f"join — the thread's effects are unordered with the rest of the "
                    f"program",
                    node=node,
                    source=target.source,
                )


@lint_rule("L006", "declared low view is never applied")
def _rule_unapplied_low_views(target: LintTarget) -> Iterable[Diagnostic]:
    if target.spec is None:
        return
    applied: List[str] = []
    for _, cmd in target.commands():
        for node in walk(cmd):
            for expr in _read_exprs(node):
                applied.extend(_calls(expr))
    for decl in target.spec.resources:
        for view in decl.low_views:
            if view not in applied:
                yield diagnostic_at(
                    "L006",
                    "warning",
                    f"resource {decl.name!r} declares low view {view!r} but the "
                    f"program never applies it",
                    source=target.source,
                )


# =============================================================================
# Running lints
# =============================================================================


def run_lint(target: LintTarget) -> List[Diagnostic]:
    """All diagnostics for one target: parse errors, syntactic rules,
    lockset races, and (when labels are known) flow findings."""
    if target.parse_error is not None:
        return [
            Diagnostic(
                code="P001",
                severity="error",
                message=f"does not parse: {target.parse_error}",
                source=target.source,
            )
        ]
    diagnostics: List[Diagnostic] = []
    for rule in LINT_RULES.values():
        diagnostics.extend(rule.check(target))
    whole = target.whole_program()
    if whole is not None:
        diagnostics.extend(check_races(whole, target.spec, source=target.source))
        if target.spec is not None:
            diagnostics.extend(analyze_spec_flow(target.spec, source=target.source).findings)
        elif target.high_inputs:
            report = analyze_flow(
                whole,
                low_inputs=target.low_inputs,
                high_inputs=target.high_inputs,
                source=target.source,
            )
            diagnostics.extend(report.findings)
    return sort_diagnostics(diagnostics)


def lint_program(
    program: Command,
    spec: Optional[ProgramSpec] = None,
    source: str = "<program>",
    low_inputs: Sequence[str] = (),
    high_inputs: Sequence[str] = (),
) -> List[Diagnostic]:
    """Lint a programmatically-built command."""
    return run_lint(
        LintTarget(
            source=source,
            program=program,
            spec=spec,
            low_inputs=tuple(low_inputs),
            high_inputs=tuple(high_inputs),
        )
    )


def lint_case(case) -> List[Diagnostic]:
    """Lint a catalogue :class:`~repro.casestudies.base.CaseStudy` with
    its full specification context."""
    target = target_from_source(case.source, source=case.name)
    if target.parse_error is None:
        target.spec = case.program_spec()
    return run_lint(target)


def target_from_source(
    text: str,
    source: str,
    low_inputs: Sequence[str] = (),
    high_inputs: Sequence[str] = (),
) -> LintTarget:
    """Parse ``text`` (procedures allowed) into a lint target."""
    try:
        threaded = parse_threaded_program(text)
    except ParseError as error:
        return LintTarget(source=source, parse_error=str(error))
    return LintTarget(
        source=source,
        threaded=threaded,
        low_inputs=tuple(low_inputs),
        high_inputs=tuple(high_inputs),
    )


# =============================================================================
# File and directory collection
# =============================================================================


def _looks_like_program(text: str) -> bool:
    return any(marker in text for marker in _PROGRAM_MARKERS)


def _extract_python_targets(path: Path, root: Optional[Path]) -> List[LintTarget]:
    """Module-level string literals of ``path`` that parse as programs."""
    display_base = str(path if root is None else path.relative_to(root))
    try:
        module = pyast.parse(path.read_text())
    except SyntaxError as error:
        return [LintTarget(source=display_base, parse_error=f"python syntax error: {error}")]
    targets: List[LintTarget] = []
    for node in pyast.walk(module):
        if not isinstance(node, pyast.Constant) or not isinstance(node.value, str):
            continue
        text = node.value
        if not _looks_like_program(text):
            continue
        try:
            threaded = parse_threaded_program(text)
        except ParseError:
            continue  # a docstring or unrelated string; not a program
        if threaded.main == Skip() and not threaded.procedures:
            continue
        targets.append(
            LintTarget(source=f"{display_base}:{node.lineno}", threaded=threaded)
        )
    return targets


def collect_targets(
    paths: Sequence[Path],
    low_inputs: Sequence[str] = (),
    high_inputs: Sequence[str] = (),
) -> List[LintTarget]:
    """Lint targets for files and directories.

    ``.prog`` files are whole programs (a parse failure is a ``P001``
    diagnostic); ``.py`` files contribute their embedded program
    literals; directories are scanned recursively for both.
    """
    files: List[Tuple[Path, Optional[Path]]] = []
    for path in paths:
        if path.is_dir():
            for found in sorted(path.rglob("*.prog")) + sorted(path.rglob("*.py")):
                files.append((found, path.parent if path.parent != Path(".") else None))
        else:
            files.append((path, None))
    targets: List[LintTarget] = []
    for file_path, root in files:
        if file_path.suffix == ".py":
            targets.extend(_extract_python_targets(file_path, root))
        else:
            display = str(file_path if root is None else file_path.relative_to(root))
            target = target_from_source(
                file_path.read_text(),
                source=display,
                low_inputs=low_inputs,
                high_inputs=high_inputs,
            )
            targets.append(target)
    return targets


def lint_paths(
    paths: Sequence[Path],
    low_inputs: Sequence[str] = (),
    high_inputs: Sequence[str] = (),
) -> List[Diagnostic]:
    """Lint every target found under ``paths``."""
    diagnostics: List[Diagnostic] = []
    for target in collect_targets(paths, low_inputs=low_inputs, high_inputs=high_inputs):
        diagnostics.extend(run_lint(target))
    return sort_diagnostics(diagnostics)
