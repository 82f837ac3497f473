"""Abstract syntax for the object language (Fig. 6 of the paper).

Expressions are heap-free and total; commands are the paper's imperative
concurrent commands plus three verification-oriented extensions that are
runtime no-ops or simple effects:

* :class:`Share` / :class:`Unshare` — ghost commands marking where the
  shared resource is created and dissolved (runtime: skip);
* :class:`Atomic` optionally carries an *action annotation* naming which
  resource-specification action the block performs and the argument
  expression (runtime: the annotation is ignored, the body runs atomically);
* :class:`Print` — emits a low output (the implementation-level extension
  of the paper's limitation (4), Sec. 3.7).

All nodes are immutable dataclasses; ``fv`` and ``mod`` implement the
free-variable and modified-variable functions used by the proof rules.
:func:`walk` (pre-order over every command node) and :func:`map_command`
(rebuild with its expressions and assigned names mapped) are the generic
traversals the desugarer, procedure substitution and lint passes share.

Every node carries an optional :class:`SourcePos` in its ``pos`` field.
The parser stamps positions; programmatically-built ASTs leave them
``None``.  ``pos`` is excluded from equality, hashing, and ``repr`` so a
parsed node still compares equal to the same node built by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Optional, Tuple


@dataclass(frozen=True)
class SourcePos:
    """A (line, column) source location, 1-based, attached by the parser."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}"


class Node:
    """Base class for all AST nodes.

    A node caches its structural hash on first use (see
    :func:`_cache_hashes`); the cache is dropped when the node is pickled
    or copied, because ``str`` hashes differ between interpreter runs.
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)  # type: ignore[attr-defined]
        state.pop(_HASH, None)
        return state


def node_pos(node: Node) -> Optional[SourcePos]:
    """Best-effort source position of ``node``.

    Returns the node's own position if the parser stamped one, otherwise
    the first position found on a descendant (pre-order), otherwise
    ``None`` (programmatically-built ASTs carry no positions).
    """
    own = getattr(node, "pos", None)
    if own is not None:
        return own
    for f in fields(node):  # type: ignore[arg-type]
        if f.name == "pos":
            continue
        value = getattr(node, f.name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if isinstance(child, Node):
                found = node_pos(child)
                if found is not None:
                    return found
    return None


def _pos_field() -> Any:
    return field(default=None, compare=False, repr=False)


# =============================================================================
# Expressions
# =============================================================================


class Expr(Node):
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    """A literal value (integer, boolean, or any pure value)."""

    value: Any
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A program variable."""

    name: str
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation.  ``op`` is one of
    ``+ - * / % < <= > >= == != && ||``."""

    op: str
    left: Expr
    right: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: ``-`` (negation) or ``!`` (logical not)."""

    op: str
    operand: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class Call(Expr):
    """Application of a registered pure function (Sec. 2.4 pure values)."""

    function: str
    args: Tuple[Expr, ...]
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.function}({', '.join(map(str, self.args))})"


def expr_fv(expr: Expr) -> frozenset[str]:
    """Free variables of an expression."""
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, BinOp):
        return expr_fv(expr.left) | expr_fv(expr.right)
    if isinstance(expr, UnOp):
        return expr_fv(expr.operand)
    if isinstance(expr, Call):
        result: frozenset[str] = frozenset()
        for arg in expr.args:
            result |= expr_fv(arg)
        return result
    raise TypeError(f"not an expression: {expr!r}")


def expr_subst(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-free substitution ``expr[replacement/name]``."""
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, expr_subst(expr.left, name, replacement), expr_subst(expr.right, name, replacement))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, expr_subst(expr.operand, name, replacement))
    if isinstance(expr, Call):
        return Call(expr.function, tuple(expr_subst(arg, name, replacement) for arg in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


# =============================================================================
# Commands
# =============================================================================


class Command(Node):
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Command):
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Assign(Command):
    """``x := e``"""

    target: str
    expr: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.target} := {self.expr}"


@dataclass(frozen=True)
class Load(Command):
    """``x := [e]`` — heap read."""

    target: str
    address: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.target} := [{self.address}]"


@dataclass(frozen=True)
class Store(Command):
    """``[e1] := e2`` — heap write."""

    address: Expr
    expr: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"[{self.address}] := {self.expr}"


@dataclass(frozen=True)
class Alloc(Command):
    """``x := alloc(e)`` — allocate one heap cell initialized to ``e``."""

    target: str
    expr: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.target} := alloc({self.expr})"


@dataclass(frozen=True)
class Seq(Command):
    """``c1 ; c2``"""

    first: Command
    second: Command
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.first}; {self.second}"


@dataclass(frozen=True)
class If(Command):
    """``if (b) then {c1} else {c2}``"""

    condition: Expr
    then_branch: Command
    else_branch: Command
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"if ({self.condition}) {{ {self.then_branch} }} else {{ {self.else_branch} }}"


@dataclass(frozen=True)
class While(Command):
    """``while (b) do {c}``"""

    condition: Expr
    body: Command
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"while ({self.condition}) {{ {self.body} }}"


@dataclass(frozen=True)
class Par(Command):
    """``c1 || c2`` — parallel composition (nestable for >2 threads)."""

    left: Command
    right: Command
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


@dataclass(frozen=True)
class Atomic(Command):
    """``atomic c`` — execute ``c`` in one indivisible step with access to
    the shared resource.

    ``action`` / ``argument`` are the verifier annotation: the name of the
    resource-specification action this block performs and the expression
    for its argument (evaluated in the pre-state of the block).  They have
    no runtime effect.

    ``when`` is the App. D blocking guard (``atomic c when e``): the block
    can only step when the guard evaluates to true; otherwise the thread
    is blocked.  Inside the guard, ``deref(x)`` reads the heap cell whose
    address is held by ``x`` (guards are evaluated atomically with the
    block, so this read is race-free).
    """

    body: Command
    action: Optional[str] = None
    argument: Optional[Expr] = None
    when: Optional[Expr] = None
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        label = f" [{self.action}({self.argument})]" if self.action else ""
        guard = f" when ({self.when})" if self.when is not None else ""
        return f"atomic{label}{guard} {{ {self.body} }}"


@dataclass(frozen=True)
class Share(Command):
    """Ghost command: begin sharing the resource named ``resource``.

    ``value_var`` names the logical variable the invariant binds; at
    runtime the command is a no-op.
    """

    resource: str
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"share {self.resource}"


@dataclass(frozen=True)
class Unshare(Command):
    """Ghost command: dissolve the shared resource (runtime no-op)."""

    resource: str
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"unshare {self.resource}"


#: The default output channel of ``print``.
DEFAULT_CHANNEL = "out"


@dataclass(frozen=True)
class Print(Command):
    """``print(e)`` / ``print(e, channel)`` — append the value of ``e`` to
    an output trace.

    Channels implement the I/O-sensitivity extension of Sec. 3.7
    (limitation (4), lifted in the implementation): each channel carries a
    security label, and only channels observable at the attacker's level
    participate in the non-interference obligation.  Values printed on the
    default channel appear in the trace as plain values (the paper's
    single public output); other channels record ``(channel, value)``
    pairs.
    """

    expr: Expr
    channel: str = DEFAULT_CHANNEL
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        if self.channel == DEFAULT_CHANNEL:
            return f"print({self.expr})"
        return f"print({self.expr}, {self.channel})"


@dataclass(frozen=True)
class Fork(Command):
    """``t := fork p(e1, ..., en)`` — dynamic thread creation (Sec. 5).

    HyperViper supports dynamic threads via ``fork``/``join`` instead of
    the paper's structured ``||``; we support both.  ``fork`` spawns a new
    thread running the body of procedure ``procedure`` with its parameters
    bound to the argument values, and stores a fresh thread token in
    ``target``.  The spawned thread shares the heap with its parent but
    has a private store (the bound parameters), exactly like the threads
    of a parallel composition with renamed-apart variables.
    """

    target: str
    procedure: str
    args: Tuple[Expr, ...]
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"{self.target} := fork {self.procedure}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Join(Command):
    """``join p(e)`` — block until the thread whose token is the value of
    ``e`` (spawned by a ``fork`` of procedure ``p``) has terminated.

    Mirrors HyperViper's ``join[worker](t)``; the procedure name is part
    of the command so the verifier knows which postcondition to recover.
    """

    procedure: str
    token: Expr
    pos: Optional[SourcePos] = _pos_field()

    def __str__(self) -> str:
        return f"join {self.procedure}({self.token})"


# =============================================================================
# fv / mod
# =============================================================================


def command_fv(cmd: Command) -> frozenset[str]:
    """Free variables of a command (read or written)."""
    if isinstance(cmd, (Skip, Share, Unshare)):
        return frozenset()
    if isinstance(cmd, Assign):
        return frozenset({cmd.target}) | expr_fv(cmd.expr)
    if isinstance(cmd, Load):
        return frozenset({cmd.target}) | expr_fv(cmd.address)
    if isinstance(cmd, Store):
        return expr_fv(cmd.address) | expr_fv(cmd.expr)
    if isinstance(cmd, Alloc):
        return frozenset({cmd.target}) | expr_fv(cmd.expr)
    if isinstance(cmd, Seq):
        return command_fv(cmd.first) | command_fv(cmd.second)
    if isinstance(cmd, If):
        return expr_fv(cmd.condition) | command_fv(cmd.then_branch) | command_fv(cmd.else_branch)
    if isinstance(cmd, While):
        return expr_fv(cmd.condition) | command_fv(cmd.body)
    if isinstance(cmd, Par):
        return command_fv(cmd.left) | command_fv(cmd.right)
    if isinstance(cmd, Atomic):
        extra = expr_fv(cmd.argument) if cmd.argument is not None else frozenset()
        if cmd.when is not None:
            extra |= expr_fv(cmd.when)
        return command_fv(cmd.body) | extra
    if isinstance(cmd, Print):
        return expr_fv(cmd.expr)
    if isinstance(cmd, Fork):
        result: frozenset[str] = frozenset({cmd.target})
        for arg in cmd.args:
            result |= expr_fv(arg)
        return result
    if isinstance(cmd, Join):
        return expr_fv(cmd.token)
    raise TypeError(f"not a command: {cmd!r}")


def command_mod(cmd: Command) -> frozenset[str]:
    """Variables modified by a command (``mod(c)`` in the paper)."""
    if isinstance(cmd, (Skip, Store, Share, Unshare, Print, Join)):
        return frozenset()
    if isinstance(cmd, (Assign, Load, Alloc, Fork)):
        return frozenset({cmd.target})
    if isinstance(cmd, Seq):
        return command_mod(cmd.first) | command_mod(cmd.second)
    if isinstance(cmd, If):
        return command_mod(cmd.then_branch) | command_mod(cmd.else_branch)
    if isinstance(cmd, While):
        return command_mod(cmd.body)
    if isinstance(cmd, Par):
        return command_mod(cmd.left) | command_mod(cmd.right)
    if isinstance(cmd, Atomic):
        return command_mod(cmd.body)
    raise TypeError(f"not a command: {cmd!r}")


# =============================================================================
# Traversal
# =============================================================================


def walk(cmd: Command) -> Iterator[Command]:
    """Every command node of ``cmd`` in pre-order, atomic bodies included."""
    stack = [cmd]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack += (node.second, node.first)
        elif isinstance(node, Par):
            stack += (node.right, node.left)
        elif isinstance(node, If):
            stack += (node.else_branch, node.then_branch)
        elif isinstance(node, (While, Atomic)):
            stack.append(node.body)


def _same(name: str) -> str:
    return name


def map_command(
    cmd: Command,
    expr_fn: Callable[[Expr], Expr],
    target_fn: Callable[[str], str] = _same,
) -> Command:
    """``cmd`` rebuilt with ``expr_fn`` applied to every expression it
    evaluates (atomic annotations and guards included) and ``target_fn``
    to every variable it assigns.  Procedure, channel and resource names
    are kept; rebuilt nodes carry no source position."""

    def go(sub: Command) -> Command:
        return map_command(sub, expr_fn, target_fn)

    def opt(expr: Optional[Expr]) -> Optional[Expr]:
        return None if expr is None else expr_fn(expr)

    if isinstance(cmd, (Skip, Share, Unshare)):
        return cmd
    if isinstance(cmd, Assign):
        return Assign(target_fn(cmd.target), expr_fn(cmd.expr))
    if isinstance(cmd, Load):
        return Load(target_fn(cmd.target), expr_fn(cmd.address))
    if isinstance(cmd, Store):
        return Store(expr_fn(cmd.address), expr_fn(cmd.expr))
    if isinstance(cmd, Alloc):
        return Alloc(target_fn(cmd.target), expr_fn(cmd.expr))
    if isinstance(cmd, Seq):
        return Seq(go(cmd.first), go(cmd.second))
    if isinstance(cmd, If):
        return If(expr_fn(cmd.condition), go(cmd.then_branch), go(cmd.else_branch))
    if isinstance(cmd, While):
        return While(expr_fn(cmd.condition), go(cmd.body))
    if isinstance(cmd, Par):
        return Par(go(cmd.left), go(cmd.right))
    if isinstance(cmd, Atomic):
        return Atomic(go(cmd.body), cmd.action, opt(cmd.argument), opt(cmd.when))
    if isinstance(cmd, Print):
        return Print(expr_fn(cmd.expr), cmd.channel)
    if isinstance(cmd, Fork):
        return Fork(target_fn(cmd.target), cmd.procedure, tuple(map(expr_fn, cmd.args)))
    if isinstance(cmd, Join):
        return Join(cmd.procedure, expr_fn(cmd.token))
    raise TypeError(f"not a command: {cmd!r}")


# =============================================================================
# Structural hash cache
# =============================================================================

#: Instance attribute holding a node's cached hash.
_HASH = "_hash"


def _cache_hashes(cls: type) -> None:
    """Make ``cls`` (and its subclasses) compute the dataclass structural
    hash once per node and keep it in the node's ``_hash`` attribute.

    A frozen dataclass re-walks the whole subtree on every ``hash``; the
    state-space explorer hashes each configuration several times, and
    residual programs share almost all of their subtrees."""
    for sub in cls.__subclasses__():
        _cache_hashes(sub)
    structural = cls.__dict__.get("__hash__")
    if structural is None:
        return

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = structural(self)
            object.__setattr__(self, _HASH, value)
            return value

    cls.__hash__ = __hash__  # type: ignore[method-assign]


_cache_hashes(Node)


def seq_all(*commands: Command) -> Command:
    """Right-associated sequential composition of any number of commands."""
    if not commands:
        return Skip()
    result = commands[-1]
    for cmd in reversed(commands[:-1]):
        result = Seq(cmd, result)
    return result


def par_all(*commands: Command) -> Command:
    """Right-associated parallel composition of any number of commands."""
    if not commands:
        return Skip()
    result = commands[-1]
    for cmd in reversed(commands[:-1]):
        result = Par(cmd, result)
    return result
