"""Seeded random generator of adversarial concurrent programs.

Each generated case is a complete verification problem — program AST,
resource declarations (drawn from the :mod:`repro.spec.library`
catalogue), input sensitivity labelling, and bounded instance groups —
shaped like the hand-written corpus: allocate, ``share``, race two or
three threads full of atomic action blocks / secret-dependent timing
loops / low-guarded branches, ``unshare``, then declassify through the
abstraction's low views.

A case is either a *secure template* (expected to verify, expected
noninterferent) or carries one *leak mutation* (``print-high``,
``print-raw``, ``branch-high``, ``high-arg``, ``raced-read``,
``invalid-spec``) that the verifier must reject.  The generator's intent
is recorded but never trusted: the differential oracle re-derives both
verdicts independently.

Determinism: case ``(seed, index)`` is a pure function of its arguments —
the same pair always yields byte-identical source, so any failure a
campaign finds is replayable from its name alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.ast import (
    Alloc,
    Assign,
    Atomic,
    BinOp,
    Call,
    Command,
    If,
    Lit,
    Load,
    Expr,
    Par,
    Print,
    Seq,
    Share,
    Skip,
    Store,
    Unshare,
    Var,
    While,
    par_all,
    seq_all,
)
from ..lang.printer import print_program
from ..spec.library import INVALID_SPECS, VALID_SPECS
from ..verifier.declarations import ProgramSpec, ResourceDecl

#: Leak mutations the generator can inject (``None`` = secure template).
MUTATIONS = (
    "print-high",
    "print-raw",
    "branch-high",
    "high-arg",
    "raced-read",
    "invalid-spec",
)

#: Program families, modelled on the Table-1 corpus shapes.
FAMILIES = (
    "counter_inc",
    "integer_add",
    "assign_const",
    "set_add",
    "map_keyset",
    "map_histogram",
    "map_add_value",
    "list_length",
    "list_sum",
    "list_mean",
)


@lru_cache(maxsize=None)
def spec_instance(spec_name: str):
    """One shared spec object per catalogue name (keeps the validity
    memo and VC caches warm across thousands of generated cases)."""
    try:
        factory = VALID_SPECS[spec_name]
    except KeyError:
        factory = INVALID_SPECS[spec_name]
    return factory()


@dataclass(frozen=True)
class ResourceRef:
    """A JSON-serializable pointer to a catalogue resource declaration."""

    spec_name: str
    location_var: str
    low_views: Tuple[str, ...] = ()

    def build(self) -> ResourceDecl:
        return ResourceDecl(
            self.spec_name, spec_instance(self.spec_name), self.location_var, self.low_views
        )


#: Instance groups in JSON-able form: ((low_inputs, (variant, ...)), ...).
InstanceGroups = Tuple[Tuple[dict, Tuple[dict, ...]], ...]


@dataclass(frozen=True)
class GeneratedCase:
    """One generated verification problem plus its empirical instances."""

    name: str
    family: str
    mutation: Optional[str]
    program: Command
    resources: Tuple[ResourceRef, ...]
    low_inputs: frozenset
    high_inputs: frozenset
    groups: InstanceGroups
    source: str = field(default="", compare=False)

    def program_spec(self) -> ProgramSpec:
        return ProgramSpec(
            name=self.name,
            program=self.program,
            resources=tuple(ref.build() for ref in self.resources),
            low_inputs=self.low_inputs,
            high_inputs=self.high_inputs,
        )

    def instances(self) -> List[List[dict]]:
        return [[{**low, **variant} for variant in variants] for low, variants in self.groups]

    def with_program(self, program: Command) -> "GeneratedCase":
        return GeneratedCase(
            name=self.name,
            family=self.family,
            mutation=self.mutation,
            program=program,
            resources=self.resources,
            low_inputs=self.low_inputs,
            high_inputs=self.high_inputs,
            groups=self.groups,
            source=print_program(program),
        )


def statement_count(cmd: Command) -> int:
    """Primitive statements plus control headers; ``Seq``/``Par`` glue and
    ``skip`` are free.  The shrinker minimizes this metric."""
    if isinstance(cmd, Skip):
        return 0
    if isinstance(cmd, Seq):
        return statement_count(cmd.first) + statement_count(cmd.second)
    if isinstance(cmd, Par):
        return statement_count(cmd.left) + statement_count(cmd.right)
    if isinstance(cmd, If):
        return 1 + statement_count(cmd.then_branch) + statement_count(cmd.else_branch)
    if isinstance(cmd, While):
        return 1 + statement_count(cmd.body)
    if isinstance(cmd, Atomic):
        return 1 + statement_count(cmd.body)
    return 1


# ---------------------------------------------------------------------------
# Expression/statement shorthands
# ---------------------------------------------------------------------------


def _at(array: str, index: Expr) -> Expr:
    return Call("at", (Var(array), index))


def _add(left: Expr, right: Expr) -> Expr:
    return BinOp("+", left, right)


def _lt(left: Expr, right: Expr) -> Expr:
    return BinOp("<", left, right)


def _timing_loop(suffix: str, index: Expr) -> List[Command]:
    """``d := at(hdata, i); k := 0; while (k < d) { k := k + 1 }`` — the
    corpus's secret-dependent timing idiom."""
    d, k = Var(f"d{suffix}"), Var(f"k{suffix}")
    return [
        Assign(d.name, _at("hdata", index)),
        Assign(k.name, Lit(0)),
        While(_lt(k, d), Assign(k.name, _add(k, Lit(1)))),
    ]


@dataclass
class _Draft:
    """Mutable state while one case is being assembled."""

    rng: random.Random
    family: str
    ref: ResourceRef
    init: Expr
    low_arrays: Dict[str, Tuple[int, ...]]  # name -> value domain
    uses_payload: bool
    payload_domain: Tuple[int, ...]
    readout: List[Command]
    mutation: Optional[str] = None


def _family_draft(rng: random.Random, family: str) -> _Draft:
    mk = lambda *a, **kw: ResourceRef(*a, **kw)  # noqa: E731
    small = (0, 1, 2, 3)
    if family == "counter_inc":
        return _Draft(
            rng, family, mk("CounterInc", "c"), Lit(0),
            {"gate": (0, 1)}, False, (),
            [Load("result", Var("c")), Print(Var("result"))],
        )
    if family == "integer_add":
        return _Draft(
            rng, family, mk("IntegerAdd", "c"), Lit(0),
            {"amts": small}, False, (),
            [Load("result", Var("c")), Print(Var("result"))],
        )
    if family == "assign_const":
        return _Draft(
            rng, family, mk("AssignConstantAlpha", "c"), Lit(0),
            {"vals": (-2, -1, 0, 1, 2, 3)}, False, (),
            [Print(Lit(0))],
        )
    if family == "set_add":
        return _Draft(
            rng, family, mk("SetAdd", "st"), Call("toSet", (Call("seq", ()),)),
            {"elems": (1, 2, 3)}, False, (),
            [Load("s", Var("st")), Print(Call("setToSeq", (Var("s"),)))],
        )
    if family == "map_keyset":
        return _Draft(
            rng, family, mk("MapKeySet", "m", ("keys",)), Call("emptyMap", ()),
            {"adrs": (1, 2)}, True, (10, 20),
            [
                Load("mv", Var("m")),
                Print(Call("sort", (Call("setToSeq", (Call("keys", (Var("mv"),)),)),))),
            ],
        )
    if family == "map_histogram":
        return _Draft(
            rng, family, mk("MapHistogram", "m"), Call("emptyMap", ()),
            {"buckets": (1, 2)}, False, (),
            [Load("mv", Var("m")), Print(Var("mv"))],
        )
    if family == "map_add_value":
        return _Draft(
            rng, family, mk("MapAddValue", "m"), Call("emptyMap", ()),
            {"users": (1, 2)}, False, (),
            [Load("mv", Var("m")), Print(Var("mv"))],
        )
    if family == "list_length":
        return _Draft(
            rng, family, mk("ListLength", "lst", ("len",)), Call("seq", ()),
            {"names": (1, 2, 3)}, True, small,
            [Load("l", Var("lst")), Print(Call("len", (Var("l"),)))],
        )
    if family == "list_sum":
        return _Draft(
            rng, family, mk("ListSum", "lst", ("debtSum",)), Call("seq", ()),
            {"amts": small}, True, (1, 2, 3),
            [Load("l", Var("lst")), Print(Call("debtSum", (Var("l"),)))],
        )
    if family == "list_mean":
        return _Draft(
            rng, family, mk("ListMean", "lst", ("meanStats",)), Call("seq", ()),
            {"sals": small}, True, (1, 2, 3),
            [Load("l", Var("lst")), Print(Call("meanStats", (Var("l"),)))],
        )
    raise ValueError(f"unknown family {family!r}")


def _op_statements(draft: _Draft, suffix: str, index: Expr) -> List[Command]:
    """Local binds + the atomic action block for one work item, mirroring
    the corpus body idioms exactly (the conformance checker must be able
    to relate the body to the declared action)."""
    family, loc = draft.family, draft.ref.location_var
    high_arg = draft.mutation == "high-arg"
    if family == "counter_inc":
        t = Var(f"t{suffix}")
        return [
            Atomic(
                seq_all(Load(t.name, Var(loc)), Store(Var(loc), _add(t, Lit(1)))),
                "Inc", Lit(0), _maybe_guard(draft, loc),
            )
        ]
    if family == "integer_add":
        a, v = Var(f"a{suffix}"), Var(f"v{suffix}")
        source = _at("hdata", index) if high_arg else _at("amts", index)
        return [
            Assign(a.name, source),
            Atomic(
                seq_all(Load(v.name, Var(loc)), Store(Var(loc), _add(v, a))),
                "Add", a, None,
            ),
        ]
    if family == "assign_const":
        w = Var(f"w{suffix}")
        # Writing a *secret* is legitimate here: the constant abstraction
        # hides the raced cell entirely, so draw from hdata sometimes.
        source = (
            _at("hdata", index)
            if draft.rng.random() < 0.4
            else _at("vals", index)
        )
        return [
            Assign(w.name, source),
            Atomic(Store(Var(loc), w), "SetTo", w, None),
        ]
    if family == "set_add":
        e, s = Var(f"e{suffix}"), Var(f"s{suffix}")
        source = _at("hdata", index) if high_arg else _at("elems", index)
        return [
            Assign(e.name, source),
            Atomic(
                seq_all(Load(s.name, Var(loc)), Store(Var(loc), Call("setAdd", (s, e)))),
                "SetAdd", e, None,
            ),
        ]
    if family == "map_keyset":
        k, r, m = Var(f"kk{suffix}"), Var(f"r{suffix}"), Var(f"m{suffix}")
        key_source = _at("hpay", index) if high_arg else _at("adrs", index)
        return [
            Assign(k.name, key_source),
            Assign(r.name, _at("hpay", index)),
            Atomic(
                seq_all(Load(m.name, Var(loc)), Store(Var(loc), Call("put", (m, k, r)))),
                "Put", Call("pair", (k, r)), None,
            ),
        ]
    if family == "map_histogram":
        b, m = Var(f"b{suffix}"), Var(f"m{suffix}")
        source = _at("hdata", index) if high_arg else _at("buckets", index)
        return [
            Assign(b.name, source),
            Atomic(
                seq_all(Load(m.name, Var(loc)), Store(Var(loc), Call("addToValue", (m, b, Lit(1))))),
                "IncBucket", b, None,
            ),
        ]
    if family == "map_add_value":
        u, m = Var(f"u{suffix}"), Var(f"m{suffix}")
        source = _at("hdata", index) if high_arg else _at("users", index)
        return [
            Assign(u.name, source),
            Atomic(
                seq_all(Load(m.name, Var(loc)), Store(Var(loc), Call("addToValue", (m, u, Lit(1))))),
                "AddVal", Call("pair", (u, Lit(1))), None,
            ),
        ]
    if family in ("list_length", "list_sum", "list_mean"):
        low_name = next(iter(draft.low_arrays))
        p, l = Var(f"p{suffix}"), Var(f"l{suffix}")
        if family == "list_length":
            # Anything may be appended — only the count is revealed.
            item = Call("pair", (_at(low_name, index), p))
            binds: List[Command] = [Assign(p.name, _at("hpay", index))]
        else:
            # (secret tag, low amount); amount low per the projections.
            amount = _at("hdata", index) if high_arg else _at(low_name, index)
            item = Call("pair", (p, amount))
            binds = [Assign(p.name, _at("hpay", index))]
        return binds + [
            Atomic(
                seq_all(Load(l.name, Var(loc)), Store(Var(loc), Call("append", (l, item)))),
                "Append", item, None,
            ),
        ]
    raise ValueError(f"unknown family {family!r}")


def _maybe_guard(draft: _Draft, loc: str) -> Optional[Expr]:
    """Occasionally attach an always-true blocking guard (counter values
    are non-negative) to exercise the App. D guard machinery."""
    if draft.family == "counter_inc" and draft.rng.random() < 0.12:
        return BinOp(">=", Call("deref", (Var(loc),)), Lit(0))
    return None


def _thread_body_loop(draft: _Draft, t: int, lo: Expr, hi: Expr) -> Command:
    """Corpus-style sliced loop: ``i := lo; while (i < hi) { ... }``."""
    suffix = str(t)
    i = Var(f"i{suffix}")
    steps: List[Command] = []
    if draft.rng.random() < 0.55:
        steps.extend(_timing_loop(suffix, i))
    ops = _op_statements(draft, suffix, i)
    if draft.rng.random() < 0.3 and "gate" in draft.low_arrays:
        ops = [If(BinOp("==", _at("gate", i), Lit(1)), seq_all(*ops), Skip())]
    steps.extend(ops)
    steps.append(Assign(i.name, _add(i, Lit(1))))
    body: List[Command] = [Assign(i.name, lo), While(_lt(i, hi), seq_all(*steps))]
    if draft.mutation == "raced-read" and t == 1:
        raced = Var(f"x{suffix}")
        body.append(Load(raced.name, Var(draft.ref.location_var)))
        body.append(Print(raced))
    return seq_all(*body)


def _thread_body_straight(draft: _Draft, t: int, indices: Sequence[int]) -> Command:
    """Straight-line thread handling fixed item indices (keeps the state
    space small enough for exhaustive interleaving enumeration)."""
    steps: List[Command] = []
    for j in indices:
        suffix = f"{t}x{j}" if len(indices) > 1 else str(t)
        if draft.rng.random() < 0.45:
            steps.extend(_timing_loop(suffix, Lit(j)))
        steps.extend(_op_statements(draft, suffix, Lit(j)))
    if draft.mutation == "raced-read" and t == 1:
        raced = Var(f"x{t}")
        steps.append(Load(raced.name, Var(draft.ref.location_var)))
        steps.append(Print(raced))
    return seq_all(*steps)


def _thread_body_sequential(draft: _Draft) -> Command:
    """Sequential-Tally shape: a dead secret read followed by a plain loop
    through the shared API.  No parallelism, no secret-bounded loops: the
    one single-thread shape among the generator's raced families."""
    i = Var("i1")
    steps = _op_statements(draft, "1", i)
    steps.append(Assign(i.name, _add(i, Lit(1))))
    return seq_all(
        Assign("priv", _at("hdata", Lit(0))),  # secret stays private
        Assign(i.name, Lit(0)),
        While(_lt(i, Var("n")), seq_all(*steps)),
    )


def _invalid_spec_case(rng: random.Random, name: str) -> GeneratedCase:
    """Figure-1-leaky shape: raced constant writes under the *identity*
    abstraction (an invalid spec) with secret-dependent timing, result
    printed.  Must be rejected; empirically leaks through timing."""
    ref = ResourceRef("AssignIdentityAlpha", "c")
    threads = []
    for t, constant in ((1, 3), (2, 4)):
        steps = _timing_loop(str(t), Lit(0)) if t == 1 else []
        steps.append(Atomic(Store(Var("c"), Lit(constant)), "SetTo", Lit(constant), None))
        threads.append(seq_all(*steps))
    program = seq_all(
        Alloc("c", Lit(0)),
        Share(ref.spec_name),
        par_all(*threads),
        Unshare(ref.spec_name),
        Load("result", Var("c")),
        Print(Var("result")),
    )
    groups: InstanceGroups = (
        ({"n": 1}, ({"hdata": (0,)}, {"hdata": (3,)})),
    )
    case = GeneratedCase(
        name=name, family="invalid_spec", mutation="invalid-spec",
        program=program, resources=(ref,),
        low_inputs=frozenset({"n"}), high_inputs=frozenset({"hdata"}),
        groups=groups,
    )
    return case.with_program(program)


def generate_case(seed: int, index: int) -> GeneratedCase:
    """The ``index``-th case of campaign ``seed`` (a pure function)."""
    rng = random.Random((seed * 1_000_003 + index) & 0xFFFFFFFF)
    name = f"fuzz-{seed}-{index}"

    mutation: Optional[str] = None
    if rng.random() < 0.35:
        mutation = rng.choice(MUTATIONS)
    if mutation == "invalid-spec":
        return _invalid_spec_case(rng, name)

    family = rng.choice(FAMILIES)
    draft = _family_draft(rng, family)
    draft.mutation = mutation
    if mutation == "high-arg" and family in ("counter_inc", "assign_const"):
        # No low-projected argument to corrupt; degrade to print-high.
        draft.mutation = mutation = "print-high"
    if mutation == "print-raw" and not draft.ref.low_views:
        # Identity abstraction: the raw value *is* the view; degrade.
        draft.mutation = mutation = "print-high"

    sequential = family in ("counter_inc", "integer_add") and rng.random() < 0.18
    if sequential and mutation == "raced-read":
        # A race needs a second thread; keep the leak observable instead.
        draft.mutation = mutation = "print-high"

    straight = not sequential and rng.random() < 0.45
    if sequential:
        n = rng.choice((2, 3, 4))
        threads = [_thread_body_sequential(draft)]
    elif straight:
        thread_count = rng.choice((2, 2, 3))
        per_thread = 1 if thread_count == 3 else rng.choice((1, 1, 2))
        n = thread_count * per_thread
        indices = list(range(n))
        threads = [
            _thread_body_straight(draft, t + 1, indices[t * per_thread:(t + 1) * per_thread])
            for t in range(thread_count)
        ]
    else:
        n = rng.choice((2, 3, 4))
        half = BinOp("/", Var("n"), Lit(2))
        threads = [
            _thread_body_loop(draft, 1, Lit(0), half),
            _thread_body_loop(draft, 2, half, Var("n")),
        ]

    readout = list(draft.readout)
    if mutation == "print-raw":
        # Leak the concrete structure instead of its abstraction view.
        readout = [readout[0], Print(Var(readout[0].target))]
    elif mutation == "print-high":
        high = "hpay" if draft.uses_payload else "hdata"
        readout.append(Print(_at(high, Lit(0))))
    elif mutation == "branch-high":
        readout.append(Assign("hb", _at("hdata", Lit(0))))
        readout.append(
            If(BinOp(">", Var("hb"), Lit(1)), Print(Lit(1)), Print(Lit(2)))
        )

    program = seq_all(
        Alloc(draft.ref.location_var, draft.init),
        Share(draft.ref.spec_name),
        par_all(*threads),
        Unshare(draft.ref.spec_name),
        *readout,
    )

    # -- instances ---------------------------------------------------------
    def low_group() -> dict:
        group = {"n": n}
        for array, domain in draft.low_arrays.items():
            group[array] = tuple(rng.choice(domain) for _ in range(n))
        return group

    def high_variant() -> dict:
        variant = {"hdata": tuple(rng.choice((0, 1, 2, 3)) for _ in range(n))}
        if draft.uses_payload:
            variant["hpay"] = tuple(rng.choice(draft.payload_domain) for _ in range(n))
        return variant

    group_count = 1 if rng.random() < 0.7 else 2
    variant_count = rng.choice((2, 3))
    groups = tuple(
        (low_group(), tuple(high_variant() for _ in range(variant_count)))
        for _ in range(group_count)
    )

    low_inputs = frozenset({"n"} | set(draft.low_arrays))
    high_inputs = frozenset({"hdata"} | ({"hpay"} if draft.uses_payload else set()))

    case = GeneratedCase(
        name=name, family=family, mutation=mutation, program=program,
        resources=(draft.ref,), low_inputs=low_inputs,
        high_inputs=high_inputs, groups=groups,
    )
    return case.with_program(program)


def generate_corpus(seed: int, count: int) -> List[GeneratedCase]:
    return [generate_case(seed, index) for index in range(count)]


__all__ = [
    "FAMILIES",
    "MUTATIONS",
    "GeneratedCase",
    "InstanceGroups",
    "ResourceRef",
    "generate_case",
    "generate_corpus",
    "spec_instance",
    "statement_count",
]
