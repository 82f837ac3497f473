"""The stable public surface of the reproduction — ``repro.api``.

Everything a caller needs to drive verification programmatically goes
through this module: the CLI subcommands, the verification daemon
(:mod:`repro.server`), its client (:mod:`repro.client`) and the daemon's
workers all route through the same typed request/verdict types, so the
wire schema, the in-process API and the command line cannot drift apart.

The three layers:

* **Requests** — :class:`VerificationRequest` names one unit of work: a
  case study by name, a raw program + resource declarations (resources
  reference the spec catalogue of :mod:`repro.spec.library` by name, so
  requests stay JSON-serializable), or a raw SMT validity query over the
  wire term codec (:func:`term_to_wire` / :func:`term_from_wire`).
  ``to_wire()``/``from_wire()`` round-trip every request through plain
  JSON types — the daemon's JSON-line framing is exactly this mapping.
* **Verdicts** — :class:`Verdict` is the typed result of one request and
  :class:`BatchReport` of a batch; ``Verdict.observable()`` is the
  canonical comparison surface the differential harness pins against
  fresh in-process :func:`repro.verifier.frontend.verify` runs.
* **Execution** — :func:`execute` / :func:`verify_batch` run requests in
  process, optionally on a caller-owned
  :class:`~repro.smt.session.SolverSession` and under an explicit
  in-memory :class:`~repro.smt.cache.ValidityCache`.

A case request names any entry of :mod:`repro.casestudies`, the fork/join
case studies included, and a program request may use procedures and
``fork``/``join`` too: both reach the pipeline already reduced to the
structured calculus.  The engine entry points
(``repro.verifier.frontend.verify``, ``CaseStudy.verify``) remain
supported — this module wraps them rather than replacing them — but new
integrations should not reach around the facade: only the surface here is
covered by the wire-compatibility tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .smt.cache import ValidityCache, using_cache
from .smt.session import SolverSession
from .smt.sorts import BOOL, INT, Sort
from .smt.terms import App, Const, SymVar, Term

# -- Wire events of the service protocol (repro.server ↔ repro.client) ------
#: Per-request terminal events inside a batch stream.  ``verdict`` and
#: ``worker_crash`` carry an ``attempts`` counter (how many worker
#: executions the request consumed — 2 after one transparent crash
#: retry); ``retry_after`` carries the suggested delay in seconds and
#: marks a *shed* request the client may safely resubmit (batch
#: requests are idempotent: verdicts are deterministic and cache-keyed).
EVENT_VERDICT = "verdict"
EVENT_REJECTED = "rejected"
EVENT_TIMEOUT = "timeout"
EVENT_RETRY_AFTER = "retry_after"
EVENT_WORKER_CRASH = "worker_crash"
EVENT_ERROR = "error"
#: Stream/connection-level events.
EVENT_ACCEPTED = "accepted"
EVENT_DONE = "done"
EVENT_PONG = "pong"
EVENT_STATS = "stats"
EVENT_TENANT = "tenant"
EVENT_BYE = "bye"
#: Response to a ``lint`` op: structured diagnostics, no verification.
EVENT_LINT = "lint"

#: Every event kind the daemon can emit — the client treats anything
#: outside this set as a protocol error.
WIRE_EVENTS = frozenset(
    {
        EVENT_VERDICT,
        EVENT_REJECTED,
        EVENT_TIMEOUT,
        EVENT_RETRY_AFTER,
        EVENT_WORKER_CRASH,
        EVENT_ERROR,
        EVENT_ACCEPTED,
        EVENT_DONE,
        EVENT_PONG,
        EVENT_STATS,
        EVENT_TENANT,
        EVENT_BYE,
        EVENT_LINT,
    }
)

#: The per-request events that *decide* a request: once one of these
#: arrives for an index, the daemon will not send another event for it
#: in this stream.  (``retry_after`` is deliberately excluded — a shed
#: request is undecided and is what the client's retry loop replays.)
DECIDED_EVENTS = frozenset(
    {EVENT_VERDICT, EVENT_REJECTED, EVENT_TIMEOUT, EVENT_WORKER_CRASH, EVENT_ERROR}
)


class RequestError(ValueError):
    """A malformed or unsatisfiable verification request."""


# ---------------------------------------------------------------------------
# Wire codec for SMT terms (the raw-validity request surface)
# ---------------------------------------------------------------------------

_WIRE_SORTS: Dict[str, Sort] = {"int": INT, "bool": BOOL}
_SORT_NAMES = {id(INT): "int", id(BOOL): "bool"}


def sort_from_wire(name: str) -> Sort:
    """Resolve a wire sort name (``"int"``/``"bool"``) to a sort."""
    try:
        return _WIRE_SORTS[name]
    except KeyError:
        raise RequestError(f"unknown wire sort {name!r} (expected one of {sorted(_WIRE_SORTS)})")


def term_to_wire(term: Term) -> Any:
    """A JSON-safe encoding of a ground int/bool term.

    Applications become ``["app", op, [args...]]``, variables
    ``["var", name, sort]`` and constants ``["const", value]``.  Terms
    whose constants are not JSON scalars, or whose variables carry sorts
    outside the int/bool wire fragment, are rejected — the daemon's raw
    validity surface covers exactly the fragment its clients can name.
    """
    if isinstance(term, App):
        return ["app", term.op, [term_to_wire(arg) for arg in term.args]]
    if isinstance(term, SymVar):
        sort_name = _SORT_NAMES.get(id(term.sort))
        if sort_name is None:
            sort_name = {"Int": "int", "Bool": "bool"}.get(str(term.sort))
        if sort_name is None:
            raise RequestError(f"variable {term.name!r} has non-wire sort {term.sort}")
        return ["var", term.name, sort_name]
    if isinstance(term, Const):
        if not isinstance(term.value, (bool, int, str, type(None))):
            raise RequestError(f"constant {term.value!r} is not wire-serializable")
        return ["const", term.value]
    raise RequestError(f"cannot serialize term node {term!r}")


def term_from_wire(obj: Any) -> Term:
    """Rebuild a term from :func:`term_to_wire` output (hash-consed, so
    structurally equal wire terms decode to the identical object)."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise RequestError(f"malformed wire term {obj!r}")
    kind = obj[0]
    if kind == "app" and len(obj) == 3:
        op, args = obj[1], obj[2]
        if not isinstance(op, str) or not isinstance(args, (list, tuple)):
            raise RequestError(f"malformed wire application {obj!r}")
        return App(op, tuple(term_from_wire(arg) for arg in args))
    if kind == "var" and len(obj) == 3:
        name, sort_name = obj[1], obj[2]
        if not isinstance(name, str):
            raise RequestError(f"malformed wire variable {obj!r}")
        return SymVar(name, sort_from_wire(sort_name))
    if kind == "const" and len(obj) == 2:
        return Const(obj[1])
    raise RequestError(f"malformed wire term {obj!r}")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def _spec_registry() -> Dict[str, Any]:
    from .spec.library import INVALID_SPECS, VALID_SPECS

    registry: Dict[str, Any] = {}
    registry.update(VALID_SPECS)
    registry.update(INVALID_SPECS)
    return registry


@dataclass(frozen=True)
class ResourceRequest:
    """One resource declaration of a raw-program request.

    ``spec`` names an entry of the specification catalogue
    (:data:`repro.spec.library.VALID_SPECS` /
    :data:`~repro.spec.library.INVALID_SPECS`); the callables live in
    the catalogue, so the request itself stays JSON-serializable.
    """

    name: str
    spec: str
    location_var: str
    low_views: Tuple[str, ...] = ()

    def build(self) -> "ResourceDecl":
        from .verifier.declarations import ResourceDecl

        registry = _spec_registry()
        factory = registry.get(self.spec)
        if factory is None:
            raise RequestError(
                f"resource {self.name!r}: unknown spec {self.spec!r} "
                f"(catalogue: {sorted(registry)})"
            )
        return ResourceDecl(
            name=self.name,
            spec=factory(),
            location_var=self.location_var,
            low_views=tuple(self.low_views),
        )

    def to_wire(self) -> dict:
        return {
            "name": self.name,
            "spec": self.spec,
            "location_var": self.location_var,
            "low_views": list(self.low_views),
        }

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "ResourceRequest":
        try:
            return cls(
                name=str(obj["name"]),
                spec=str(obj["spec"]),
                location_var=str(obj["location_var"]),
                low_views=tuple(str(v) for v in obj.get("low_views", ())),
            )
        except (KeyError, TypeError) as error:
            raise RequestError(f"malformed resource request {obj!r}: {error}")


#: Instance groups: ((low-inputs, (high-variant, ...)), ...) — the
#: JSON-able shape of :func:`repro.casestudies.base.make_instance_groups`.
InstanceGroups = Tuple[Tuple[dict, Tuple[dict, ...]], ...]


def _decode_inputs(store: Any) -> dict:
    """Wire inputs as language values: JSON arrays become tuples."""

    def decode(value: Any) -> Any:
        return tuple(map(decode, value)) if isinstance(value, list) else value

    return {name: decode(value) for name, value in dict(store).items()}


@dataclass(frozen=True)
class VerificationRequest:
    """One verification obligation, in one of three shapes.

    * ``case`` — a case study by name (the corpus of
      :mod:`repro.casestudies`); everything else is taken from the
      catalogue entry.
    * ``program`` — raw program source plus :class:`ResourceRequest`
      declarations and input labellings; ``instances`` optionally
      supplies bounded instance groups for retroactive obligations.
    * ``formula`` — a raw SMT validity query (wire-encoded term), with
      optional per-variable ``sorts`` overrides (wire sort names); the
      daemon additionally folds the tenant's sort overrides under these.
      ``exhaustive`` (formula requests only) asserts that the bounded
      scope covers the whole domain, so a bounded proof reads ``proved``.
    """

    case: Optional[str] = None
    program: Optional[str] = None
    formula: Optional[Any] = None
    name: Optional[str] = None
    resources: Tuple[ResourceRequest, ...] = ()
    low_inputs: frozenset = frozenset()
    high_inputs: frozenset = frozenset()
    instances: Optional[InstanceGroups] = None
    sorts: Optional[Tuple[Tuple[str, str], ...]] = None
    exhaustive: bool = False

    @property
    def kind(self) -> str:
        if self.case is not None:
            return "case"
        if self.program is not None:
            return "program"
        if self.formula is not None:
            return "formula"
        return "empty"

    def label(self) -> str:
        """The display name verdicts are reported under."""
        if self.case is not None:
            return self.case
        if self.name:
            return self.name
        return self.kind

    def validate(self) -> None:
        populated = [
            f for f in ("case", "program", "formula") if getattr(self, f) is not None
        ]
        if len(populated) != 1:
            raise RequestError(
                f"a request must set exactly one of case/program/formula, got {populated or 'none'}"
            )
        if self.exhaustive and self.formula is None:
            raise RequestError("exhaustive applies to formula requests only")
        if self.formula is not None and self.sorts is not None:
            for _var, sort_name in self.sorts:
                sort_from_wire(sort_name)

    # -- construction of the engine inputs --------------------------------

    def build_program_spec(self) -> Tuple["ProgramSpec", Optional[Any]]:
        """The (program spec, bounded-instance generator) pair this
        request verifies; raises :class:`RequestError` on bad input."""
        self.validate()
        if self.case is not None:
            from .casestudies import case_by_name

            try:
                case = case_by_name(self.case)
            except KeyError as error:
                raise RequestError(str(error))
            return case.program_spec(), case.instances
        if self.program is None:
            raise RequestError(f"request {self.label()!r} carries no program")
        from .casestudies.base import make_instance_groups, parse_program
        from .lang.desugar import DesugarError
        from .lang.parser import ParseError
        from .verifier.declarations import ProgramSpec

        try:
            program = parse_program(self.program)
        except ParseError as error:
            raise RequestError(f"program does not parse: {error}")
        except DesugarError as error:
            raise RequestError(f"program is outside the fork/join fragment: {error}")
        except Exception as error:  # noqa: BLE001 — parser errors vary
            raise RequestError(f"program does not parse: {error}")
        spec = ProgramSpec(
            name=self.name or "program",
            program=program,
            resources=tuple(resource.build() for resource in self.resources),
            low_inputs=frozenset(self.low_inputs),
            high_inputs=frozenset(self.high_inputs),
        )
        generator = None
        if self.instances is not None:
            generator = make_instance_groups(
                [(dict(low), tuple(dict(v) for v in variants)) for low, variants in self.instances]
            )
        return spec, generator

    def build_sorts(self) -> Optional[Dict[str, Sort]]:
        if self.sorts is None:
            return None
        return {var: sort_from_wire(name) for var, name in self.sorts}

    # -- wire -------------------------------------------------------------

    def to_wire(self) -> dict:
        obj: Dict[str, Any] = {}
        if self.case is not None:
            obj["case"] = self.case
        if self.program is not None:
            obj["program"] = self.program
        if self.formula is not None:
            obj["formula"] = self.formula
        if self.name is not None:
            obj["name"] = self.name
        if self.resources:
            obj["resources"] = [resource.to_wire() for resource in self.resources]
        if self.low_inputs:
            obj["low_inputs"] = sorted(self.low_inputs)
        if self.high_inputs:
            obj["high_inputs"] = sorted(self.high_inputs)
        if self.instances is not None:
            obj["instances"] = [
                [dict(low), [dict(v) for v in variants]] for low, variants in self.instances
            ]
        if self.sorts is not None:
            obj["sorts"] = {var: name for var, name in self.sorts}
        if self.exhaustive:
            obj["exhaustive"] = True
        return obj

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "VerificationRequest":
        if not isinstance(obj, Mapping):
            raise RequestError(f"a request must be a JSON object, got {obj!r}")
        instances = obj.get("instances")
        if instances is not None:
            try:
                instances = tuple(
                    (_decode_inputs(low), tuple(_decode_inputs(v) for v in variants))
                    for low, variants in instances
                )
            except (TypeError, ValueError) as error:
                raise RequestError(f"malformed instances: {error}")
        sorts = obj.get("sorts")
        if sorts is not None:
            if not isinstance(sorts, Mapping):
                raise RequestError(f"malformed sorts {sorts!r}")
            sorts = tuple(sorted((str(k), str(v)) for k, v in sorts.items()))
        request = cls(
            case=obj.get("case"),
            program=obj.get("program"),
            formula=obj.get("formula"),
            name=obj.get("name"),
            resources=tuple(
                ResourceRequest.from_wire(r) for r in obj.get("resources", ())
            ),
            low_inputs=frozenset(obj.get("low_inputs", ())),
            high_inputs=frozenset(obj.get("high_inputs", ())),
            instances=instances,
            sorts=sorts,
            exhaustive=bool(obj.get("exhaustive", False)),
        )
        request.validate()
        return request


def estimate_vc_count(request: VerificationRequest) -> int:
    """A cheap upper-bound estimate of the solver obligations one
    request will discharge — the admission-control currency.

    Counts one obligation per declared resource (Def. 3.1 validity) plus
    one per ``atomic`` block of the program (conformance); a raw formula
    is one obligation.  Purely syntactic: no analysis runs, so admission
    control can reject before any expensive work starts.
    """
    request.validate()
    if request.formula is not None:
        return 1
    spec, _instances = request.build_program_spec()
    from .lang.ast import Atomic, Node

    atomics = 0
    stack = [spec.program]
    seen: set = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Atomic):
            atomics += 1
        for value in vars(node).values():
            if isinstance(value, Node):
                stack.append(value)
            elif isinstance(value, (tuple, list)):
                stack.extend(v for v in value if isinstance(v, Node))
    return len(spec.resources) + atomics


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """The typed outcome of one request.

    For case/program requests this mirrors the observable surface of a
    :class:`~repro.verifier.frontend.VerificationResult`; for formula
    requests ``solver_verdict``/``model`` carry the SMT answer and
    ``verified`` means PROVED.  ``expected`` is the catalogue's expected
    outcome when known (case requests), so clients can flag unexpected
    verdicts without holding the corpus themselves.
    """

    name: str
    verified: bool
    errors: Tuple[str, ...] = ()
    expected: Optional[bool] = None
    elapsed: float = 0.0
    symbolic_conformance: Tuple[Tuple[str, str], ...] = ()
    #: (resource name, valid, checks performed) per declared resource.
    validity: Tuple[Tuple[str, bool, int], ...] = ()
    #: Human-readable sampling conformance reports (stage 3 fallback).
    conformance: Tuple[str, ...] = ()
    #: Human-readable retroactive obligations (stage 4).
    obligations: Tuple[str, ...] = ()
    solver_verdict: Optional[str] = None
    model: Optional[dict] = None
    from_cache: bool = False
    #: ``(pid, start, end)``: the daemon worker process that computed the
    #: verdict and when, in epoch seconds (``time.time()``); ``None``
    #: outside the daemon.  Not part of ``observable()``: it says
    #: where and when a verdict was computed, never what it is.
    worker: Optional[Tuple[int, float, float]] = None

    @property
    def ok(self) -> bool:
        """True when the verdict matches expectation (or none is known
        and the program verified)."""
        if self.expected is None:
            return self.verified
        return self.verified == self.expected

    def observable(self) -> tuple:
        """The canonical comparison surface for differential tests —
        everything except timings and cache provenance."""
        return (
            self.name,
            self.verified,
            self.errors,
            tuple(sorted(self.symbolic_conformance)),
            tuple(sorted(self.validity)),
            self.solver_verdict,
        )

    def to_wire(self) -> dict:
        obj: Dict[str, Any] = {
            "name": self.name,
            "verified": self.verified,
            "errors": list(self.errors),
            "elapsed": self.elapsed,
        }
        if self.expected is not None:
            obj["expected"] = self.expected
        if self.symbolic_conformance:
            obj["symbolic_conformance"] = [list(pair) for pair in self.symbolic_conformance]
        if self.validity:
            obj["validity"] = {
                name: [valid, checks] for name, valid, checks in self.validity
            }
        if self.conformance:
            obj["conformance"] = list(self.conformance)
        if self.obligations:
            obj["obligations"] = list(self.obligations)
        if self.solver_verdict is not None:
            obj["solver_verdict"] = self.solver_verdict
        if self.model is not None:
            obj["model"] = dict(self.model)
        if self.from_cache:
            obj["from_cache"] = True
        if self.worker is not None:
            obj["worker"] = list(self.worker)
        return obj

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Verdict":
        try:
            return cls(
                name=str(obj["name"]),
                verified=bool(obj["verified"]),
                errors=tuple(str(e) for e in obj.get("errors", ())),
                expected=obj.get("expected"),
                elapsed=float(obj.get("elapsed", 0.0)),
                symbolic_conformance=tuple(
                    (str(a), str(b)) for a, b in obj.get("symbolic_conformance", ())
                ),
                validity=tuple(
                    sorted(
                        (str(k), bool(v[0]), int(v[1]))
                        for k, v in obj.get("validity", {}).items()
                    )
                ),
                conformance=tuple(str(c) for c in obj.get("conformance", ())),
                obligations=tuple(str(o) for o in obj.get("obligations", ())),
                solver_verdict=obj.get("solver_verdict"),
                model=dict(obj["model"]) if obj.get("model") is not None else None,
                from_cache=bool(obj.get("from_cache", False)),
                worker=_worker_from_wire(obj.get("worker")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise RequestError(f"malformed verdict {obj!r}: {error}")


def _worker_from_wire(value: Any) -> Optional[Tuple[int, float, float]]:
    if value is None:
        return None
    pid, start, end = value
    return int(pid), float(start), float(end)


@dataclass(frozen=True)
class BatchReport:
    """The outcome of a batch: per-request verdicts plus served stats."""

    verdicts: Tuple[Verdict, ...]
    elapsed: float = 0.0
    stats: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(verdict.ok for verdict in self.verdicts)

    def to_wire(self) -> dict:
        return {
            "verdicts": [verdict.to_wire() for verdict in self.verdicts],
            "elapsed": self.elapsed,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "BatchReport":
        return cls(
            verdicts=tuple(Verdict.from_wire(v) for v in obj.get("verdicts", ())),
            elapsed=float(obj.get("elapsed", 0.0)),
            stats=dict(obj.get("stats", {})),
        )


def verdict_from_result(
    result: "VerificationResult",
    expected: Optional[bool] = None,
    elapsed: float = 0.0,
) -> Verdict:
    """Wrap an engine :class:`~repro.verifier.frontend.VerificationResult`."""
    return Verdict(
        name=result.name,
        verified=result.verified,
        errors=tuple(result.errors),
        expected=expected,
        elapsed=elapsed,
        symbolic_conformance=tuple(result.symbolic_conformance),
        validity=tuple(
            sorted(
                (name, report.valid, report.checks_performed)
                for name, report in result.validity_reports.items()
            )
        ),
        conformance=tuple(str(report) for report in result.conformance_reports),
        obligations=tuple(str(obligation) for obligation in result.obligations),
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute(
    request: VerificationRequest,
    *,
    session: Optional[SolverSession] = None,
    sorts: Optional[Mapping[str, Sort]] = None,
    cache: Optional[ValidityCache] = None,
) -> Verdict:
    """Run one request in-process and return its typed verdict.

    ``session`` runs the request on a caller-owned solver session (the
    daemon's worker builds one per request); ``sorts`` folds extra per-variable sort
    overrides *under* the request's own (formula requests only — the
    daemon passes the tenant's overrides here); ``cache`` scopes an
    explicit validity-cache handle for the duration of the call.
    """
    request.validate()
    start = time.perf_counter()

    def _run() -> Verdict:
        if request.formula is not None:
            from .smt.solver import Verdict as SolverVerdict, check_validity

            formula = term_from_wire(request.formula)
            merged: Optional[Dict[str, Sort]] = None
            if sorts or request.sorts:
                merged = dict(sorts or {})
                merged.update(request.build_sorts() or {})
            result = check_validity(
                formula,
                sorts=merged,
                exhaustive=request.exhaustive,
                session=session,
            )
            return Verdict(
                name=request.label(),
                verified=result.verdict is SolverVerdict.PROVED,
                elapsed=time.perf_counter() - start,
                solver_verdict=result.verdict.value,
                model=dict(result.model) if result.model is not None else None,
                from_cache=result.from_cache,
            )
        from .verifier.frontend import verify

        spec, instances = request.build_program_spec()
        expected = None
        if request.case is not None:
            from .casestudies import case_by_name

            expected = case_by_name(request.case).expected_verified
        result = verify(spec, bounded_instances=instances, session=session)
        return verdict_from_result(
            result, expected=expected, elapsed=time.perf_counter() - start
        )

    if cache is not None:
        with using_cache(cache):
            return _run()
    return _run()


def verify_batch(
    requests: Sequence[VerificationRequest],
    *,
    session: Optional[SolverSession] = None,
    cache: Optional[ValidityCache] = None,
) -> BatchReport:
    """Run a batch of requests on one shared session, in order.

    All compatible obligations of the batch land on the same
    incremental sub-sessions (one per fragment), so later requests reuse
    earlier requests' learned clauses and Tseitin definitions; no
    verdict depends on that history.
    """
    start = time.perf_counter()
    shared = session if session is not None else SolverSession()
    verdicts = tuple(
        execute(request, session=shared, cache=cache)
        for request in requests
    )
    elapsed = time.perf_counter() - start
    return BatchReport(
        verdicts=verdicts,
        elapsed=elapsed,
        stats={"session": shared.stats()},
    )


__all__ = [
    "BatchReport",
    "DECIDED_EVENTS",
    "EVENT_ACCEPTED",
    "EVENT_BYE",
    "EVENT_DONE",
    "EVENT_ERROR",
    "EVENT_LINT",
    "EVENT_PONG",
    "EVENT_REJECTED",
    "EVENT_RETRY_AFTER",
    "EVENT_STATS",
    "EVENT_TENANT",
    "EVENT_TIMEOUT",
    "EVENT_VERDICT",
    "EVENT_WORKER_CRASH",
    "WIRE_EVENTS",
    "InstanceGroups",
    "RequestError",
    "ResourceRequest",
    "Verdict",
    "VerificationRequest",
    "estimate_vc_count",
    "execute",
    "sort_from_wire",
    "term_from_wire",
    "term_to_wire",
    "verdict_from_result",
    "verify_batch",
]
