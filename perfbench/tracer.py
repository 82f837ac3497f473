"""In-memory span and counter recorder for the benchmark's traced runs.

The tracer wraps each layer's public function *at the name its caller
looks it up by* (a module global or a class attribute), so the program
itself is not edited and an untraced run executes none of this code.
Every wrapped call records one span: layer name, start, end, busy time,
self time (busy minus the time its child spans cover) and the enclosing
span.  A span opened with no span around it belongs to the current
*op*; the benchmark opens and closes ops around each request.

Generators (``enumerate_executions``) are timed across ``next()`` calls:
the span covers the time spent producing items, not the call that
created the generator, and it is closed when the consumer exhausts or
drops the generator.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Name of the root span the benchmark opens around each request.  Its
#: self time is the part of the op no layer span covers.
OP = "op"


class _Span:
    __slots__ = ("name", "start", "child", "parent")

    def __init__(self, name: str, start: float, parent: Optional["_Span"]) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.parent = parent


class Tracer:
    """Records spans and counts per op; see the module docstring."""

    def __init__(self) -> None:
        #: op -> (name, start, end, busy, self, parent name) per closed span.
        self.spans: Dict[int, List[Tuple[str, float, float, float, float, Optional[str]]]] = (
            defaultdict(list)
        )
        #: op -> counter name -> value.
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: List[_Span] = []
        #: When set, ops open automatically around each outermost span
        #: and are appended to this JSON-lines file as they close (the
        #: daemon's worker process has no benchmark loop to do it).
        self.sink: Optional[str] = None

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> _Span:
        if not self._stack and self.sink is not None:
            self.op += 1
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, clock(), parent)
        self._stack.append(span)
        return span

    def end(self, span: _Span) -> None:
        end = clock()
        self._stack.pop()
        busy = end - span.start
        self._close(span, span.start, end, busy)

    def _close(self, span: _Span, start: float, end: float, busy: float) -> None:
        parent = span.parent
        if parent is not None:
            parent.child += busy
        self.spans[self.op].append(
            (span.name, start, end, busy, busy - span.child,
             parent.name if parent is not None else None)
        )
        if parent is None and self.sink is not None:
            self.flush()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.op][key] += amount

    def begin_op(self, op: int) -> _Span:
        self.op = op
        return self.begin(OP)

    # -- wrapping ------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: Optional[str],
        on_call: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a ``layer``
        span (no span when ``layer`` is None) and then calls
        ``on_call(tracer, args, kwargs, result)`` to record counts."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(layer) if layer is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.end(span)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def patch_generator(self, owner: Any, attr: str, layer: str) -> None:
        """Like :meth:`patch` for a generator function: busy time is
        summed over ``next()`` calls and the span closes when the
        generator is exhausted or dropped.  Counts ``<layer>.items``,
        ``.started``, ``.completed`` and ``.abandoned_s``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(gen):
            span = _Span(layer, clock(), tracer._stack[-1] if tracer._stack else None)
            busy = 0.0
            items = 0
            completed = False
            try:
                while True:
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        completed = True
                        return
                    finally:
                        busy += clock() - start
                    items += 1
                    yield item
            finally:
                gen.close()
                tracer._close(span, span.start, clock(), busy)
                tracer.count(f"{layer}.items", items)
                tracer.count(f"{layer}.started")
                if completed:
                    tracer.count(f"{layer}.completed")
                else:
                    tracer.count(f"{layer}.abandoned_s", busy)

        def wrapper(*args, **kwargs):
            return traced(original(*args, **kwargs))

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    # -- output --------------------------------------------------------

    def take(self, op: int) -> dict:
        """Per-op summary: self time per span name and the op's counts."""
        self_s: Dict[str, float] = defaultdict(float)
        for name, _start, _end, _busy, span_self, _parent in self.spans.get(op, ()):
            self_s[name] += span_self
        return {"self": dict(self_s), "counts": dict(self.counts.get(op, {}))}

    def flush(self) -> None:
        """Append the current op's summary to the sink and drop its spans."""
        record = self.take(self.op)
        with open(self.sink, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans.pop(self.op, None)
        self.counts.pop(self.op, None)

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, spans in self.spans.items():
                for name, start, end, busy, self_s, parent in spans:
                    handle.write(json.dumps(
                        {"op": op, "name": name, "start": start, "end": end,
                         "busy": busy, "self": self_s, "parent": parent}
                    ) + "\n")


# -- the layer table -----------------------------------------------------

def _count_checks(tracer, _args, _kwargs, result) -> None:
    tracer.count("spec.validity.checks", result[1])


def _count_obligations(tracer, _args, _kwargs, result) -> None:
    tracer.count("verifier.analysis.obligations", len(result.obligations))


def _count_prepass(tracer, _args, _kwargs, result) -> None:
    tracer.count("analysis.prepass.runs")
    if result.secure:
        tracer.count("analysis.prepass.secure")


def _count_smt(tracer, _args, _kwargs, result) -> None:
    tracer.count("smt.queries")
    if result.from_cache:
        tracer.count("smt.cache_hits")


def _count_executions(tracer, _args, _kwargs, result) -> None:
    tracer.count("security.noninterference.executions", result.executions_checked)


def _session_counter() -> Callable:
    """Counts, at the ``verify`` boundary, whether the run got a solver
    session that already served an earlier run (reused) or a new one
    (created; ``verify`` without a session builds its own)."""
    seen: set = set()

    def on_call(tracer, _args, kwargs, _result) -> None:
        session = kwargs.get("session")
        if session is not None and id(session) in seen:
            tracer.count("smt.sessions_reused")
        else:
            tracer.count("smt.sessions_created")
            if session is not None:
                seen.add(id(session))

    return on_call


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the verification pipeline.

    Each entry names the module (or class) a caller looks the function up
    in, so the wrapper sits exactly where the call resolves."""
    mod = importlib.import_module
    frontend = mod("repro.verifier.frontend")
    vcgen = mod("repro.verifier.vcgen")
    validity = mod("repro.spec.validity")
    oracle = mod("repro.fuzz.oracle")
    noninterference = mod("repro.security.noninterference")
    sessions = _session_counter()

    tracer.patch(mod("repro.api"), "execute", "api")
    tracer.patch(mod("repro.casestudies.base"), "parse_program", "lang.parser")
    tracer.patch(frontend, "verify", "verifier.frontend", sessions)
    tracer.patch(oracle, "verify", "verifier.frontend", sessions)
    tracer.patch(frontend, "check_validity_batch", "spec.validity")
    tracer.patch(validity, "check_condition_a", None, _count_checks)
    tracer.patch(validity, "check_condition_b", None, _count_checks)
    tracer.patch(mod("repro.verifier.analysis").TaintAnalyzer, "analyze",
                 "verifier.analysis", _count_obligations)
    tracer.patch(mod("repro.analysis.prepass"), "run_prepass", "analysis.prepass",
                 _count_prepass)
    tracer.patch(vcgen, "discharge_conformance", "verifier.vcgen")
    tracer.patch(vcgen, "check_validity", "smt", _count_smt)
    tracer.patch(frontend, "check_conformance", "verifier.conformance")
    tracer.patch(frontend, "check_noninterference", "security.noninterference",
                 _count_executions)
    tracer.patch(oracle, "check_noninterference", "security.noninterference",
                 _count_executions)
    tracer.patch_generator(oracle, "enumerate_executions", "lang.scheduler")
    tracer.patch_generator(noninterference, "enumerate_executions", "lang.scheduler")
    tracer.patch(oracle, "mutual_information", "security.leakage")
    tracer.patch(oracle, "threshold_leak", "security.leakage")
    tracer.patch(oracle, "check_case", "fuzz.oracle")
    tracer.patch(mod("repro.fuzz.gen"), "generate_case", "fuzz.gen")
