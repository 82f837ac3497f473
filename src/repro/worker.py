"""The verification daemon's worker process (:mod:`repro.server`'s arms).

One worker process per supervisor slot, spawned at daemon boot and
respawned after every kill (timeout) or crash.  Each worker keeps the
interned term tables and a worker-local in-memory
:class:`~repro.smt.cache.ValidityCache` (namespaced per tenant) alive
across requests; every request runs on a
:class:`~repro.smt.session.SolverSession` built for it alone, so no
solver state outlives the request.  Killing a worker loses exactly its
cache and nothing else: verdicts already shipped survive.

The protocol is a :mod:`multiprocessing` pipe carrying plain dicts, one
request at a time (the supervisor serializes per worker, so a worker
never sees a second ``run`` before answering the first):

* ``{"op": "run", "seq", "tenant", "namespace", "request", "sorts",
  "max_models", "fault"}`` → ``{"seq", "kind": "verdict"|"error",
  "verdict"|"reason", "stats"}`` — execute one
  :class:`~repro.api.VerificationRequest` (wire form) on a fresh
  session under the tenant's cache namespace.  Every reply ships a
  cache stats snapshot, so the supervisor's served stats stay current
  even if this worker is killed a millisecond later.
* ``{"op": "exit"}`` — leave the loop; the process ends.

**Fault injection** (the test harness of
``tests/integration/test_service_faults.py``) is honoured only when the
supervisor was constructed with ``fault_injection=True`` — the flag
travels in the spawn ``init`` dict, never over the client wire, so a
production daemon ignores ``_fault`` keys entirely.  Kinds:

* ``sleep`` — hold the GIL-free ``time.sleep`` for ``seconds`` (default
  far beyond any timeout), simulating a stuck solve the supervisor must
  SIGKILL;
* ``crash`` — ``SIGKILL`` ourselves mid-request, simulating a
  segfault-grade failure;
* ``oom`` — allocate a chunk, then ``SIGKILL`` ourselves, simulating
  the kernel OOM killer.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Mapping, Optional

#: Reply kinds a worker can send for a ``run`` op.
REPLY_VERDICT = "verdict"
REPLY_ERROR = "error"

#: Default stuck-solve duration for the ``sleep`` fault: far beyond any
#: sane request timeout, so the supervisor's kill is the only way out.
SLEEP_FAULT_SECONDS = 3600.0


def _apply_fault(fault: Optional[Mapping[str, Any]]) -> None:
    """Run one injected fault (test harness only; no-op on None)."""
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "sleep":
        time.sleep(float(fault.get("seconds", SLEEP_FAULT_SECONDS)))
    elif kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "oom":
        # Mimic the OOM killer: grab memory, then die by SIGKILL (the
        # signal the kernel actually sends), without destabilizing the
        # test host by genuinely exhausting it.
        _ballast = bytearray(int(fault.get("bytes", 8 * 1024 * 1024)))
        os.kill(os.getpid(), signal.SIGKILL)


def _run_one(message: Mapping[str, Any], cache) -> Dict[str, Any]:
    """Execute one ``run`` op; never raises (errors become replies)."""
    from . import api
    from .smt.cache import using_cache
    from .smt.session import SolverSession

    tenant = message.get("tenant") or "default"
    namespace = message.get("namespace") or tenant
    try:
        request = api.VerificationRequest.from_wire(message["request"])
        sorts = None
        wire_sorts = message.get("sorts")
        if wire_sorts:
            sorts = {
                var: api.sort_from_wire(name) for var, name in wire_sorts.items()
            }
        max_models = message.get("max_models")
        session = (
            SolverSession()
            if max_models is None
            else SolverSession(max_models=int(max_models))
        )
        with using_cache(cache), cache.namespaced(namespace):
            start = time.time()
            verdict = api.execute(request, session=session, sorts=sorts)
        wire = verdict.to_wire()
        wire["worker"] = [os.getpid(), start, time.time()]  # Verdict.worker
        return {"kind": REPLY_VERDICT, "verdict": wire}
    except api.RequestError as error:
        return {"kind": REPLY_ERROR, "reason": str(error)}
    except Exception as error:  # noqa: BLE001 — a bad VC must not kill the worker
        return {
            "kind": REPLY_ERROR,
            "reason": f"internal error: {type(error).__name__}: {error}",
        }


def worker_main(conn, init: Mapping[str, Any]) -> None:
    """The worker process entry point: serve ``run`` ops until ``exit``
    (or the supervisor disappears).  ``init`` carries the fault gate."""
    # The supervisor owns lifecycle: SIGINT (a ^C aimed at the daemon)
    # must not take workers down mid-reply — the supervisor's stop path
    # ends us deliberately instead.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread (tests) — fine
        pass

    from .smt.cache import ValidityCache

    cache = ValidityCache()
    fault_injection = bool(init.get("fault_injection", False))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # supervisor went away: nothing left to serve
        if not isinstance(message, dict):
            continue
        op = message.get("op")
        if op == "exit":
            break
        if op != "run":
            continue
        if fault_injection:
            _apply_fault(message.get("fault"))
        reply = _run_one(message, cache)
        reply["seq"] = message.get("seq")
        reply["stats"] = {"cache": cache.stats()}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


__all__ = ["REPLY_ERROR", "REPLY_VERDICT", "SLEEP_FAULT_SECONDS", "worker_main"]
