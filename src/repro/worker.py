"""The verification daemon's worker process (:mod:`repro.server`'s arms).

One worker process per supervisor slot, spawned at daemon boot and
respawned after every kill (timeout) or crash.  Each worker owns the
expensive warm state the daemon exists to preserve — a
:class:`~repro.smt.session.SessionPool` of per-tenant incremental
:class:`~repro.smt.session.SolverSession` s, the interned term tables,
and a worker-local :class:`~repro.smt.cache.ValidityCache` seeded from
the supervisor's store at spawn — so killing a worker loses exactly that
worker's sessions and nothing else: verdicts already shipped, and every
cache delta already merged back into the supervisor, survive.

The protocol is a :mod:`multiprocessing` pipe carrying plain dicts, one
request at a time (the supervisor serializes per worker, so a worker
never sees a second ``run`` before answering the first):

* ``{"op": "run", "seq", "tenant", "namespace", "request", "sorts",
  "max_models", "fault"}`` → ``{"seq", "kind": "verdict"|"error",
  "verdict"|"reason", "cache_delta", "stats"}`` — execute one
  :class:`~repro.api.VerificationRequest` (wire form) on the tenant's
  pooled session under the tenant's cache namespace.  Every reply ships
  the validity-cache *delta* accumulated since the previous reply
  (:meth:`~repro.smt.cache.ValidityCache.export_delta`) plus a pool +
  cache stats snapshot, so the supervisor's merged view stays current
  even if this worker is killed a millisecond later.
* ``{"op": "retire", "tenant"}`` — drop the tenant's pooled session
  (policy change / supervisor-side retirement).  Fire-and-forget.
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
  the kernel OOM killer;
* ``corrupt_cache`` — tear the on-disk cache shard (truncate + garbage)
  before solving, simulating a worker killed mid-save on a pre-atomic
  store; the request itself still completes.
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


def _apply_fault(fault: Optional[Mapping[str, Any]], cache_path: Optional[str]) -> None:
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
    elif kind == "corrupt_cache":
        if cache_path:
            # A torn shard: valid JSON prefix, then truncation + noise —
            # what a SIGKILL mid-write would leave on a non-atomic store.
            with open(cache_path, "w", encoding="utf-8") as handle:
                handle.write('{"version": 1, "entries": {"dead')
                handle.write("\x00garbage\x00")


def _run_one(message: Mapping[str, Any], pool, cache) -> Dict[str, Any]:
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
        factory = None
        if max_models is not None:
            factory = lambda: SolverSession(max_models=int(max_models))  # noqa: E731
        with using_cache(cache), cache.namespaced(namespace):
            session = pool.acquire(tenant, factory=factory)
            start = time.time()
            try:
                verdict = api.execute(request, session=session, sorts=sorts)
            finally:
                pool.release(tenant)
        wire = verdict.to_wire()
        wire["worker"] = [os.getpid(), start, time.time()]  # Verdict.worker
        return {"kind": REPLY_VERDICT, "verdict": wire}
    except api.RequestError as error:
        return {"kind": REPLY_ERROR, "reason": str(error)}
    except Exception as error:  # noqa: BLE001 — a bad VC must not kill the worker
        pool.retire(tenant)
        return {
            "kind": REPLY_ERROR,
            "reason": f"internal error: {type(error).__name__}: {error}",
        }


def worker_main(conn, init: Mapping[str, Any]) -> None:
    """The worker process entry point: serve ``run`` ops until ``exit``
    (or the supervisor disappears).  ``init`` carries the warm-start
    payload: the supervisor's persistent cache snapshot, pool bounds,
    the shard path (for the corrupt_cache fault) and the fault gate."""
    # The supervisor owns lifecycle: SIGINT (a ^C aimed at the daemon)
    # must not take workers down mid-reply — the supervisor's stop path
    # ends us deliberately instead.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread (tests) — fine
        pass

    from .smt.cache import ValidityCache
    from .smt.session import SessionPool

    cache = ValidityCache()
    entries = init.get("cache_entries")
    if entries:
        cache.merge(entries)
    if init.get("cache_active", True):
        cache.enable_persistence()
    cache.reset_delta()
    pool = SessionPool(
        max_sessions=int(init.get("max_sessions", 8)),
        max_live_clauses=init.get("max_live_clauses"),
    )
    fault_injection = bool(init.get("fault_injection", False))
    cache_path = init.get("cache_path")

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
        if op == "retire":
            tenant = message.get("tenant")
            if isinstance(tenant, str):
                pool.retire(tenant)
            continue
        if op != "run":
            continue
        if fault_injection:
            _apply_fault(message.get("fault"), cache_path)
        reply = _run_one(message, pool, cache)
        reply["seq"] = message.get("seq")
        reply["cache_delta"] = cache.export_delta()
        cache.reset_delta()
        reply["stats"] = {"pool": pool.stats(), "cache": cache.stats()}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


__all__ = ["REPLY_ERROR", "REPLY_VERDICT", "SLEEP_FAULT_SECONDS", "worker_main"]
