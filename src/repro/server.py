"""Verification-as-a-service: the long-lived asyncio daemon.

A ``python -m repro`` invocation pays package import and cold interned
term tables (:mod:`repro.smt.intern`) and an empty in-memory validity
cache (:mod:`repro.smt.cache`) every time.  :class:`VerificationServer`
keeps those alive behind a batched request API.  No solver session
outlives a request: each one runs on a
:class:`~repro.smt.session.SolverSession` of its own.

* **Transport** — a unix socket first (``python -m repro serve --socket
  PATH``), optionally localhost TCP (``--host/--port``).  Framing is
  JSON lines: one JSON object per ``\\n``-terminated line, each request
  answered by a stream of event objects ending in ``done`` — the wire
  schema is exactly the ``to_wire``/``from_wire`` surface of
  :mod:`repro.api` (event kinds are catalogued in
  :data:`repro.api.WIRE_EVENTS`).
* **A supervised process pool** — solving is CPU-bound Python, so the
  daemon runs one warm *worker process* per slot
  (:func:`repro.worker.worker_main`), each holding its own in-memory
  validity cache.  Routing is **tenant-affine**: a tenant's batches
  keep hitting the same worker (first touch picks the least-loaded
  slot), so its cache entries stay warm, while batches from *different*
  tenants solve genuinely concurrently in separate processes.
* **Real timeout interruption** — a request over its wall-clock budget
  gets its worker process SIGKILLed (the PID is gone, the CPU returns
  to idle), a fresh worker is spawned in the slot, and the client gets
  a ``timeout`` event.  Only that worker's cache is lost; other
  workers' in-flight requests never notice.
* **Crash isolation** — a worker dying mid-request (segfault, OOM
  kill, broken pipe) is detected by the supervisor, counted in
  ``stats["worker_crashes"]``, and the request is transparently
  retried **once** on the freshly spawned worker (verdicts are
  deterministic and cache-keyed, so the retry is idempotent); a second
  failure answers the client with a structured ``worker_crash`` event.
  Either way the client connection stays live and the daemon stays
  serviceable.
* **Admission control & load shedding** — a per-request VC budget
  (:func:`repro.api.estimate_vc_count`, purely syntactic, so rejection
  happens before any solving) plus a *queue deadline*: when the
  tenant's affine worker stays busy past it, the request is shed with
  a ``retry_after`` event (counted in ``stats["load_shed"]``) instead
  of queueing unboundedly — :class:`repro.client.ServiceClient`
  retries those with bounded backoff.
* **Multi-tenancy** — cache entries are namespaced per tenant
  (:meth:`repro.smt.cache.ValidityCache.namespaced`); tenants can carry
  sort overrides and per-tenant solver budgets (``max_models``),
  configured over the wire with the ``tenant`` op.
* **Lint** — the daemon answers ``lint`` ops supervisor-side with the
  static analyses of :mod:`repro.analysis` (no worker round-trip).
  Lint never decides admission: that is the VC estimate alone.

Protocol ops (client → server)::

    {"op": "ping", "id": ...}
    {"op": "stats", "id": ...}
    {"op": "tenant", "tenant": "t", "namespace": ..., "vc_budget": ...,
     "max_models": ..., "sorts": {"x": "int"}}
    {"op": "batch", "id": ..., "tenant": "t", "requests": [<request>...]}
    {"op": "lint", "id": ..., "sources": [{"name": ..., "text": ...}],
     "cases": [<case name>...], "low": [...], "high": [...]}
    {"op": "shutdown"}

Server → client events: ``pong``, ``stats``, ``tenant``, ``accepted``,
``verdict`` (one per request, streamed as each lands), ``rejected``,
``retry_after``, ``timeout``, ``worker_crash``, ``lint``, ``error``,
``done`` (with served stats), ``bye``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import api
from .analysis import lint_case, run_lint, sort_diagnostics, target_from_source
from .worker import worker_main

#: Default per-request verification-condition budget (admission control).
DEFAULT_VC_BUDGET = 256
#: Default per-request wall-clock budget, seconds.
DEFAULT_TIMEOUT = 120.0
#: Default cap on requests per batch.
DEFAULT_BATCH_LIMIT = 64
#: Default worker-process count.
DEFAULT_WORKERS = 2
#: Default admission deadline: how long a request may wait for its
#: tenant's busy worker before being shed with ``retry_after``.
DEFAULT_QUEUE_DEADLINE = 30.0

#: Sentinels for worker-call outcomes.
_CRASHED = object()
_TIMED_OUT = object()


def _mp_context():
    """Fork when available (workers inherit the warm interned tables for
    free); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-fork platform
        return multiprocessing.get_context()


def _recv_blocking(conn):
    """Executor-thread body: one blocking pipe read.  A dead peer (the
    worker was killed, crashed, or OOM-killed) surfaces as EOF/OSError —
    normalized to the crash sentinel so the event loop can tell 'reply'
    from 'worker gone'."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return _CRASHED


@dataclass
class TenantConfig:
    """Per-tenant policy: cache namespace, solver budget, sort overrides
    (kept in wire form — Sort objects are rebuilt worker-side)."""

    name: str
    namespace: str = ""
    vc_budget: Optional[int] = None
    max_models: Optional[int] = None
    sorts: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.namespace:
            self.namespace = self.name


@dataclass
class _TenantState:
    config: TenantConfig
    batches: int = 0
    requests: int = 0
    rejected: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    retries: int = 0
    load_shed: int = 0


class _WorkerHandle:
    """One supervisor slot: the live process + pipe + busy lock, plus
    the last stats snapshot its replies piggybacked."""

    __slots__ = ("index", "proc", "conn", "lock", "spawns", "seq", "last_stats")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        self.lock = asyncio.Lock()
        self.spawns = 0
        self.seq = 0
        self.last_stats: Dict[str, Any] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class VerificationServer:
    """The daemon.  Construct, then either ``run()`` (blocking, owns the
    event loop) or ``await start()`` inside an existing loop."""

    def __init__(
        self,
        socket_path: Optional[Any] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        vc_budget: int = DEFAULT_VC_BUDGET,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        timeout: float = DEFAULT_TIMEOUT,
        workers: int = DEFAULT_WORKERS,
        queue_deadline: float = DEFAULT_QUEUE_DEADLINE,
        fault_injection: bool = False,
    ) -> None:
        if socket_path is None and host is None:
            raise ValueError("a unix socket path or a host/port is required")
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.vc_budget = vc_budget
        self.batch_limit = batch_limit
        self.timeout = timeout
        self.queue_deadline = queue_deadline
        self.fault_injection = fault_injection

        self._tenants: Dict[str, _TenantState] = {}

        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(index) for index in range(max(1, workers))
        ]
        self._affinity: Dict[str, int] = {}
        #: Cache counters of workers that died (their last snapshot
        #: would otherwise vanish from aggregated stats).
        self._dead_cache: Dict[str, int] = {}

        self.timeouts = 0
        self.worker_crashes = 0
        self.retries = 0
        self.load_shed = 0
        self.lints_served = 0

        self._servers: list = []
        self._shutdown = asyncio.Event()
        self._started = 0.0
        self.batches_served = 0
        self.requests_served = 0

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self, handle: _WorkerHandle) -> None:
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, {"fault_injection": self.fault_injection}),
            name=f"repro-worker-{handle.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.spawns += 1
        handle.last_stats = {}

    def _reap_worker(self, handle: _WorkerHandle, kill: bool = True) -> None:
        """Take a worker down (SIGKILL unless already dead), reap the
        process so the PID disappears, fold its last stats snapshot into
        the dead-worker accumulators, and close the pipe."""
        proc = handle.proc
        if proc is not None:
            try:
                if kill and proc.is_alive():
                    proc.kill()
                proc.join(5)
            except (OSError, ValueError):
                pass
        self._accumulate_dead_stats(handle)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        handle.proc = None
        handle.conn = None

    def _respawn_worker(self, handle: _WorkerHandle) -> None:
        self._reap_worker(handle)
        self._spawn_worker(handle)

    def _accumulate_dead_stats(self, handle: _WorkerHandle) -> None:
        snapshot = handle.last_stats
        for key in ("hits", "misses"):
            value = (snapshot.get("cache") or {}).get(key, 0)
            self._dead_cache[key] = self._dead_cache.get(key, 0) + value
        handle.last_stats = {}

    def _affine_worker(self, tenant: str) -> _WorkerHandle:
        """The tenant's sticky worker slot: first touch picks the slot
        with the fewest assigned tenants (ties → lowest index), so with
        tenants ≤ workers each tenant gets a slot of its own and a kill
        costs exactly one tenant its warm cache."""
        index = self._affinity.get(tenant)
        if index is None:
            loads = [0] * len(self._workers)
            for assigned in self._affinity.values():
                loads[assigned] += 1
            index = min(range(len(self._workers)), key=lambda i: (loads[i], i))
            self._affinity[tenant] = index
        return self._workers[index]

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._started = time.monotonic()
        for handle in self._workers:
            self._spawn_worker(handle)
        if self.socket_path is not None:
            if self.socket_path.exists():
                self.socket_path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_client, path=str(self.socket_path)
            )
            self._servers.append(server)
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port or 0
            )
            self._servers.append(server)

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    handle.conn.send({"op": "exit"})
                except (BrokenPipeError, OSError, ValueError):
                    pass
            self._reap_worker(handle, kill=True)
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()

    async def serve_forever(self) -> None:
        """Wait (inside a running loop, after :meth:`start`) until a
        ``shutdown`` op arrives."""
        await self._shutdown.wait()

    def run(self, announce: bool = False) -> None:
        """Blocking entry point: serve until a ``shutdown`` op (or
        KeyboardInterrupt), then clean up.
        ``announce`` prints the bound endpoints once listening."""

        async def _main() -> None:
            await self.start()
            if announce:
                print(
                    f"repro daemon listening on {', '.join(self.endpoints)} "
                    f"({len(self._workers)} workers)",
                    flush=True,
                )
            try:
                await self.serve_forever()
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    @property
    def endpoints(self) -> Tuple[str, ...]:
        names = []
        if self.socket_path is not None:
            names.append(f"unix:{self.socket_path}")
        for server in self._servers:
            for sock in server.sockets or ():
                try:
                    addr = sock.getsockname()
                except OSError:
                    continue
                if isinstance(addr, tuple):
                    names.append(f"tcp:{addr[0]}:{addr[1]}")
        return tuple(names)

    # -- tenancy ----------------------------------------------------------

    def tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(config=TenantConfig(name=name))
            self._tenants[name] = state
        return state

    def configure_tenant(
        self,
        name: str,
        namespace: Optional[str] = None,
        vc_budget: Optional[int] = None,
        max_models: Optional[int] = None,
        sorts: Optional[Mapping[str, str]] = None,
    ) -> TenantConfig:
        """Install per-tenant policy (also reachable over the wire via
        the ``tenant`` op).  New policy (e.g. ``max_models``) applies
        from the tenant's next request, which builds its own session."""
        state = self.tenant(name)
        config = state.config
        if namespace is not None:
            config.namespace = namespace
        if vc_budget is not None:
            config.vc_budget = vc_budget
        if max_models is not None:
            config.max_models = max_models
        if sorts is not None:
            for sort_name in sorts.values():
                api.sort_from_wire(sort_name)  # validate eagerly
            config.sorts = {str(var): str(sort_name) for var, sort_name in sorts.items()}
        # Pin the tenant's worker slot now (instead of lazily on its
        # first batch) so explicit configuration yields deterministic
        # routing — what the affinity regression tests rely on.
        self._affine_worker(name)
        return config

    # -- stats ------------------------------------------------------------

    def _aggregate_cache_stats(self) -> Dict[str, int]:
        """Cache counters summed over live workers' last snapshots, plus
        the hits/misses of workers that died (their entries died too)."""
        return {
            key: self._dead_cache.get(key, 0)
            + sum(
                (handle.last_stats.get("cache") or {}).get(key, 0)
                for handle in self._workers
            )
            for key in ("hits", "misses", "size")
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "uptime": time.monotonic() - self._started,
            "batches": self.batches_served,
            "requests": self.requests_served,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "retries": self.retries,
            "load_shed": self.load_shed,
            "lints": self.lints_served,
            "queue_deadline": self.queue_deadline,
            "cache": self._aggregate_cache_stats(),
            "workers": [
                {
                    "index": handle.index,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "busy": handle.lock.locked(),
                    "spawns": handle.spawns,
                    "tenants": sorted(
                        tenant
                        for tenant, index in self._affinity.items()
                        if index == handle.index
                    ),
                }
                for handle in self._workers
            ],
            "tenants": {
                name: {
                    "batches": state.batches,
                    "requests": state.requests,
                    "rejected": state.rejected,
                    "timeouts": state.timeouts,
                    "worker_crashes": state.worker_crashes,
                    "retries": state.retries,
                    "load_shed": state.load_shed,
                    "namespace": state.config.namespace,
                }
                for name, state in self._tenants.items()
            },
        }

    # -- protocol ---------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not reader.at_eof():
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError as error:
                    await self._emit(writer, {"event": "error", "reason": f"bad JSON: {error}"})
                    continue
                if not isinstance(message, dict):
                    await self._emit(
                        writer, {"event": "error", "reason": "message must be a JSON object"}
                    )
                    continue
                stop = await self._dispatch(message, writer)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (shutdown op) cancels handlers still blocked
            # in readline; ending cleanly instead of cancelled keeps the
            # stream protocol's done-callback from logging a traceback.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _emit(self, writer: asyncio.StreamWriter, obj: Dict[str, Any]) -> None:
        writer.write(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
        await writer.drain()

    async def _dispatch(self, message: dict, writer: asyncio.StreamWriter) -> bool:
        """Handle one op; returns True when the connection should close."""
        op = message.get("op")
        ident = message.get("id")

        def tag(obj: Dict[str, Any]) -> Dict[str, Any]:
            if ident is not None:
                obj["id"] = ident
            return obj

        if op == "ping":
            await self._emit(writer, tag({"event": "pong"}))
            return False
        if op == "stats":
            await self._emit(writer, tag({"event": "stats", "stats": self.stats()}))
            return False
        if op == "shutdown":
            await self._emit(writer, tag({"event": "bye"}))
            self._shutdown.set()
            return True
        if op == "tenant":
            name = message.get("tenant")
            if not isinstance(name, str) or not name:
                await self._emit(
                    writer, tag({"event": "error", "reason": "tenant op needs a tenant name"})
                )
                return False
            try:
                config = self.configure_tenant(
                    name,
                    namespace=message.get("namespace"),
                    vc_budget=message.get("vc_budget"),
                    max_models=message.get("max_models"),
                    sorts=message.get("sorts"),
                )
            except api.RequestError as error:
                await self._emit(writer, tag({"event": "error", "reason": str(error)}))
                return False
            await self._emit(
                writer,
                tag(
                    {
                        "event": "tenant",
                        "tenant": name,
                        "namespace": config.namespace,
                        "vc_budget": config.vc_budget,
                        "max_models": config.max_models,
                    }
                ),
            )
            return False
        if op == "batch":
            await self._handle_batch(message, writer, tag)
            return False
        if op == "lint":
            await self._handle_lint(message, writer, tag)
            return False
        await self._emit(writer, tag({"event": "error", "reason": f"unknown op {op!r}"}))
        return False

    async def _handle_lint(self, message: dict, writer, tag) -> None:
        """Static analysis only — answered supervisor-side without a
        worker round-trip (no solving is involved, so there is nothing
        to keep warm or to supervise)."""
        sources = message.get("sources") or []
        cases = message.get("cases") or []
        if not isinstance(sources, list) or not isinstance(cases, list):
            await self._emit(
                writer,
                tag({"event": "error", "reason": "lint needs sources/cases lists"}),
            )
            return
        low = [str(name) for name in message.get("low") or []]
        high = [str(name) for name in message.get("high") or []]
        diagnostics = []
        try:
            for entry in sources:
                if not isinstance(entry, dict) or "text" not in entry:
                    raise api.RequestError(
                        f"lint source must be an object with a 'text' field, got {entry!r}"
                    )
                target = target_from_source(
                    str(entry["text"]),
                    source=str(entry.get("name", "<wire>")),
                    low_inputs=low,
                    high_inputs=high,
                )
                diagnostics.extend(run_lint(target))
            if cases:
                from .casestudies import case_by_name

                for name in cases:
                    try:
                        diagnostics.extend(lint_case(case_by_name(str(name))))
                    except KeyError as error:
                        raise api.RequestError(str(error))
        except api.RequestError as error:
            await self._emit(writer, tag({"event": "error", "reason": str(error)}))
            return
        diagnostics = sort_diagnostics(diagnostics)
        self.lints_served += 1
        await self._emit(
            writer,
            tag(
                {
                    "event": api.EVENT_LINT,
                    "count": len(diagnostics),
                    "errors": sum(1 for d in diagnostics if d.severity == "error"),
                    "diagnostics": [d.to_wire() for d in diagnostics],
                }
            ),
        )

    async def _handle_batch(self, message: dict, writer, tag) -> None:
        tenant_name = message.get("tenant") or "default"
        state = self.tenant(tenant_name)
        raw_requests = message.get("requests")
        if not isinstance(raw_requests, list):
            await self._emit(
                writer, tag({"event": "error", "reason": "batch needs a requests list"})
            )
            return
        if len(raw_requests) > self.batch_limit:
            state.rejected += len(raw_requests)
            await self._emit(
                writer,
                tag(
                    {
                        "event": "rejected",
                        "reason": f"batch of {len(raw_requests)} exceeds the "
                        f"limit of {self.batch_limit}",
                    }
                ),
            )
            return

        start = time.perf_counter()
        state.batches += 1
        self.batches_served += 1
        await self._emit(writer, tag({"event": "accepted", "count": len(raw_requests)}))

        budget = (
            state.config.vc_budget
            if state.config.vc_budget is not None
            else self.vc_budget
        )
        for index, raw in enumerate(raw_requests):
            # The fault-injection hook rides next to the request payload
            # and never reaches the request parser; it is honoured only
            # when the daemon opted in at construction time.
            fault = None
            if isinstance(raw, dict) and "_fault" in raw:
                raw = dict(raw)
                popped = raw.pop("_fault")
                if self.fault_injection and isinstance(popped, dict):
                    fault = popped
            # Parse + admission control, both cheap and purely syntactic.
            try:
                request = api.VerificationRequest.from_wire(raw)
                estimate = self._admit(request, budget)
            except api.RequestError as error:
                await self._emit(
                    writer, tag({"event": "error", "index": index, "reason": str(error)})
                )
                continue
            if estimate is not None:
                state.rejected += 1
                await self._emit(
                    writer,
                    tag({"event": "rejected", "index": index, "reason": estimate}),
                )
                continue

            worker = self._affine_worker(tenant_name)
            try:
                await asyncio.wait_for(
                    worker.lock.acquire(), timeout=self.queue_deadline
                )
            except asyncio.TimeoutError:
                # Admission deadline blown: shed load instead of queueing
                # unboundedly.  Batch requests are idempotent, so the
                # client can safely retry after the hinted delay.
                state.load_shed += 1
                self.load_shed += 1
                await self._emit(
                    writer,
                    tag(
                        {
                            "event": "retry_after",
                            "index": index,
                            "retry_after": round(self.queue_deadline, 3),
                            "reason": (
                                f"worker {worker.index} busy past the "
                                f"{self.queue_deadline:.1f}s admission deadline"
                            ),
                        }
                    ),
                )
                continue
            try:
                event = await self._execute_supervised(
                    state, worker, raw, fault, index
                )
            finally:
                worker.lock.release()
            await self._emit(writer, tag(event))

        elapsed = time.perf_counter() - start
        await self._emit(
            writer,
            tag({"event": "done", "elapsed": elapsed, "stats": self.stats()}),
        )

    # -- execution --------------------------------------------------------

    def _admit(self, request: api.VerificationRequest, budget: int) -> Optional[str]:
        """None when admitted, else the human-readable rejection reason.

        Admission is the syntactic VC estimate against the budget, a pure
        arithmetic check made before any solving starts.
        """
        estimate = api.estimate_vc_count(request)
        if estimate <= budget:
            return None
        return (
            f"request {request.label()!r} estimates {estimate} VCs, "
            f"over the admission budget of {budget}"
        )

    async def _call_worker(self, handle: _WorkerHandle, payload: Dict[str, Any]):
        """One request → one reply on ``handle``'s worker, supervised.

        Returns the reply dict, ``_TIMED_OUT`` (the worker was SIGKILLed
        and the slot respawned) or ``_CRASHED`` (the worker died on its
        own; the slot is respawned by the caller's retry policy)."""
        if handle.conn is None or not handle.alive:
            return _CRASHED
        handle.seq += 1
        payload["seq"] = handle.seq
        try:
            handle.conn.send(payload)
        except (BrokenPipeError, OSError, ValueError):
            return _CRASHED
        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(None, _recv_blocking, handle.conn)
        # asyncio.wait (not wait_for): wait_for would cancel-and-await the
        # executor future, which cannot be interrupted while the thread
        # is blocked in recv — the kill below is what unblocks it.
        done, pending = await asyncio.wait({task}, timeout=self.timeout)
        if pending:
            self._respawn_worker(handle)  # SIGKILL; recv sees EOF and returns
            try:
                await asyncio.wait_for(task, timeout=5.0)
            except (asyncio.TimeoutError, Exception):  # noqa: BLE001
                pass
            return _TIMED_OUT
        reply = task.result()
        if reply is _CRASHED or not isinstance(reply, dict):
            return _CRASHED
        stats = reply.get("stats")
        if isinstance(stats, dict):
            handle.last_stats = stats
        return reply

    async def _execute_supervised(
        self,
        state: _TenantState,
        worker: _WorkerHandle,
        raw_request: dict,
        fault: Optional[dict],
        index: int,
    ) -> Dict[str, Any]:
        """Run one admitted request on the tenant's affine worker with
        the full degradation ladder: timeout → kill + respawn; crash →
        respawn + one transparent retry → structured ``worker_crash``."""
        config = state.config
        payload = {
            "op": "run",
            "tenant": config.name,
            "namespace": config.namespace,
            "request": raw_request,
            "sorts": dict(config.sorts) if config.sorts else None,
            "max_models": config.max_models,
            "fault": fault,
        }
        attempts = 0
        while True:
            attempts += 1
            outcome = await self._call_worker(worker, dict(payload))
            if outcome is _TIMED_OUT:
                state.timeouts += 1
                self.timeouts += 1
                return {
                    "event": "timeout",
                    "index": index,
                    "reason": (
                        f"request exceeded the {self.timeout:.0f}s wall-clock "
                        f"budget; worker {worker.index} killed and respawned"
                    ),
                }
            if outcome is _CRASHED:
                state.worker_crashes += 1
                self.worker_crashes += 1
                self._respawn_worker(worker)
                if attempts == 1:
                    # Verdicts are deterministic and cache-keyed, so one
                    # transparent replay on the fresh worker is safe; the
                    # fault hook is dropped so an injected crash cannot
                    # loop — unless the test marked it sticky, which is
                    # how the give-up path below gets exercised.
                    state.retries += 1
                    self.retries += 1
                    if not (fault and fault.get("sticky")):
                        payload["fault"] = None
                    continue
                return {
                    "event": "worker_crash",
                    "index": index,
                    "attempts": attempts,
                    "reason": (
                        f"worker {worker.index} died twice running this "
                        f"request; giving up after one retry"
                    ),
                }
            state.requests += 1
            self.requests_served += 1
            if outcome.get("kind") == "verdict":
                return {
                    "event": "verdict",
                    "index": index,
                    "attempts": attempts,
                    "verdict": outcome.get("verdict"),
                }
            return {
                "event": "error",
                "index": index,
                "reason": str(outcome.get("reason", "unspecified worker error")),
            }


__all__ = [
    "DEFAULT_BATCH_LIMIT",
    "DEFAULT_QUEUE_DEADLINE",
    "DEFAULT_TIMEOUT",
    "DEFAULT_VC_BUDGET",
    "DEFAULT_WORKERS",
    "TenantConfig",
    "VerificationServer",
]
