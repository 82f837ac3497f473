"""Fault-injection harness for the verification daemon.

The daemon is booted with ``fault_injection=True``, which honours a
test-only ``_fault`` hook riding next to a batch request::

    {"case": "Figure 3", "_fault": {"kind": "sleep" | "crash" | "oom", ...}}

The supervisor strips the hook before parsing the request and forwards
it to the worker, which applies it *before* solving — so tests can
deterministically blow the wall-clock budget (``sleep``) and kill a
worker mid-request (``crash``/``oom``).  The assertions here are the service's robustness
contract: the daemon stays serviceable through every fault, the
``stats`` counters (``timeouts``, ``worker_crashes``, ``retries``,
``load_shed``) advance correctly, other tenants' in-flight work is
unaffected, and afterwards all 28 corpus verdicts still match fresh
in-process runs.
"""

import os
import shutil
import tempfile
import threading
import time

import pytest

from repro import api
from repro.casestudies import ALL_CASES
from repro.client import RetryPolicy, ServiceClient, ServiceError, requests_for_cases
from repro.server import VerificationServer
from repro.smt.cache import ValidityCache, using_cache

ALL_NAMES = [case.name for case in ALL_CASES]


def start_daemon(server: VerificationServer) -> threading.Thread:
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    for _ in range(200):
        if server.socket_path is not None and os.path.exists(server.socket_path):
            return thread
        time.sleep(0.05)
    raise RuntimeError("daemon did not come up")


def stop_daemon(socket_path, thread: threading.Thread) -> None:
    try:
        with ServiceClient(socket_path=socket_path) as client:
            client.shutdown()
    except (ServiceError, OSError):
        pass
    thread.join(timeout=10)


def faulty_batch(client: ServiceClient, tenant, requests):
    """Send raw wire requests (which may carry ``_fault`` hooks — a
    shape ``VerificationRequest`` deliberately cannot express) and
    collect the event stream through the ``done`` event."""
    client._send({"op": "batch", "tenant": tenant, "requests": list(requests)})
    events = []
    while True:
        event = client._recv()
        events.append(event)
        if event.get("event") == "done":
            return events
        if event.get("event") in ("rejected", "error") and "index" not in event:
            return events


def events_of(events, kind):
    return [event for event in events if event.get("event") == kind]


@pytest.fixture()
def chaos_daemon():
    """A fresh fault-injecting daemon per test: 2 workers, a 1.5s
    wall-clock budget and a 0.4s admission deadline, all short enough to
    exercise every rung of the degradation ladder quickly."""
    tmp = tempfile.mkdtemp(prefix="repro-faults-")
    socket_path = os.path.join(tmp, "chaos.sock")
    server = VerificationServer(
        socket_path=socket_path,
        workers=2,
        timeout=1.5,
        queue_deadline=0.4,
        fault_injection=True,
    )
    thread = start_daemon(server)
    yield server, socket_path
    stop_daemon(socket_path, thread)
    shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# The degradation ladder, rung by rung
# ---------------------------------------------------------------------------


def test_sleep_fault_times_out_without_hurting_the_bystander(chaos_daemon):
    """Satellite regression for PR 6's ``_abandon_worker`` collateral
    damage: one tenant's timeout used to recycle the *shared* executor,
    abandoning other tenants' in-flight work.  Now only the offending
    worker process is killed: a bystander tenant solving concurrently on
    its own worker finishes normally, on the same worker PID."""
    server, socket_path = chaos_daemon
    bystander_outcome = {}

    def bystander():
        with ServiceClient(socket_path=socket_path) as client:
            # repeated solver-bound batches spanning the victim's window
            for _ in range(3):
                outcome = client.run_batch(
                    requests_for_cases(["Figure 3", "Figure 1"]), tenant="bystander"
                )
                bystander_outcome.setdefault("runs", []).append(outcome)

    with ServiceClient(socket_path=socket_path) as victim:
        # pin affinities: victim → worker 0, bystander → worker 1
        victim.configure_tenant("victim")
        victim.configure_tenant("bystander")
        assert server._affinity["victim"] != server._affinity["bystander"]
        bystander_pid = victim.stats()["workers"][server._affinity["bystander"]]["pid"]

        thread = threading.Thread(target=bystander)
        thread.start()
        events = faulty_batch(
            victim, "victim", [{"case": "Figure 3", "_fault": {"kind": "sleep"}}]
        )
        thread.join(timeout=60)

        timeouts = events_of(events, "timeout")
        assert len(timeouts) == 1 and timeouts[0]["index"] == 0
        assert "killed" in timeouts[0]["reason"]
        stats = victim.stats()
    assert stats["timeouts"] == 1
    assert stats["tenants"]["victim"]["timeouts"] == 1
    # the bystander never noticed: every batch complete, worker PID kept
    runs = bystander_outcome["runs"]
    assert len(runs) == 3 and all(run.complete and run.ok for run in runs)
    assert stats["workers"][server._affinity["bystander"]]["pid"] == bystander_pid


@pytest.mark.parametrize("kind", ["crash", "oom"])
def test_crash_fault_is_retried_transparently(chaos_daemon, kind):
    """A worker SIGKILLed mid-request (segfault-grade, or OOM-killed) is
    detected, counted, and the request transparently replayed once on a
    fresh worker — the client sees a normal verdict with attempts=2."""
    server, socket_path = chaos_daemon
    with ServiceClient(socket_path=socket_path) as client:
        events = faulty_batch(
            client,
            f"crashy-{kind}",
            [
                {"case": "Figure 3", "_fault": {"kind": kind}},
                {"case": "Figure 1"},
            ],
        )
        verdicts = events_of(events, "verdict")
        assert [event["index"] for event in verdicts] == [0, 1]
        assert verdicts[0]["attempts"] == 2  # one crash, one replay
        assert verdicts[1]["attempts"] == 1
        assert all(
            api.Verdict.from_wire(event["verdict"]).ok for event in verdicts
        )
        stats = client.stats()
        assert stats["worker_crashes"] == 1
        assert stats["retries"] == 1
        assert stats["tenants"][f"crashy-{kind}"]["worker_crashes"] == 1
        assert client.ping()  # no hung connection, daemon serviceable


def test_sticky_crash_gives_up_with_a_structured_event(chaos_daemon):
    """When the replay *also* crashes (sticky fault), the daemon answers
    a structured ``worker_crash`` event after exactly one retry instead
    of looping or hanging, and keeps serving."""
    _server, socket_path = chaos_daemon
    with ServiceClient(socket_path=socket_path) as client:
        events = faulty_batch(
            client,
            "doomed",
            [
                {"case": "Figure 3", "_fault": {"kind": "crash", "sticky": True}},
                {"case": "Figure 1"},
            ],
        )
        crashes = events_of(events, "worker_crash")
        assert len(crashes) == 1 and crashes[0]["index"] == 0
        assert crashes[0]["attempts"] == 2  # capped: one retry, then give up
        # the rest of the batch still completes
        verdicts = events_of(events, "verdict")
        assert [event["index"] for event in verdicts] == [1]
        stats = client.stats()
        assert stats["worker_crashes"] == 2
        assert stats["retries"] == 1
        assert client.ping()


def test_load_shed_answers_retry_after_and_client_recovers():
    """With every worker busy past the admission deadline, new requests
    are shed with ``retry_after`` instead of queueing unboundedly — and
    the client's bounded backoff turns the shed into a late verdict."""
    tmp = tempfile.mkdtemp(prefix="repro-shed-")
    socket_path = os.path.join(tmp, "shed.sock")
    server = VerificationServer(
        socket_path=socket_path,
        workers=1,  # one slot: a single sleeper saturates the daemon
        timeout=10.0,
        queue_deadline=0.2,
        fault_injection=True,
    )
    thread = start_daemon(server)
    try:
        def sleeper():
            with ServiceClient(socket_path=socket_path) as client:
                faulty_batch(
                    client,
                    "hog",
                    [{"case": "Figure 3", "_fault": {"kind": "sleep", "seconds": 1.5}}],
                )

        hog = threading.Thread(target=sleeper)
        hog.start()
        time.sleep(0.3)  # let the hog occupy the only worker

        # raw view: the daemon answers retry_after with a delay hint
        with ServiceClient(socket_path=socket_path) as raw:
            events = faulty_batch(raw, "shed-raw", [{"case": "Figure 1"}])
            shed = events_of(events, "retry_after")
            assert len(shed) == 1 and shed[0]["index"] == 0
            assert shed[0]["retry_after"] > 0

        # client view: run_batch retries the shed request and wins once
        # the hog's sleep ends
        policy = RetryPolicy(max_retries=6, base_delay=0.05, max_delay=0.5)
        with ServiceClient(socket_path=socket_path, retry=policy) as client:
            outcome = client.run_batch(
                requests_for_cases(["Figure 1"]), tenant="shed-retry"
            )
        hog.join(timeout=30)
        assert outcome.complete and outcome.ok
        assert outcome.client_retries >= 1
        with ServiceClient(socket_path=socket_path) as client:
            stats = client.stats()
        assert stats["load_shed"] >= 2  # the raw probe plus ≥1 client round
        assert stats["tenants"]["shed-raw"]["load_shed"] == 1
    finally:
        stop_daemon(socket_path, thread)
        shutil.rmtree(tmp, ignore_errors=True)


def test_sleep_faults_overlap_across_workers():
    """Two tenants sleeping 1s each finish in ~1s wall, not ~2s: the
    proof that workers are genuinely separate processes scheduled
    concurrently (valid even on a single-core host, unlike a CPU-bound
    overlap measurement)."""
    tmp = tempfile.mkdtemp(prefix="repro-overlap-")
    socket_path = os.path.join(tmp, "o.sock")
    server = VerificationServer(
        socket_path=socket_path, workers=2, timeout=10.0, fault_injection=True
    )
    thread = start_daemon(server)
    try:
        def sleepy(tenant):
            with ServiceClient(socket_path=socket_path) as client:
                faulty_batch(
                    client,
                    tenant,
                    [{"case": "Figure 3", "_fault": {"kind": "sleep", "seconds": 1.0}}],
                )

        threads = [
            threading.Thread(target=sleepy, args=(tenant,))
            for tenant in ("north", "south")
        ]
        start = time.perf_counter()
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=30)
        wall = time.perf_counter() - start
        assert wall < 1.8, wall  # serialized execution would take >= 2s
    finally:
        stop_daemon(socket_path, thread)
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# After the storm: the differential contract still holds
# ---------------------------------------------------------------------------


def test_corpus_matches_fresh_runs_after_faults(chaos_daemon):
    """Drive every fault kind through the daemon, then verify the whole
    28-case corpus over the socket and pin it verdict-for-verdict to
    fresh in-process runs — chaos must never bend a verdict."""
    _server, socket_path = chaos_daemon
    with ServiceClient(socket_path=socket_path) as client:
        faulty_batch(
            client,
            "storm",
            [
                {"case": "Figure 3", "_fault": {"kind": "crash"}},
                {"case": "Figure 1", "_fault": {"kind": "oom"}},
                {"case": "Most-Valuable-Purchase"},
                {"case": "Figure 1 (leaky)", "_fault": {"kind": "sleep"}},
            ],
        )
        stats = client.stats()
        assert stats["worker_crashes"] >= 2
        assert stats["retries"] >= 2
        assert stats["timeouts"] >= 1

        outcome = client.run_batch(requests_for_cases(ALL_NAMES), tenant="after")
    assert outcome.complete, (outcome.rejections, outcome.timeouts, outcome.errors)

    fresh = {}
    for case in ALL_CASES:
        # A fresh per-run session under a fresh cache.
        with using_cache(ValidityCache()):
            result = case.verify()
        fresh[case.name] = api.verdict_from_result(
            result, expected=case.expected_verified
        ).observable()
    for index, name in enumerate(ALL_NAMES):
        assert outcome.verdicts[index].observable() == fresh[name], name
    assert outcome.ok
