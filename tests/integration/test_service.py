"""Integration tests for the verification daemon (:mod:`repro.server`)
and its client: the full corpus over a unix socket must match fresh
in-process verification verdict-for-verdict, warm batches must be
answered from the in-memory validity cache, tenants must be isolated (and
affine to distinct worker processes), and admission control must reject
over-budget work before solving.  Fault-injection scenarios live in
``test_service_faults.py``."""

import json
import os
import shutil
import socket as socket_module
import tempfile
import threading
import time

import pytest

from repro import api
from repro.casestudies import ALL_CASES
from repro.client import BatchOutcome, ServiceClient, ServiceError, requests_for_cases
from repro.server import VerificationServer
from repro.smt import clear_all_caches
from repro.smt.cache import ValidityCache, using_cache

ALL_NAMES = [case.name for case in ALL_CASES]

#: Cases whose runtime is dominated by VC discharge (not by the
#: interpreter-sampling conformance fallback) — the ones a warm
#: validity cache actually accelerates.
SOLVER_BOUND = [
    "Figure 1",
    "Figure 1 (commuting)",
    "Figure 1 (leaky)",
    "Figure 3",
    "Most-Valuable-Purchase",
    "Sales-By-Region (guard split)",
    "Count-Purchases",
    "Mean-Salary",
    "Salary-Histogram",
    "Debt-Sum",
]


def start_daemon(server: VerificationServer) -> threading.Thread:
    """Run ``server`` on a daemon thread; wait for the socket to bind."""
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


# ---------------------------------------------------------------------------
# A module-scoped daemon on a unix socket, run on a background thread.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    tmp = tempfile.mkdtemp(prefix="repro-svc-")
    socket_path = os.path.join(tmp, "daemon.sock")
    server = VerificationServer(
        socket_path=socket_path,
        batch_limit=32,
        timeout=60.0,
        workers=2,
    )
    thread = start_daemon(server)
    yield server, socket_path
    stop_daemon(socket_path, thread)
    shutil.rmtree(tmp, ignore_errors=True)


def _client(daemon) -> ServiceClient:
    _server, socket_path = daemon
    return ServiceClient(socket_path=socket_path)


# ---------------------------------------------------------------------------
# Protocol basics
# ---------------------------------------------------------------------------


def test_ping_and_stats(daemon):
    with _client(daemon) as client:
        assert client.ping()
        stats = client.stats()
        assert "cache" in stats and "uptime" in stats
        # no solver state outlives a request: there is no session pool
        assert "pool" not in stats
        # the supervised pool: two live workers with distinct real PIDs
        workers = stats["workers"]
        assert len(workers) == 2
        assert all(worker["alive"] for worker in workers)
        pids = [worker["pid"] for worker in workers]
        assert len(set(pids)) == 2
        for pid in pids:
            os.kill(pid, 0)  # raises if the PID does not exist


def test_unknown_op_is_an_error(daemon):
    with _client(daemon) as client:
        with pytest.raises(ServiceError, match="unknown op"):
            client._roundtrip({"op": "frobnicate"}, "never")


def test_malformed_line_gets_an_error_event(daemon):
    _server, socket_path = daemon
    with socket_module.socket(socket_module.AF_UNIX) as raw:
        raw.settimeout(10.0)
        raw.connect(socket_path)
        raw.sendall(b"this is not json\n")
        event = json.loads(raw.makefile("rb").readline())
        assert event["event"] == "error"
        assert "bad JSON" in event["reason"]


# ---------------------------------------------------------------------------
# The differential contract: socket verdicts == fresh in-process verdicts
# ---------------------------------------------------------------------------


def test_corpus_over_socket_matches_in_process_verify(daemon):
    clear_all_caches()
    fresh = {}
    for case in ALL_CASES:
        # A fresh per-run session under a fresh cache.
        with using_cache(ValidityCache()):
            result = case.verify()
        fresh[case.name] = api.verdict_from_result(
            result, expected=case.expected_verified
        ).observable()

    with _client(daemon) as client:
        outcome = client.run_batch(requests_for_cases(ALL_NAMES), tenant="diff")
    assert outcome.complete, (outcome.rejections, outcome.timeouts, outcome.errors)
    assert len(outcome.verdicts) == len(ALL_CASES)
    for index, name in enumerate(ALL_NAMES):
        assert outcome.verdicts[index].observable() == fresh[name], name
    assert outcome.ok  # every verdict matches the catalogue expectation


def test_warm_second_batch_hits_the_in_memory_cache(daemon):
    with _client(daemon) as client:
        cold = client.run_batch(requests_for_cases(SOLVER_BOUND), tenant="warm")
        warm = client.run_batch(requests_for_cases(SOLVER_BOUND), tenant="warm")
    assert cold.complete and warm.complete
    assert [v.observable() for v in cold.ordered_verdicts()] == [
        v.observable() for v in warm.ordered_verdicts()
    ]
    # Every validity query of the warm batch is an in-memory cache hit:
    # hits grow and misses do not.  Work counters, not wall-clock
    # ratios, which scheduling noise on a loaded machine makes flaky.
    assert warm.stats["cache"]["hits"] > cold.stats["cache"]["hits"]
    assert warm.stats["cache"]["misses"] == cold.stats["cache"]["misses"]


def test_concurrent_tenants_are_isolated_and_agree(daemon):
    server, _socket_path = daemon
    names = ALL_NAMES[:6]
    outcomes = {}
    errors = []

    def drive(tenant):
        try:
            with _client(daemon) as client:
                outcomes[tenant] = client.run_batch(
                    requests_for_cases(names), tenant=tenant
                )
        except Exception as error:  # noqa: BLE001 — surfaced via the errors list
            errors.append((tenant, error))

    threads = [
        threading.Thread(target=drive, args=(tenant,))
        for tenant in ("tenant-a", "tenant-b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    a, b = outcomes["tenant-a"], outcomes["tenant-b"]
    assert a.complete and b.complete
    assert a.ok and b.ok
    assert [v.observable() for v in a.ordered_verdicts()] == [
        v.observable() for v in b.ordered_verdicts()
    ]
    # tenant-affine routing put the two tenants on distinct workers
    assert server._affinity["tenant-a"] != server._affinity["tenant-b"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU core: two CPU-bound workers cannot overlap in wall time",
)
def test_two_tenant_batches_overlap_in_wall_time():
    """With --workers 2, two simultaneous single-tenant batches solve in
    separate worker processes at the same time.  Each verdict carries the
    pid and busy interval of the worker that computed it; some request of
    each tenant must have been computed in a different process while the
    other tenant's request was being computed.  (``test_service_faults.py``
    proves scheduling-level overlap on any host via sleep faults; this
    pins the CPU-level claim where the hardware can express it.)"""
    tmp = tempfile.mkdtemp(prefix="repro-conc-")
    socket_path = os.path.join(tmp, "c.sock")
    server = VerificationServer(socket_path=socket_path, workers=2, timeout=120.0)
    thread = start_daemon(server)
    try:
        requests = requests_for_cases(ALL_NAMES)

        def run_one(tenant, results):
            with ServiceClient(socket_path=socket_path) as client:
                results[tenant] = client.run_batch(requests, tenant=tenant)

        results = {}
        threads = [
            threading.Thread(target=run_one, args=(tenant, results))
            for tenant in ("left", "right")
        ]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=300)
        intervals = {}
        for tenant in ("left", "right"):
            outcome = results[tenant]
            assert outcome.complete and outcome.ok
            intervals[tenant] = [verdict.worker for verdict in outcome.verdicts.values()]
            assert all(interval is not None for interval in intervals[tenant])
        left_pids = {pid for pid, _, _ in intervals["left"]}
        right_pids = {pid for pid, _, _ in intervals["right"]}
        assert left_pids.isdisjoint(right_pids), (left_pids, right_pids)
        assert any(
            left_start < right_end and right_start < left_end
            for _, left_start, left_end in intervals["left"]
            for _, right_start, right_end in intervals["right"]
        ), intervals
    finally:
        stop_daemon(socket_path, thread)
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Admission control and tenancy policy
# ---------------------------------------------------------------------------


def test_admission_control_rejects_over_budget_requests(daemon):
    with _client(daemon) as client:
        client.configure_tenant("stingy", vc_budget=0)
        outcome = client.run_batch(
            requests_for_cases(["Figure 3", "Sequential-Tally"]), tenant="stingy"
        )
    assert not outcome.verdicts
    # Admission is the VC estimate alone: a case no static analysis can
    # fault is refused like any other over-budget request.
    assert sorted(outcome.rejections) == [0, 1]
    assert all("admission budget" in reason for reason in outcome.rejections.values())


def test_retired_static_prepass_key_on_the_socket_is_ignored(daemon):
    # A raw batch line from a client that still sends the retired key is
    # decoded as the plain request: admitted and verified as usual.
    _server, socket_path = daemon
    line = {
        "op": "batch",
        "requests": [{"case": "Sequential-Tally", "static_prepass": False}],
    }
    with socket_module.socket(socket_module.AF_UNIX) as raw:
        raw.settimeout(60.0)
        raw.connect(socket_path)
        raw.sendall(json.dumps(line).encode() + b"\n")
        reader = raw.makefile("rb")
        events = []
        while not events or events[-1]["event"] != api.EVENT_DONE:
            events.append(json.loads(reader.readline()))
    verdicts = [event for event in events if event["event"] == api.EVENT_VERDICT]
    assert len(verdicts) == 1
    assert api.Verdict.from_wire(verdicts[0]["verdict"]).verified


def test_whole_batch_over_limit_is_refused(daemon):
    # the module daemon runs with batch_limit=32; 33 requests must be
    # refused outright (no accepted/done events)
    requests = [api.VerificationRequest(case="Figure 1")] * 33
    with _client(daemon) as client:
        with pytest.raises(ServiceError, match="exceeds the limit"):
            client.run_batch(requests)


def test_tenant_op_round_trips_policy(daemon):
    with _client(daemon) as client:
        event = client.configure_tenant(
            "policy", namespace="ns-p", vc_budget=7, max_models=123
        )
        assert event["tenant"] == "policy"
        assert event["namespace"] == "ns-p"
        assert event["vc_budget"] == 7
        assert event["max_models"] == 123
        stats = client.stats()
    assert stats["tenants"]["policy"]["namespace"] == "ns-p"


def test_bad_request_in_batch_reports_indexed_error(daemon):
    with _client(daemon) as client:
        outcome = client.run_batch(
            [
                api.VerificationRequest(case="Figure 1"),
                api.VerificationRequest(case="No Such Case"),
            ],
            tenant="mixed",
        )
    assert 0 in outcome.verdicts and outcome.verdicts[0].ok
    assert 1 in outcome.errors
    assert "No Such Case" in outcome.errors[1]


# ---------------------------------------------------------------------------
# Wall-clock budget: a timeout kills the worker, not the daemon
# ---------------------------------------------------------------------------


def test_timeout_kills_worker_and_daemon_stays_serviceable():
    tmp = tempfile.mkdtemp(prefix="repro-to-")
    socket_path = os.path.join(tmp, "t.sock")
    # The budget must be comfortably below the case's runtime (~100ms
    # for the sampling-bound Pipeline case); the kill is a SIGKILL on a
    # separate process, so no GIL cooperation is needed.
    server = VerificationServer(socket_path=socket_path, timeout=0.02, workers=1)
    thread = start_daemon(server)
    try:
        with ServiceClient(socket_path=socket_path) as client:
            doomed_pid = client.stats()["workers"][0]["pid"]
            outcome = client.run_batch(requests_for_cases(["Pipeline"]), tenant="slow")
            assert 0 in outcome.timeouts
            assert "killed" in outcome.timeouts[0]
            assert outcome.stats["tenants"]["slow"]["timeouts"] == 1
            assert outcome.stats["timeouts"] == 1
            # the interruption is real: the worker process is gone...
            with pytest.raises(ProcessLookupError):
                os.kill(doomed_pid, 0)
            # ...a fresh worker took the slot, and the daemon still serves
            stats = client.stats()
            assert stats["workers"][0]["alive"]
            assert stats["workers"][0]["pid"] != doomed_pid
            assert client.ping()
    finally:
        stop_daemon(socket_path, thread)
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# The lint op (answered supervisor-side, no worker round-trip)
# ---------------------------------------------------------------------------


def test_lint_op_over_the_wire(daemon):
    from repro.analysis.diagnostics import Diagnostic

    with _client(daemon) as client:
        diagnostics = client.lint(
            sources=[
                ("racy", "c := alloc(0)\n{ [c] := 1 } || { [c] := 2 }"),
                ("leaky", "print(h)"),
            ],
            high=["h"],
        )
    codes = sorted(d.code for d in diagnostics)
    assert "R001" in codes
    assert "F001" in codes
    # Wire forms are plain JSON: a round trip through the codec is exact.
    for diagnostic in diagnostics:
        assert (
            Diagnostic.from_wire(json.loads(json.dumps(diagnostic.to_wire())))
            == diagnostic
        )


def test_lint_op_with_case_context(daemon):
    with _client(daemon) as client:
        diagnostics = client.lint(cases=["Sales-By-Region (guard split)"])
    assert any(d.code == "R003" for d in diagnostics)


def test_lint_op_rejects_unknown_cases(daemon):
    with _client(daemon) as client:
        with pytest.raises(ServiceError):
            client.lint(cases=["No-Such-Case"])


# ---------------------------------------------------------------------------
# Client-side plumbing
# ---------------------------------------------------------------------------


def test_batch_outcome_to_report_round_trip():
    outcome = BatchOutcome(
        verdicts={1: api.Verdict(name="b", verified=True), 0: api.Verdict(name="a", verified=True)},
        elapsed=0.25,
        stats={"cache": {}},
    )
    report = outcome.to_report()
    assert [v.name for v in report.verdicts] == ["a", "b"]  # index order
    assert outcome.complete and outcome.ok
