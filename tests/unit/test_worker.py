"""Unit tests for the daemon worker loop (:func:`repro.worker.worker_main`),
driven in-process over a scripted connection: every ``run`` gets a
solver session of its own, tenants are kept apart by cache namespace,
and errors, unknown ops and faults never take the loop down."""

import pytest

from repro import api, worker
from repro.smt.session import SolverSession
from repro.smt.sorts import INT
from repro.smt.terms import App, SymVar


class ScriptedConn:
    """A pipe end that replays ``messages`` and records replies; running
    out of messages reads as the supervisor going away."""

    def __init__(self, messages):
        self._messages = list(messages)
        self.sent = []
        self.closed = False

    def recv(self):
        if not self._messages:
            raise EOFError
        return self._messages.pop(0)

    def send(self, obj):
        self.sent.append(obj)

    def close(self):
        self.closed = True


def _run(seq, tag="taut", **extra):
    x = SymVar(f"wk_{tag}", INT)
    request = api.VerificationRequest(
        formula=api.term_to_wire(App("==", (x, x))), name=tag
    )
    message = {"op": "run", "seq": seq, "tenant": "t", "request": request.to_wire()}
    message.update(extra)
    return message


def _serve(messages, fault_injection=False):
    conn = ScriptedConn(messages)
    worker.worker_main(conn, {"fault_injection": fault_injection})
    return conn


@pytest.fixture
def recorded_sessions(monkeypatch):
    """Record the session every request runs on (holding a reference, so
    no two recorded sessions can share an ``id``)."""
    sessions = []
    real_execute = api.execute

    def execute(request, **kwargs):
        sessions.append(kwargs.get("session"))
        return real_execute(request, **kwargs)

    monkeypatch.setattr(api, "execute", execute)
    return sessions


class TestRequestSessions:
    def test_each_run_gets_a_fresh_session(self, recorded_sessions):
        conn = _serve([_run(1), _run(2), _run(3)])
        assert [reply["kind"] for reply in conn.sent] == [worker.REPLY_VERDICT] * 3
        assert all(isinstance(s, SolverSession) for s in recorded_sessions)
        assert len({id(session) for session in recorded_sessions}) == 3

    def test_max_models_reaches_the_request_session(self, recorded_sessions):
        _serve([_run(1, max_models=7), _run(2)])
        assert recorded_sessions[0].max_models == 7
        assert recorded_sessions[1].max_models == SolverSession().max_models


class TestReplies:
    def test_verdict_reply_echoes_seq_and_ships_cache_stats(self):
        conn = _serve([_run(41)])
        (reply,) = conn.sent
        assert reply["seq"] == 41
        assert reply["kind"] == worker.REPLY_VERDICT
        assert reply["verdict"]["verified"] is True
        assert set(reply["stats"]) == {"cache"}
        assert reply["stats"]["cache"] == {"hits": 0, "misses": 1, "size": 1}

    def test_one_namespace_hits_and_another_misses(self):
        conn = _serve(
            [
                _run(1, tag="ns", namespace="a"),
                _run(2, tag="ns", namespace="a"),
                _run(3, tag="ns", namespace="b"),
            ]
        )
        hits = [reply["verdict"].get("from_cache", False) for reply in conn.sent]
        assert hits == [False, True, False]
        assert conn.sent[-1]["stats"]["cache"]["size"] == 2

    def test_bad_request_is_an_error_reply_and_the_loop_goes_on(self):
        bad = {"op": "run", "seq": 1, "tenant": "t", "request": {"case": "No such case"}}
        conn = _serve([bad, _run(2)])
        assert conn.sent[0]["kind"] == worker.REPLY_ERROR
        assert conn.sent[0]["seq"] == 1
        assert conn.sent[1]["kind"] == worker.REPLY_VERDICT

    def test_unknown_ops_and_non_dict_messages_get_no_reply(self):
        conn = _serve([{"op": "retire", "tenant": "t"}, "garbage", _run(3)])
        assert [reply["seq"] for reply in conn.sent] == [3]

    def test_exit_op_ends_the_loop(self):
        conn = _serve([{"op": "exit"}, _run(1)])
        assert conn.sent == []
        assert conn.closed

    def test_supervisor_going_away_ends_the_loop(self):
        conn = _serve([])
        assert conn.sent == [] and conn.closed


class TestFaultGate:
    @pytest.fixture
    def applied(self, monkeypatch):
        faults = []
        monkeypatch.setattr(worker, "_apply_fault", faults.append)
        return faults

    def test_faults_are_ignored_without_the_gate(self, applied):
        conn = _serve([_run(1, fault={"kind": "sleep", "seconds": 0})])
        assert applied == []
        assert conn.sent[0]["kind"] == worker.REPLY_VERDICT

    def test_faults_are_applied_behind_the_gate(self, applied):
        fault = {"kind": "sleep", "seconds": 0}
        conn = _serve([_run(1, fault=fault)], fault_injection=True)
        assert applied == [fault]
        assert conn.sent[0]["kind"] == worker.REPLY_VERDICT
