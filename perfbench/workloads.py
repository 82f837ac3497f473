"""The three benchmark workloads.

Each workload has a fixed input set; the run's seed only fixes the order
in which those inputs are sent, so every seed measures the same work.
``imports()`` loads the program's modules (timed as set-up),
``setup()`` builds the inputs, ``ops()`` returns them in seed order and
``run_op`` sends one and waits for its answer: a closed loop with one
caller.  ``run_op`` returns ``(latency_s, inner_s, ok, detail)``, where
``inner_s`` is the time the verifier itself reported
(``Verdict.elapsed``, daemon only) and ``detail`` names a mismatch.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden" / "verdicts.json"
FUZZ_EXPECTED = HERE / "expected" / "fuzz.json"

#: The fuzz campaign: generator seed and case count (a fixed input set).
FUZZ_SEED = 20240808
FUZZ_COUNT = 12

OpResult = Tuple[float, Optional[float], bool, Optional[str]]


def _shuffled(items: List[Any], seed: int) -> List[Any]:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


class _Cases:
    """Shared by the workloads that send catalogue cases: the reference
    verdicts are the golden catalogue ``tests/golden/verdicts.json``."""

    def __init__(self, seed: int, tmp: Path, spans: Optional[Path] = None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.spans = spans
        self.verdicts: Dict[str, bool] = {}

    def imports(self) -> None:
        self.api = importlib.import_module("repro.api")
        self.casestudies = importlib.import_module("repro.casestudies")

    def _load_reference(self) -> None:
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
        self.expected = {name: entry["verified"] for name, entry in golden.items()}

    def ops(self) -> List[str]:
        return self.names

    def _judge(self, name: str, verdict, latency: float, inner: Optional[float]) -> OpResult:
        self.verdicts[name] = verdict.verified
        want = self.expected.get(name)
        if verdict.verified != want:
            return latency, inner, False, f"{name}: verified={verdict.verified}, reference {want}"
        return latency, inner, True, None

    def tally(self, names: List[str]) -> Dict[str, int]:
        verified = sum(1 for name in names if self.verdicts[name])
        return {"verdicts.verified": verified, "verdicts.rejected": len(names) - verified}

    def close(self) -> None:
        pass


class Corpus(_Cases):
    """All ``casestudies.ALL_CASES`` through ``repro.api.execute``, the
    path ``python -m repro`` takes."""

    def setup(self) -> None:
        self._load_reference()
        self.names = _shuffled([case.name for case in self.casestudies.ALL_CASES], self.seed)

    def run_op(self, name: str) -> OpResult:
        api = self.api
        start = time.perf_counter()
        verdict = api.execute(api.VerificationRequest(case=name))
        return self._judge(name, verdict, time.perf_counter() - start, None)


class Daemon(_Cases):
    """A ``VerificationServer`` subprocess with one worker on a unix
    socket and a fresh cache dir, fed one case per batch by one
    ``ServiceClient``.  Only cases that defer no retroactive obligation
    are sent, so stage 4 never runs.  With ``spans`` set, the daemon is
    started through ``serve_traced.py``, which records its layers there."""

    proc: Optional[subprocess.Popen] = None
    client = None

    def imports(self) -> None:
        super().imports()
        self.client_module = importlib.import_module("repro.client")
        self.analysis = importlib.import_module("repro.verifier.analysis")

    def setup(self) -> None:
        self._load_reference()
        names = [
            case.name
            for case in self.casestudies.ALL_CASES
            if not self.analysis.TaintAnalyzer(case.program_spec()).analyze().obligations
        ]
        self.names = _shuffled(names, self.seed)
        # A relative socket path stays under the unix-socket length
        # limit however deep the checkout is; both ends run from ROOT.
        socket_path = os.path.relpath(self.tmp / "daemon.sock", ROOT)
        args = ["--socket", socket_path, "--workers", "1"]
        if self.spans is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(self.spans), *args]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        line = self.proc.stdout.readline()
        if "listening" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.client = self.client_module.ServiceClient(socket_path=socket_path, timeout=120.0)
        self.client.ping()

    def run_op(self, name: str) -> OpResult:
        api = self.api
        start = time.perf_counter()
        latency = verdict = None
        for event in self.client.stream_batch([api.VerificationRequest(case=name)]):
            if event.get("event") == api.EVENT_VERDICT:
                latency = time.perf_counter() - start
                verdict = api.Verdict.from_wire(event["verdict"])
        if verdict is None:
            return time.perf_counter() - start, None, False, f"{name}: no verdict"
        return self._judge(name, verdict, latency, verdict.elapsed)

    def close(self) -> None:
        """Shut the daemon down and wait for it (and its worker) to end."""
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
        finally:
            if self.proc is not None:
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                self.proc.stdout.close()


class Fuzz:
    """``fuzz.gen.generate_case`` then ``fuzz.oracle.check_case`` on one
    shared ``SolverSession``: a fixed-count campaign without shrinking.
    The reference is ``failure_kind(outcome) is None`` plus the verdict
    recorded for each case in ``expected/fuzz.json``."""

    def __init__(self, seed: int, tmp: Path, spans: Optional[Path] = None) -> None:
        self.seed = seed
        self.outcomes: Dict[str, Any] = {}

    def imports(self) -> None:
        self.gen = importlib.import_module("repro.fuzz.gen")
        self.oracle = importlib.import_module("repro.fuzz.oracle")
        self.session_module = importlib.import_module("repro.smt.session")

    def setup(self) -> None:
        with open(FUZZ_EXPECTED, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if recorded["seed"] != FUZZ_SEED or len(recorded["verified"]) != FUZZ_COUNT:
            raise RuntimeError(f"{FUZZ_EXPECTED} does not record this campaign")
        self.expected = recorded["verified"]
        self.session = self.session_module.SolverSession()
        cases = [self.gen.generate_case(FUZZ_SEED, index) for index in range(FUZZ_COUNT)]
        self.cases = _shuffled(cases, self.seed)

    def ops(self) -> List[Any]:
        return self.cases

    def run_op(self, case) -> OpResult:
        oracle = self.oracle
        start = time.perf_counter()
        outcome = oracle.check_case(case, session=self.session, seed=FUZZ_SEED)
        latency = time.perf_counter() - start
        self.outcomes[case.name] = outcome
        kind = oracle.failure_kind(outcome)
        if kind is not None:
            return latency, None, False, f"{case.name}: {kind} {outcome.runtime_error or ''}"
        want = self.expected.get(case.name)
        if outcome.verified != want:
            return latency, None, False, f"{case.name}: verified={outcome.verified}, recorded {want}"
        return latency, None, True, None

    def tally(self, cases: List[Any]) -> Dict[str, int]:
        counts = dict.fromkeys(
            ("verdicts.verified", "verdicts.rejected", "fuzz.exhaustive", "fuzz.sampled",
             "fuzz.leaks_observed", "fuzz.executions"), 0)
        for case in cases:
            outcome = self.outcomes[case.name]
            counts["verdicts.verified" if outcome.verified else "verdicts.rejected"] += 1
            if outcome.empirical_mode is not None:
                counts[f"fuzz.{outcome.empirical_mode}"] += 1
            counts["fuzz.leaks_observed"] += outcome.empirical_secure is False
            counts["fuzz.executions"] += outcome.executions
        return counts

    def close(self) -> None:
        pass


WORKLOADS = {"corpus": Corpus, "fuzz": Fuzz, "daemon": Daemon}
