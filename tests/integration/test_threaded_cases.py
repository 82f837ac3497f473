"""Integration tests for the fork/join case studies (Sec. 5 / App. E)."""

import pathlib
import subprocess
import sys

import pytest

from repro import api
from repro.casestudies import (
    ALL_CASES,
    THREADED_CASES,
    case_by_name,
    figure2_forkjoin,
    figure3_forkjoin,
    forkjoin_high_key,
)
from repro.lang import RandomScheduler, enumerate_threaded_executions, run_threads
from repro.lang.parser import parse_threaded_program

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _run(case, inputs, scheduler=None):
    """Run ``case`` on the dynamic thread pool."""
    return run_threads(parse_threaded_program(case.source), inputs=inputs, scheduler=scheduler)


class TestVerdicts:
    @pytest.mark.parametrize("case", THREADED_CASES, ids=lambda c: c.name)
    def test_expected_verdict(self, case):
        result = case.verify()
        assert result.verified == case.expected_verified, result.summary()

    def test_high_key_rejection_mentions_leak(self):
        result = forkjoin_high_key.verify()
        assert not result.verified
        assert result.errors


class TestCatalogueLookup:
    """The fork/join cases are found by name everywhere a case is, yet
    stay out of the 29-case sweep."""

    @pytest.mark.parametrize("case", THREADED_CASES, ids=lambda c: c.name)
    def test_case_by_name_resolves(self, case):
        assert case_by_name(case.name) is case

    @pytest.mark.parametrize("case", THREADED_CASES, ids=lambda c: c.name)
    def test_api_execute_by_name(self, case):
        verdict = api.execute(api.VerificationRequest(case=case.name))
        assert verdict.verified == case.expected_verified
        assert verdict.ok

    def test_kept_out_of_all_cases(self):
        assert len(ALL_CASES) == 29
        assert {case.name for case in THREADED_CASES}.isdisjoint(case.name for case in ALL_CASES)

    def test_cli_verifies_by_name(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", figure3_forkjoin.name],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert f"{figure3_forkjoin.name}: VERIFIED" in result.stdout


class TestRuntimeBehaviour:
    def test_figure2_forkjoin_counts_targets(self):
        inputs = {"n": 4, "targets": (2, 0, 1, 3), "hcollisions": (0, 5, 1, 2)}
        for seed in range(6):
            result = _run(figure2_forkjoin, inputs, RandomScheduler(seed))
            assert result.output == (6,)

    def test_figure3_forkjoin_key_set_schedule_independent(self):
        inputs = {"n": 4, "addrs": (1, 2, 1, 3), "reasons": (9, 8, 7, 6)}
        outputs = {
            _run(figure3_forkjoin, inputs, RandomScheduler(seed)).output
            for seed in range(8)
        }
        assert outputs == {((1, 2, 3),)}

    def test_figure3_forkjoin_values_do_race(self):
        # The map values (reasons) may differ between schedules — only the
        # key set is schedule-independent.  Run with two colliding keys.
        inputs = {"n": 2, "addrs": (5, 5), "reasons": (100, 200)}
        outputs = {
            _run(figure3_forkjoin, inputs, RandomScheduler(seed)).output
            for seed in range(12)
        }
        assert outputs == {((5,),)}

    def test_high_key_program_actually_leaks(self):
        # The negative control is genuinely insecure: differing secrets give
        # differing public outputs.
        low = {"n": 2}
        out1 = _run(forkjoin_high_key, {**low, "secrets": (1, 2)}).output
        out2 = _run(forkjoin_high_key, {**low, "secrets": (3, 4)}).output
        assert out1 != out2


class TestDesugaredEquivalence:
    """The desugared structured program and the thread machine agree."""

    @pytest.mark.parametrize(
        "case,inputs",
        [
            (figure2_forkjoin, {"n": 2, "targets": (2, 3), "hcollisions": (1, 0)}),
            (figure3_forkjoin, {"n": 2, "addrs": (1, 2), "reasons": (7, 8)}),
        ],
        ids=lambda value: getattr(value, "name", "inputs"),
    )
    def test_final_outputs_agree(self, case, inputs):
        from repro.lang import run

        structured_output = run(case.program(), inputs=dict(inputs)).output
        threaded_output = _run(case, dict(inputs)).output
        assert structured_output == threaded_output


class TestPoolMatchesDesugaring:
    """On the catalogue's own fork/join programs, every final output the
    thread pool reaches is one the desugared structured program reaches,
    and vice versa."""

    @pytest.mark.parametrize(
        "case,inputs",
        [
            (figure3_forkjoin, {"n": 2, "addrs": (1, 2), "reasons": (7, 8)}),
            (figure3_forkjoin, {"n": 2, "addrs": (5, 5), "reasons": (100, 200)}),
            (figure2_forkjoin, {"n": 2, "targets": (2, 3), "hcollisions": (1, 0)}),
            (forkjoin_high_key, {"n": 2, "secrets": (1, 2)}),
            (forkjoin_high_key, {"n": 2, "secrets": (3, 3)}),
        ],
        ids=["figure3", "figure3-colliding", "figure2", "high-key", "high-key-equal"],
    )
    def test_same_final_outputs(self, case, inputs):
        from repro.lang import ABORT, Config, State, enumerate_executions

        finals = list(enumerate_executions(Config(case.program(), State.make(dict(inputs)))))
        assert ABORT not in finals
        structured = {final.state.output for final in finals}
        outcomes = list(
            enumerate_threaded_executions(parse_threaded_program(case.source), dict(inputs))
        )
        assert ABORT not in outcomes and "deadlock" not in outcomes
        pool = {final.output for final in outcomes}
        assert pool and pool == structured


class TestPoolExplorer:
    def test_each_distinct_outcome_is_yielded_once(self):
        # Every interleaving of the two workers ends in the same final
        # configuration; without a visited set each would be yielded anew.
        program = parse_threaded_program(forkjoin_high_key.source)
        outcomes = list(
            enumerate_threaded_executions(
                program, {"n": 2, "secrets": (1, 2)}, max_executions=10
            )
        )
        assert len(outcomes) == 1
