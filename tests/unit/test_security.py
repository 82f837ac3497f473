"""Unit tests for the empirical non-interference and leakage modules."""

import math

import pytest

from repro.lang.interpreter import run
from repro.lang.parser import parse_program
from repro.lang.scheduler import FixedScheduler
from repro.security import noninterference
from repro.security import (
    all_outputs,
    check_exhaustive,
    check_noninterference,
    check_sampled,
    mutual_information,
    threshold_leak,
)

# The smallest internal-timing-channel program: which thread writes last
# depends on the high-bounded loop.
RACY = parse_program(
    """
t2 := 0
{ s := 3 } || { while (t2 < h) { t2 := t2 + 1 }; s := 4 }
print(s)
"""
)

# The commuting repair: both threads add, the result is schedule-independent.
COMMUTING = parse_program(
    """
t2 := 0
s := 0
{ s1 := 3 } || { while (t2 < h) { t2 := t2 + 1 }; s2 := 4 }
print(s1 + s2)
"""
)


class TestAllOutputs:
    def test_deterministic_program(self):
        program = parse_program("print(1 + 1)")
        assert all_outputs(program, {}) == frozenset({(2,)})

    def test_racy_program_has_multiple_outputs(self):
        assert len(all_outputs(RACY, {"h": 1})) == 2

    def test_aborting_program_raises(self):
        program = parse_program("x := [p]")
        with pytest.raises(RuntimeError):
            all_outputs(program, {"p": 3})


class TestExhaustive:
    def test_racy_program_insecure(self):
        report = check_exhaustive(RACY, [{"h": 0}, {"h": 2}])
        assert not report.secure
        assert report.witness is not None

    def test_commuting_program_secure(self):
        report = check_exhaustive(COMMUTING, [{"h": 0}, {"h": 2}])
        assert report.secure

    def test_single_variant_scheduler_nondeterminism_detected(self):
        # even with one input, schedule-dependent output is a violation
        report = check_exhaustive(RACY, [{"h": 1}])
        assert not report.secure


# Every schedule deadlocks: the guard waits for an x that is never 1.
DEADLOCKED = parse_program(
    "x := 0\nprint(h)\n{ atomic when (x == 1) { y := 1 } } || { skip }"
)

# Some schedules deadlock (x := 1 runs before the guarded block), others
# finish.
PARTIAL_DEADLOCK = parse_program(
    "x := 0\nprint(1)\n{ atomic when (x == 0) { y := 1 } } || { x := 1 }"
)


class TestDeadlock:
    def test_no_terminating_execution_raises_instead_of_passing(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            check_exhaustive(DEADLOCKED, [{"h": 0}, {"h": 1}])
        with pytest.raises(RuntimeError, match="deadlock"):
            check_sampled(DEADLOCKED, [{"h": 0}, {"h": 1}])

    def test_partial_deadlock_judges_the_terminating_executions(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            run(PARTIAL_DEADLOCK, {"h": 0}, scheduler=FixedScheduler([1] * 8))
        report = check_exhaustive(PARTIAL_DEADLOCK, [{"h": 0}, {"h": 1}])
        assert report.secure
        assert report.executions_checked == 2


class TestSampled:
    def test_racy_program_detected(self):
        # FIG1's symmetric busy loops make the round-robin outcome flip with
        # the secret, so sampling catches the channel immediately.
        report = check_sampled(FIG1, [{"h": 0}, {"h": 200}], schedules=10)
        assert not report.secure
        assert "inputs" in str(report.witness)

    def test_commuting_program_passes(self):
        report = check_sampled(COMMUTING, [{"h": 0}, {"h": 200}], schedules=10)
        assert report.secure

    def test_check_noninterference_over_groups(self):
        report = check_noninterference(COMMUTING, [[{"h": 0}, {"h": 5}], [{"h": 1}, {"h": 9}]])
        assert report.secure
        assert report.executions_checked > 0


class TestCheckNoninterference:
    """The one Def. 2.1 checker: exhaustive within the state budget,
    sampled beyond it."""

    GROUPS = [[{"h": 0}, {"h": 2}], [{"h": 1}, {"h": 3}]]

    # Every schedule prints the secret: sampling finds it too.
    DIRECT = parse_program("{ x := h } || { skip }\nprint(x)")

    @pytest.mark.parametrize("program", [DIRECT, COMMUTING], ids=["direct", "commuting"])
    def test_over_budget_falls_back_to_sampling_with_the_same_verdict(
        self, monkeypatch, program
    ):
        exhaustive = check_noninterference(program, self.GROUPS)
        monkeypatch.setattr(noninterference, "STATE_BUDGET", 1)
        sampled = check_noninterference(program, self.GROUPS)
        assert exhaustive.mode == "exhaustive"
        assert sampled.mode == "sampled"
        assert sampled.secure == exhaustive.secure
        assert sampled.leak_bits is None

    def test_unbounded_ignores_the_budget(self, monkeypatch):
        monkeypatch.setattr(noninterference, "STATE_BUDGET", 1)
        report = check_noninterference(COMMUTING, self.GROUPS, max_states=None)
        assert report.mode == "exhaustive" and report.secure

    @pytest.mark.parametrize("program", [DIRECT, RACY], ids=["direct", "racy"])
    def test_exhaustive_refutation_sizes_the_leak(self, program):
        # DIRECT: three distinct observation sets (log2 3 bits); RACY: one
        # set for every secret, a pure scheduler channel (0 bits).
        variants = [{"h": 0}, {"h": 1}, {"h": 2}]
        report = check_noninterference(program, [variants])
        assert report.mode == "exhaustive" and not report.secure
        per_variant = {frozenset(all_outputs(program, inputs)) for inputs in variants}
        assert report.leak_bits == math.log2(len(per_variant))

    def test_secure_report_has_no_leak_bits(self):
        report = check_noninterference(COMMUTING, self.GROUPS)
        assert report.secure and report.leak_bits is None

    def test_executions_are_summed_up_to_the_refuting_group(self):
        first, second = (check_noninterference(COMMUTING, [group]) for group in self.GROUPS)
        both = check_noninterference(COMMUTING, self.GROUPS)
        assert both.executions_checked == first.executions_checked + second.executions_checked
        refuted = check_noninterference(RACY, [[{"h": 1}], [{"h": 0}, {"h": 2}]])
        assert refuted.executions_checked == check_exhaustive(RACY, [{"h": 1}]).executions_checked

    def test_deadlocked_variant_raises(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            check_noninterference(DEADLOCKED, [[{"h": 0}, {"h": 1}]])

    def test_instances_are_materialized_once(self):
        # A one-shot iterator still reaches the sampled rerun.
        groups = iter([iter([{"h": 0}, {"h": 5}])])
        report = check_noninterference(COMMUTING, groups, max_states=1)
        assert report.mode == "sampled" and report.secure
        assert report.executions_checked > 0


FIG1 = parse_program(
    """
t1 := 0
t2 := 0
{ while (t1 < 100) { t1 := t1 + 1 }; s := 3 } || { while (t2 < h) { t2 := t2 + 1 }; s := 4 }
print(s)
"""
)


class TestLeakage:
    def test_fig1_round_robin_threshold(self):
        result = threshold_leak(FIG1, "h", [0, 50, 150, 200])
        assert result.distinguishes
        # the paper: the deterministic scheduler reveals whether h > 100
        assert result.boundary is not None

    def test_commuting_variant_no_threshold(self):
        result = threshold_leak(COMMUTING, "h", [0, 50, 150, 200])
        assert not result.distinguishes

    def test_fig1_positive_mutual_information(self):
        bits = mutual_information(FIG1, "h", [0, 200], runs_per_value=10)
        assert bits > 0.5  # h=0 vs h=200 nearly fully distinguishable

    def test_commuting_variant_zero_mutual_information(self):
        bits = mutual_information(COMMUTING, "h", [0, 200], runs_per_value=10)
        assert bits == 0.0
