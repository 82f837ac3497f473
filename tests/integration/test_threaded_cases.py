"""Integration tests for the fork/join case studies (Sec. 5 / App. E)."""

import pytest

from repro.casestudies import (
    THREADED_CASES,
    figure2_forkjoin,
    figure3_forkjoin,
    forkjoin_high_key,
)
from repro.lang import RandomScheduler


class TestVerdicts:
    @pytest.mark.parametrize("case", THREADED_CASES, ids=lambda c: c.name)
    def test_expected_verdict(self, case):
        result = case.verify()
        assert result.verified == case.expected_verified, result.summary()

    def test_high_key_rejection_mentions_leak(self):
        result = forkjoin_high_key.verify()
        assert not result.verified
        assert result.errors


class TestRuntimeBehaviour:
    def test_figure2_forkjoin_counts_targets(self):
        inputs = {"n": 4, "targets": (2, 0, 1, 3), "hcollisions": (0, 5, 1, 2)}
        for seed in range(6):
            result = figure2_forkjoin.run(inputs, scheduler=RandomScheduler(seed))
            assert result.output == (6,)

    def test_figure3_forkjoin_key_set_schedule_independent(self):
        inputs = {"n": 4, "addrs": (1, 2, 1, 3), "reasons": (9, 8, 7, 6)}
        outputs = {
            figure3_forkjoin.run(inputs, scheduler=RandomScheduler(seed)).output
            for seed in range(8)
        }
        assert outputs == {((1, 2, 3),)}

    def test_figure3_forkjoin_values_do_race(self):
        # The map values (reasons) may differ between schedules — only the
        # key set is schedule-independent.  Run with two colliding keys.
        inputs = {"n": 2, "addrs": (5, 5), "reasons": (100, 200)}
        outputs = {
            figure3_forkjoin.run(inputs, scheduler=RandomScheduler(seed)).output
            for seed in range(12)
        }
        assert outputs == {((5,),)}

    def test_high_key_program_actually_leaks(self):
        # The negative control is genuinely insecure: differing secrets give
        # differing public outputs.
        low = {"n": 2}
        out1 = forkjoin_high_key.run({**low, "secrets": (1, 2)}).output
        out2 = forkjoin_high_key.run({**low, "secrets": (3, 4)}).output
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
        from repro.lang.desugar import threaded_equivalent

        structured = threaded_equivalent(case.program())
        structured_output = run(structured, inputs=dict(inputs)).output
        threaded_output = case.run(dict(inputs)).output
        assert structured_output == threaded_output


def _pool_final_outputs(program, inputs):
    """Final outputs of a deduplicated walk over the fork/join pool."""
    from repro.lang import TConfig, tstep

    start = TConfig.make(program, inputs)
    seen, stack, outputs = {start}, [start], set()
    while stack:
        config = stack.pop()
        if config.is_final():
            outputs.add(config.output)
            continue
        steps = tstep(config, program)
        assert steps, "the pool deadlocked"
        for successor in steps:
            assert not successor.aborted()
            if successor.result not in seen:
                seen.add(successor.result)
                stack.append(successor.result)
    return outputs


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
        from repro.lang.desugar import threaded_equivalent

        program = case.program()
        finals = list(
            enumerate_executions(Config(threaded_equivalent(program), State.make(dict(inputs))))
        )
        assert ABORT not in finals
        structured = {final.state.output for final in finals}
        pool = _pool_final_outputs(program, dict(inputs))
        assert pool and pool == structured
