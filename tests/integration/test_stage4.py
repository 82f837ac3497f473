"""Stage 4 of ``verify()``: exhaustive by default, sampled beyond the budget.

Retroactive obligations are discharged by exploring every reachable final
state of each bounded instance when the reduced state space fits
``frontend.STAGE4_STATE_BUDGET``; only beyond it does ``verify`` fall back
to sampled schedules.  The obligation's ``method`` (and a refutation's
witness) names the mode that decided.
"""

import pytest

from repro.casestudies import ALL_CASES, case_by_name
from repro.verifier import frontend
from repro.verifier.analysis import TaintAnalyzer

def test_every_stage4_corpus_case_is_decided_exhaustively():
    # The corpus cases whose static analysis defers retroactive obligations.
    stage4_cases = [
        case for case in ALL_CASES if TaintAnalyzer(case.program_spec()).analyze().obligations
    ]
    assert len(stage4_cases) == 10
    discharged = []
    for case in stage4_cases:
        result = case.verify()
        if result.ni_report is None:  # rejected before stage 4
            assert not result.verified and result.errors
            continue
        if result.verified:
            assert all(
                "discharged by exhaustive interleaving check" in str(obligation)
                for obligation in result.obligations
            )
            discharged.append(case.name)
        else:
            assert "(exhaustive enumeration)" in result.errors[0]
    assert sorted(discharged) == sorted(
        [
            "1-Producer-1-Consumer",
            "2-Producers-2-Consumers",
            "Pipeline",
            "Sales-By-Region",
            "Value-Dependent-Sensitivity",
        ]
    )


@pytest.mark.parametrize("name", ["1-Producer-1-Consumer", "Count-Channel"])
def test_over_budget_falls_back_to_sampled_schedules(monkeypatch, name):
    case = case_by_name(name)
    exhaustive = case.verify()
    monkeypatch.setattr(frontend, "STAGE4_STATE_BUDGET", 3)
    sampled = case.verify()
    assert sampled.verified == exhaustive.verified
    assert sampled.ni_report is not None
    if sampled.verified:
        assert all(
            "discharged by sampled schedules" in str(obligation)
            for obligation in sampled.obligations
        )
    else:
        assert "(sampled schedules" in sampled.errors[0]
        assert "(exhaustive enumeration)" in exhaustive.errors[0]


def test_exhaustive_discharge_ignores_the_budget(monkeypatch):
    monkeypatch.setattr(frontend, "STAGE4_STATE_BUDGET", 3)
    result = case_by_name("1-Producer-1-Consumer").verify(exhaustive_discharge=True)
    assert result.verified
    assert all(
        "discharged by exhaustive interleaving check" in str(obligation)
        for obligation in result.obligations
    )
