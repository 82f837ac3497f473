"""Stage 4 of ``verify()``: exhaustive by default, sampled beyond the budget.

Retroactive obligations are discharged by exploring every reachable final
state of each bounded instance when the reduced state space fits
``noninterference.STATE_BUDGET``; only beyond it does ``verify`` fall back
to sampled schedules.  The obligation's ``method`` (and a refutation's
witness) names the mode that decided.  Instances that yield nothing to
check discharge nothing.
"""

import json

import pytest

from repro import api
from repro.casestudies import ALL_CASES, case_by_name
from repro.security import noninterference
from repro.verifier.analysis import TaintAnalyzer
from repro.verifier.frontend import verify

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
    monkeypatch.setattr(noninterference, "STATE_BUDGET", 3)
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


# -- instances with nothing to check -------------------------------------

HIGH_KEY = case_by_name("Figure 3 (high key)")  # expected REJECTED


def _no_instances_errors() -> tuple:
    """What ``verify`` says when no bounded instances are supplied."""
    result = verify(HIGH_KEY.program_spec(), bounded_instances=None)
    assert "no bounded instances supplied" in result.errors[0]
    return result.errors


def _high_key_request(instances) -> api.VerificationRequest:
    return api.VerificationRequest(
        program=HIGH_KEY.source,
        name=HIGH_KEY.name,
        resources=(
            api.ResourceRequest(
                name="MapKeySet", spec="MapKeySet", location_var="m", low_views=("keys",)
            ),
        ),
        low_inputs=HIGH_KEY.low_inputs,
        high_inputs=HIGH_KEY.high_inputs,
        instances=instances,
    )


@pytest.mark.parametrize("groups", [[], [[]]], ids=["no-groups", "empty-group"])
def test_zero_executions_discharge_nothing(groups):
    result = verify(HIGH_KEY.program_spec(), bounded_instances=lambda: groups)
    assert not result.verified
    assert result.errors == _no_instances_errors()
    assert not any(obligation.discharged for obligation in result.obligations)


@pytest.mark.parametrize(
    "instances", [(), (({"n": 2}, ()),)], ids=["no-groups", "empty-group"]
)
def test_zero_executions_are_rejected_over_the_wire(instances):
    wire = json.loads(json.dumps(_high_key_request(instances).to_wire()))
    verdict = api.execute(api.VerificationRequest.from_wire(wire))
    assert not verdict.verified
    assert verdict.errors == _no_instances_errors()


def test_wire_decoded_sequence_inputs_reach_the_catalogue_verdict():
    # JSON turns the tuple-valued ``hkeys`` inputs into arrays; decoded,
    # they must be language sequences again for the explorer to hash.
    groups = tuple(
        ({"n": 2}, tuple({"hkeys": variant["hkeys"]} for variant in group))
        for group in HIGH_KEY.instances()
    )
    wire = json.loads(json.dumps(_high_key_request(groups).to_wire()))
    request = api.VerificationRequest.from_wire(wire)
    verdict = api.execute(request)
    assert verdict.verified is HIGH_KEY.expected_verified is False
    assert "(exhaustive enumeration)" in verdict.errors[0]
    assert request.instances == groups
