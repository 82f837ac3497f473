"""Integration: the differential oracle, the shrinker, and the campaign.

The load-bearing test here is the injected-unsoundness drill: install a
hook that forces ``verified`` on every mutated case, run a campaign, and
require that the oracle catches the lie, classifies it as a soundness
failure, and the shrinker minimizes the witness program to at most 10
statements with a repro file that still reproduces.  If that drill stops
working, a *real* soundness bug could sail through a fuzz run unnoticed.
"""

import json
import math

import pytest

from repro.fuzz import (
    FuzzConfig,
    check_case,
    emit_repro,
    failure_kind,
    generate_case,
    generate_corpus,
    install_unsound_hook,
    load_repro,
    run_campaign,
    shrink_case,
    statement_count,
)
from repro.fuzz import oracle
from repro.lang.parser import parse_program
from repro.security import all_outputs
from repro.security import noninterference
from repro.security.noninterference import channel_observer, check_noninterference
from repro.smt.session import SolverSession


@pytest.fixture(autouse=True)
def _no_leftover_hook():
    yield
    install_unsound_hook(None)


@pytest.fixture(scope="module")
def session():
    return SolverSession()


def test_small_campaign_is_clean():
    """No soundness failures and no crashes on a fixed-seed campaign
    (the CI smoke job runs the same check at x10)."""
    report = run_campaign(FuzzConfig(seed=0, count=20, shrink=False))
    assert report["ok"], json.dumps(report, indent=2, default=str)[:2000]
    assert report["generated"] == 20
    counters = report["counters"]
    assert counters["verified"] + counters["rejected"] == 20
    # both empirical modes and both verdicts must actually occur
    assert counters["exhaustive"] > 0 or counters["sampled"] > 0
    assert counters["rejected"] > 0
    assert counters["leaks_observed"] > 0


def test_mutants_leak_and_are_rejected(session):
    """Across a fixed window, at least one mutant is both rejected by the
    verifier and observed leaking empirically — the oracle's two sides
    agree on real insecurity, not just on silence."""
    hits = 0
    for index in range(40):
        case = generate_case(1, index)
        if case.mutation is None:
            continue
        outcome = check_case(case, session=session, schedules=6)
        assert failure_kind(outcome) is None, (case.name, outcome)
        if not outcome.verified and outcome.empirical_secure is False:
            hits += 1
            if outcome.leak_bits is not None:
                assert outcome.leak_bits >= 0.0
    assert hits > 0


def test_injected_unsoundness_is_caught_and_shrunk(tmp_path, session):
    """The acceptance drill: force-verify mutants, catch the soundness
    failure, shrink to ≤10 statements, and round-trip the repro file."""
    install_unsound_hook(lambda case: case.mutation is not None)
    caught = None
    for index in range(30):
        case = generate_case(3, index)
        if case.mutation is None:
            continue
        outcome = check_case(case, session=session, schedules=8)
        if outcome.soundness_failure:
            caught = outcome
            break
    assert caught is not None, "no injected soundness failure caught in 30 cases"

    def still_fails(candidate):
        probe = check_case(candidate, session=session, schedules=8)
        return failure_kind(probe) == "soundness"

    shrunk = shrink_case(caught.case, still_fails)
    assert statement_count(shrunk.program) <= 10
    assert statement_count(shrunk.program) <= statement_count(caught.case.program)

    path = tmp_path / f"{shrunk.name}.prog"
    emit_repro(shrunk, "soundness", path)
    loaded, recorded_kind = load_repro(path)
    assert recorded_kind == "soundness"
    assert loaded.program == shrunk.program
    assert loaded.groups == shrunk.groups
    replayed = check_case(loaded, session=session, schedules=8)
    assert failure_kind(replayed) == "soundness"


def test_campaign_reports_and_shrinks_injected_failures(tmp_path):
    """End to end through run_campaign: the report flags the campaign as
    failed, carries shrunk statement counts, and writes repro files."""
    install_unsound_hook(lambda case: case.mutation is not None)
    report = run_campaign(
        FuzzConfig(seed=3, count=8, shrink=True, repro_dir=str(tmp_path))
    )
    assert not report["ok"]
    assert report["soundness_failures"]
    for entry in report["soundness_failures"]:
        assert entry["shrunk_statements"] <= entry["statements"]
        loaded, kind = load_repro(entry["repro"])
        assert kind == "soundness"


def test_budget_stops_generation():
    report = run_campaign(FuzzConfig(seed=0, count=10_000, budget=3.0, shrink=False))
    assert report["budget_exhausted"]
    assert report["generated"] < 10_000


def test_oracle_outcome_fields_are_coherent(session):
    for index in range(10):
        outcome = check_case(generate_case(5, index), session=session, schedules=5)
        if outcome.runtime_error is None:
            assert outcome.empirical_secure is not None
            assert outcome.empirical_mode in ("exhaustive", "sampled")
            assert outcome.executions > 0
        if outcome.witness is None:
            assert outcome.empirical_secure is not False


@pytest.mark.parametrize("index", [0, 1], ids=["leaky", "secure"])
def test_sampled_fallback_agrees_with_exhaustive(session, monkeypatch, index):
    """A budget of one explored state forces the random-schedule fallback;
    it must reach the same empirical verdict as the exhaustive explorer
    (case 0 of this seed leaks, case 1 is secure)."""
    case = generate_case(20240808, index)
    exhaustive = check_case(case, session=session)
    monkeypatch.setattr(noninterference, "STATE_BUDGET", 1)
    sampled = check_case(case, session=session)
    assert exhaustive.empirical_mode == "exhaustive"
    assert sampled.empirical_mode == "sampled"
    assert sampled.empirical_secure == exhaustive.empirical_secure
    assert exhaustive.empirical_secure is (index == 1)


def test_divergent_program_is_a_runtime_error(session):
    """The explorer's visited set must not swallow a loop that revisits
    its own state: the oracle reports it, never calls it secure."""
    case = generate_case(20240808, 1).with_program(parse_program("print(0)\nwhile (true) { skip }"))
    outcome = check_case(case, session=session)
    assert outcome.empirical_secure is None
    assert "max_steps" in outcome.runtime_error
    assert failure_kind(outcome) == "runtime-error"


def test_deadlocked_variant_is_a_runtime_error_not_a_pass(session):
    """A variant with no terminating execution has nothing to compare:
    the exhaustive leg raises, as a deadlocked ``run`` does."""
    program = parse_program("x := 0\nprint(h)\n{ atomic when (x == 1) { y := 1 } } || { skip }")
    with pytest.raises(RuntimeError, match="deadlock"):
        check_noninterference(program, [[{"h": 0}, {"h": 1}]], observe=channel_observer(None))
    outcome = check_case(generate_case(20240808, 1).with_program(program), session=session)
    assert outcome.empirical_secure is None
    assert "deadlock" in outcome.runtime_error
    assert failure_kind(outcome) == "runtime-error"


def test_exhaustive_leak_bits_come_from_the_explored_sets(session, monkeypatch):
    """In exhaustive mode the leak is sized from the exploration itself
    (log2 of the distinct per-variant observation sets in the witness's
    group); the sampled mutual-information estimate is never run."""

    def forbidden(*args, **kwargs):
        raise AssertionError("mutual_information ran in exhaustive mode")

    monkeypatch.setattr(oracle, "mutual_information", forbidden)
    case = generate_case(20240808, 0)
    outcome = check_case(case, session=session)
    assert outcome.empirical_mode == "exhaustive" and outcome.empirical_secure is False
    observe = channel_observer(None)
    group = next(
        variants
        for variants in case.instances()
        if not check_noninterference(case.program, [variants], observe=observe).secure
    )
    per_variant = {frozenset(all_outputs(case.program, inputs)) for inputs in group}
    assert outcome.leak_bits == math.log2(len(per_variant))
