"""The full case-study corpus and the first cases of the fixed-seed fuzz
campaign, discharged on a fresh per-run session and on warm shared
solver sessions in shuffled orders, must agree verdict-for-verdict —
the integration leg of the session differential harness.  Every
solver-side leg runs under a fresh validity cache, so the session
really solves instead of replaying cached answers."""

import random

import pytest

from repro import api
from repro.casestudies import ALL_CASES
from repro.fuzz.gen import generate_case
from repro.smt import clear_all_caches
from repro.smt.cache import ValidityCache, using_cache
from repro.smt.session import SolverSession
from repro.verifier.frontend import verify

#: The fuzz campaign seed CI runs, and how many of its cases to replay.
FUZZ_SEED = 20240808
FUZZ_CASES = 12


def _observe(result):
    """The comparable surface of a VerificationResult."""
    return (
        result.verified,
        result.errors,
        tuple(sorted(result.symbolic_conformance)),
        {name: report.valid for name, report in result.validity_reports.items()},
    )


def _verify_fresh(case, session=None):
    """One run under a fresh validity cache: on its own per-run session,
    or on ``session`` when given."""
    with using_cache(ValidityCache()):
        return case.verify(session=session)


def _verdict(case, session=None):
    return api.verdict_from_result(
        _verify_fresh(case, session), expected=case.expected_verified
    ).observable()


@pytest.fixture(scope="module")
def warm_session():
    """One session shared by every case of the module, in test order."""
    return SolverSession()


@pytest.fixture(scope="module")
def fresh_verdicts():
    return {case.name: _verdict(case) for case in ALL_CASES}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_fresh_and_session_verdicts_agree(case, warm_session):
    fresh = _verify_fresh(case)
    shared = _verify_fresh(case, session=warm_session)
    assert _observe(fresh) == _observe(shared)
    assert fresh.verified == case.expected_verified


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verdicts_are_independent_of_session_history(seed, fresh_verdicts):
    """Replaying the whole corpus in a shuffled order on one warm session
    gives every case its fresh verdict: no case's answer depends on what
    the session solved before it."""
    cases = list(ALL_CASES)
    random.Random(seed).shuffle(cases)
    session = SolverSession()
    for case in cases:
        assert _verdict(case, session) == fresh_verdicts[case.name], case.name
    assert session.stats()["queries"] > 0


def test_verdicts_survive_a_session_respawn(fresh_verdicts):
    """Replacing the warm session halfway through the corpus changes no
    verdict."""
    cases = list(ALL_CASES)
    random.Random(3).shuffle(cases)
    half = len(cases) // 2
    for chunk in (cases[:half], cases[half:]):
        session = SolverSession()
        for case in chunk:
            assert _verdict(case, session) == fresh_verdicts[case.name], case.name
        assert session.stats()["queries"] > 0


def _fuzz_observe(case, session=None):
    """A fuzz case's observable verdict and symbolic conformance, under a
    fresh validity cache, on its own per-run session or on ``session``."""
    with using_cache(ValidityCache()):
        result = verify(
            case.program_spec(), bounded_instances=case.instances, session=session
        )
    verdict = api.verdict_from_result(result).observable()
    return verdict, tuple(sorted(result.symbolic_conformance))


@pytest.fixture(scope="module")
def fuzz_cases():
    return [generate_case(FUZZ_SEED, index) for index in range(FUZZ_CASES)]


@pytest.fixture(scope="module")
def fresh_fuzz_verdicts(fuzz_cases):
    return {case.name: _fuzz_observe(case) for case in fuzz_cases}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_verdicts_are_independent_of_session_history(
    seed, fuzz_cases, fresh_fuzz_verdicts
):
    """The generated programs leave the catalogue's shapes; replaying them
    in a shuffled order on one shared session must still give each its
    fresh verdict and the same symbolic conformance results."""
    cases = list(fuzz_cases)
    random.Random(seed).shuffle(cases)
    session = SolverSession()
    for case in cases:
        assert _fuzz_observe(case, session) == fresh_fuzz_verdicts[case.name], case.name
    assert session.stats()["queries"] > 0


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_api_facade_verdicts_match_fresh_verify(case):
    """The ``repro.api`` leg of the differential harness: executing a
    case request through the facade (what the daemon, CLI and client all
    do) must produce the same observable verdict as a fresh in-process
    :meth:`CaseStudy.verify` run."""
    fresh = api.verdict_from_result(
        _verify_fresh(case), expected=case.expected_verified
    )
    clear_all_caches()
    routed = api.execute(api.VerificationRequest(case=case.name))
    assert routed.observable() == fresh.observable()
    assert routed.ok == fresh.ok
    # and the wire encoding is lossless on the observable surface
    assert api.Verdict.from_wire(routed.to_wire()).observable() == routed.observable()
