"""Integration: the full Table-1 evaluation, positive and negative."""

import pytest

from repro import api
from repro.casestudies import EXTRA_SECURE_CASES, INSECURE_CASES, TABLE1_CASES, case_by_name
from repro.smt import clear_all_caches
from repro.smt.session import SolverSession
from repro.verifier import TaintAnalyzer, check_conformance


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_table1_case_verifies(case):
    result = case.verify()
    assert result.verified, result.summary()


@pytest.mark.parametrize("case", EXTRA_SECURE_CASES, ids=lambda c: c.name)
def test_extra_secure_case_verifies(case):
    result = case.verify()
    assert result.verified, result.summary()


def test_sequential_tally_discharges_its_block_symbolically():
    # Single-threaded, yet it takes the same pipeline as every other case:
    # its Add block is discharged by the solver like the other counters.
    result = case_by_name("Sequential-Tally").verify()
    assert result.verified, result.summary()
    assert result.symbolic_conformance == (("Add", "bounded"),)


def test_sequential_tally_needs_the_solver():
    # No accept-only shortcut stands in front of stages 3-4: a request
    # for the case reaches the solver like any other (on a cold cache).
    clear_all_caches()
    session = SolverSession()
    verdict = api.execute(api.VerificationRequest(case="Sequential-Tally"), session=session)
    assert verdict.verified
    assert session.stats()["queries"] > 0


@pytest.mark.parametrize("case", INSECURE_CASES, ids=lambda c: c.name)
def test_insecure_case_rejected(case):
    result = case.verify()
    assert not result.verified, f"{case.name} must be rejected"
    assert result.errors


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_table1_conformance_exercised(case):
    """Every annotated atomic block must be checked against its action —
    symbolically (VC + solver) or by semantic sampling on at least one
    well-typed sample."""
    result = case.verify()
    assert result.conformance_reports or result.symbolic_conformance
    for report in result.conformance_reports:
        assert report.samples_checked > 0, report
    for action, verdict in result.symbolic_conformance:
        assert verdict in ("proved", "bounded"), (action, verdict)


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_table1_sampling_only_mode_agrees(case):
    """Semantic sampling, the fallback for blocks outside the symbolic
    fragment, accepts every annotated block of every Table-1 case."""
    spec = case.program_spec()
    blocks = TaintAnalyzer(spec).analyze().atomic_blocks
    assert blocks
    for atomic in blocks:
        report = check_conformance(spec.resource_by_action(atomic.action), atomic)
        assert report.ok, report


def test_all_18_rows_present():
    assert len(TABLE1_CASES) == 18
    names = [case.name for case in TABLE1_CASES]
    assert names[0] == "Count-Vaccinated"
    assert names[-1] == "2-Producers-2-Consumers"


def test_paper_rows_attached():
    for case in TABLE1_CASES:
        assert case.paper is not None
        assert case.paper.loc > 0
        assert case.paper.time_seconds > 0


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_rejection_reasons_are_specific(case):
    """Sanity: verified cases produce empty error lists, and the obligations
    that exist are all discharged."""
    result = case.verify()
    assert result.errors == ()
    for obligation in result.obligations:
        assert obligation.discharged, str(obligation)


class TestRejectionReasons:
    """Each negative control must fail at the *intended* pipeline stage."""

    def _errors(self, name):
        from repro.casestudies import case_by_name

        return case_by_name(name).verify().errors

    def test_invalid_spec_stage(self):
        errors = self._errors("Figure 1 (leaky)")
        assert any("invalid specification" in e for e in errors)

    def test_taint_stage_abstraction(self):
        errors = self._errors("Figure 1 (abstraction leak)")
        assert any("abstract" in e for e in errors)

    def test_taint_stage_values(self):
        errors = self._errors("Figure 3 (value leak)")
        assert any("taint high" in e for e in errors)

    def test_bounded_refutation_stage(self):
        errors = self._errors("Figure 3 (high key)")
        assert any("refuted by bounded checking" in e for e in errors)

    def test_guard_discipline_stage(self):
        errors = self._errors("Sales-By-Region (guard split)")
        assert any("cannot be split" in e for e in errors)

    def test_count_channel_stage(self):
        errors = self._errors("Count-Channel")
        assert any("refuted by bounded checking" in e for e in errors)
