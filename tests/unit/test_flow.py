"""Unit tests for the PC-taint flow analysis (repro.analysis.flow)."""

import pytest

from repro import api
from repro.analysis import analyze_flow, analyze_spec_flow, run_prepass
from repro.casestudies import ALL_CASES, case_by_name
from repro.lang import parse_program


def _flow(source, low=(), high=(), observable=None):
    return analyze_flow(
        parse_program(source), low_inputs=low, high_inputs=high, observable=observable
    )


class TestSecurePrograms:
    def test_all_low_straight_line_is_secure(self):
        report = _flow("x := a + 1\nprint(x)", low=("a",))
        assert report.secure
        assert report.findings == ()
        assert report.reasons == ()

    def test_unused_secret_is_secure(self):
        report = _flow("x := a\nnote := h + 1\nprint(x)", low=("a",), high=("h",))
        assert report.secure

    def test_low_branching_is_secure(self):
        report = _flow(
            "if (a < 3) { x := 1 } else { x := 2 }\nprint(x)", low=("a",), high=("h",)
        )
        assert report.secure

    def test_low_loop_is_secure(self):
        report = _flow(
            "i := 0\ns := 0\nwhile (i < n) { s := s + i\ni := i + 1 }\nprint(s)",
            low=("n",),
            high=("h",),
        )
        assert report.secure

    def test_sequential_heap_program_is_secure(self):
        report = _flow(
            "c := alloc(0)\nt := [c]\n[c] := t + a\nresult := [c]\nprint(result)",
            low=("a",),
            high=("h",),
        )
        assert report.secure

    def test_noninterfering_par_is_secure(self):
        # Disjoint variable footprints, no output inside ||.
        report = _flow(
            "{ x := a + 1 } || { y := b + 2 }\nprint(x + y)",
            low=("a", "b"),
            high=("h",),
        )
        assert report.secure

    def test_secret_overwritten_before_output_is_secure(self):
        # Flow-sensitivity: the high value is dead at the print.
        report = _flow("x := h\nx := 1\nprint(x)", high=("h",))
        assert report.secure

    def test_unobservable_channel_print_is_exempt(self):
        report = analyze_flow(
            parse_program("print(h, debug)"),
            high_inputs=("h",),
            observable=lambda channel: channel == "stdout",
        )
        assert report.secure


class TestLeaks:
    def test_explicit_flow_is_f001(self):
        report = _flow("print(h)", high=("h",))
        assert not report.secure
        assert [d.code for d in report.findings] == ["F001"]

    def test_explicit_flow_through_arithmetic(self):
        report = _flow("x := h + 1\ny := x * 2\nprint(y)", high=("h",))
        assert [d.code for d in report.findings] == ["F001"]

    def test_implicit_flow_is_f002(self):
        report = _flow(
            "if (h < 0) { print(1) } else { print(2) }", high=("h",)
        )
        assert not report.secure
        assert {d.code for d in report.findings} == {"F002"}

    def test_assignment_under_high_branch_taints_target(self):
        report = _flow(
            "x := 0\nif (h < 0) { x := 1 } else { skip }\nprint(x)", high=("h",)
        )
        assert [d.code for d in report.findings] == ["F001"]

    def test_heap_carries_taint(self):
        report = _flow(
            "c := alloc(0)\n[c] := h\nt := [c]\nprint(t)", high=("h",)
        )
        assert [d.code for d in report.findings] == ["F001"]

    def test_loop_fixpoint_propagates_taint(self):
        # The taint only reaches `x` on the second abstract iteration.
        report = _flow(
            "x := 0\ny := 0\ni := 0\n"
            "while (i < n) { x := y\ny := h\ni := i + 1 }\n"
            "print(x)",
            low=("n",),
            high=("h",),
        )
        assert [d.code for d in report.findings] == ["F001"]

    def test_findings_cite_positions(self):
        (finding,) = _flow("print(h)", high=("h",)).findings
        assert finding.line is not None
        assert finding.severity == "error"


class TestBailouts:
    def _reasons(self, source, **kwargs):
        report = _flow(source, **kwargs)
        assert not report.secure
        assert report.reasons
        return " ".join(report.reasons)

    def test_interfering_par_bails(self):
        reasons = self._reasons("{ x := 1 } || { y := x }", low=("a",))
        assert "interfere" in reasons

    def test_parallel_heap_writes_bail_even_when_atomic(self):
        reasons = self._reasons(
            "c := alloc(0)\n"
            "{ atomic { t1 := [c]; [c] := t1 + 1 } } || "
            "{ atomic { t2 := [c]; [c] := t2 + 1 } }",
        )
        assert "heap cell" in reasons

    def test_observable_print_inside_par_bails(self):
        reasons = self._reasons("{ print(1) } || { y := 2 }")
        assert "output inside a parallel composition" in reasons

    def test_blocking_guard_bails(self):
        reasons = self._reasons(
            "c := alloc(0)\natomic when (deref(c) > 0) { [c] := 0 }"
        )
        assert "guard" in reasons

    def test_computed_address_bails(self):
        reasons = self._reasons("c := alloc(0)\nt := [c + 0]")
        assert "computed address" in reasons

    def test_address_escape_bails(self):
        reasons = self._reasons("c := alloc(0)\nx := c + 1\nprint(x)")
        assert "escapes" in reasons

    def test_alloc_inside_branch_bails(self):
        reasons = self._reasons("if (a < 0) { c := alloc(0) } else { skip }", low=("a",))
        assert "allocation inside" in reasons

    def test_bailout_never_reports_secure_with_findings(self):
        report = _flow("print(h)\n{ x := 1 } || { y := x }", high=("h",))
        assert not report.secure


class TestSpecFlow:
    def test_sequential_tally_is_secure(self):
        case = case_by_name("Sequential-Tally")
        assert analyze_spec_flow(case.program_spec()).secure

    def test_every_parallel_corpus_case_is_unknown(self):
        # Every Table-1 case uses interfering || branches: the flow
        # analysis cannot prove any of them secure.
        for case in ALL_CASES:
            if case.name == "Sequential-Tally":
                continue
            report = analyze_spec_flow(case.program_spec())
            assert not report.secure, case.name

    def test_insecure_cases_never_report_secure(self):
        for case in ALL_CASES:
            if case.expected_verified:
                continue
            report = analyze_spec_flow(case.program_spec())
            assert not report.secure, case.name


class TestPrepassOneSided:
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
    def test_prepass_never_accepts_what_the_verifier_rejects(self, case):
        # One-sided soundness: prepass 'secure' implies a verified
        # verdict from the full pipeline.
        report = run_prepass(case.program_spec())
        if report.secure:
            full = api.execute(api.VerificationRequest(case=case.name))
            assert full.verified, (
                f"{case.name}: static prepass claimed secure but the "
                f"verifier rejected with {full.errors}"
            )
