"""Unit tests for the ``repro.api`` facade: wire round-trips, request
validation, fork/join program requests, admission-control estimation,
and the names retired from the API (the ``GLOBAL`` cache singleton, the
session pool, the persistent cache and the static prepass)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.casestudies import ALL_CASES, THREADED_CASES, case_by_name
from repro.smt.cache import ValidityCache
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import App, Const, SymVar


# ---------------------------------------------------------------------------
# Term wire codec
# ---------------------------------------------------------------------------


def test_term_wire_round_trip_is_identity():
    x = SymVar("x", INT)
    term = App("==", (App("+", (x, Const(1))), App("+", (Const(1), x))))
    wire = api.term_to_wire(term)
    # JSON-safe: only lists/strings/ints inside
    import json

    assert json.loads(json.dumps(wire)) == wire
    rebuilt = api.term_from_wire(wire)
    assert rebuilt is term  # hash-consing: decode returns the same object


def test_term_wire_bool_sort():
    p = SymVar("p", BOOL)
    wire = api.term_to_wire(p)
    assert wire == ["var", "p", "bool"]
    assert api.term_from_wire(wire) is p


def test_term_wire_rejects_unknown_sort_name():
    with pytest.raises(api.RequestError):
        api.sort_from_wire("real")


def test_term_wire_rejects_malformed():
    for bad in ([], ["nope"], ["app", "+"], ["var", 3, "int"], 42, None):
        with pytest.raises(api.RequestError):
            api.term_from_wire(bad)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def test_case_request_round_trip():
    request = api.VerificationRequest(case="Figure 3")
    wire = request.to_wire()
    assert wire == {"case": "Figure 3"}
    assert api.VerificationRequest.from_wire(wire) == request


def test_program_request_round_trip():
    request = api.VerificationRequest(
        program="skip",
        name="demo",
        resources=(
            api.ResourceRequest(
                name="ctr", spec="counter", location_var="l", low_views=("count",)
            ),
        ),
        low_inputs=frozenset({"a"}),
        high_inputs=frozenset({"h"}),
    )
    rebuilt = api.VerificationRequest.from_wire(request.to_wire())
    assert rebuilt == request


def test_formula_request_round_trip():
    x = SymVar("x", INT)
    tautology = App("==", (x, x))
    request = api.VerificationRequest(
        formula=api.term_to_wire(tautology),
        name="taut",
        sorts=(("x", "int"),),
        exhaustive=True,
    )
    rebuilt = api.VerificationRequest.from_wire(request.to_wire())
    assert rebuilt == request
    assert rebuilt.build_sorts() == {"x": INT}


@pytest.mark.parametrize(
    "case", ALL_CASES + THREADED_CASES, ids=lambda case: case.name
)
def test_retired_static_prepass_wire_key_is_ignored(case):
    # Clients written against the retired fast path may still send the
    # key, with either value; every catalogue case must decode to the
    # plain request and get the same verdict as before.
    wire = {"case": case.name}
    plain = api.VerificationRequest.from_wire(wire)
    for value in (False, True):
        flagged = api.VerificationRequest.from_wire({**wire, "static_prepass": value})
        assert flagged == plain
        assert flagged.to_wire() == wire
    verdict = api.execute(flagged)
    assert verdict.observable() == api.execute(plain).observable()
    assert verdict.verified == case.expected_verified


def test_request_requires_exactly_one_shape():
    with pytest.raises(api.RequestError):
        api.VerificationRequest().validate()
    with pytest.raises(api.RequestError):
        api.VerificationRequest(case="Figure 3", program="skip").validate()


def test_request_rejects_exhaustive_on_case_and_program_requests():
    with pytest.raises(api.RequestError):
        api.VerificationRequest(case="Figure 3", exhaustive=True).validate()
    with pytest.raises(api.RequestError):
        api.VerificationRequest(program="skip", exhaustive=True).validate()


def test_unknown_case_is_a_request_error():
    with pytest.raises(api.RequestError):
        api.VerificationRequest(case="No Such Case").build_program_spec()


def test_unknown_spec_name_is_a_request_error():
    resource = api.ResourceRequest(name="r", spec="no-such-spec", location_var="l")
    with pytest.raises(api.RequestError):
        resource.build()


def test_unparsable_program_is_a_request_error():
    request = api.VerificationRequest(program="this is not a program (", name="bad")
    with pytest.raises(api.RequestError):
        request.build_program_spec()


def _program_request(case, source=None):
    """A raw-program request carrying a catalogue case's source, resources
    and inputs (each resource's spec is named by its declaration)."""
    return api.VerificationRequest(
        program=case.source if source is None else source,
        name=case.name,
        resources=tuple(
            api.ResourceRequest(
                name=decl.name,
                spec=decl.name,
                location_var=decl.location_var,
                low_views=tuple(decl.low_views),
            )
            for decl in case.resources
        ),
        low_inputs=case.low_inputs,
        high_inputs=case.high_inputs,
        instances=tuple(({}, tuple(group)) for group in case.instances()),
    )


@pytest.mark.parametrize("case", THREADED_CASES, ids=lambda case: case.name)
def test_fork_join_program_request_builds_the_case_program(case):
    spec, _instances = _program_request(case).build_program_spec()
    assert spec.program == case.program()


@pytest.mark.parametrize("case", THREADED_CASES, ids=lambda case: case.name)
def test_fork_join_program_request_gets_the_case_verdict(case):
    verdict = api.execute(_program_request(case))
    assert verdict.verified == case.expected_verified


def test_unjoined_fork_program_request_is_a_request_error():
    case = case_by_name("Figure 3 (fork/join)")
    source = case.source.replace("join worker(t2)\n", "")
    assert source != case.source
    with pytest.raises(api.RequestError, match="never joined"):
        _program_request(case, source).build_program_spec()


# ---------------------------------------------------------------------------
# Admission control estimation
# ---------------------------------------------------------------------------


def test_estimate_formula_is_one():
    x = SymVar("x", INT)
    request = api.VerificationRequest(formula=api.term_to_wire(App("==", (x, x))))
    assert api.estimate_vc_count(request) == 1


def test_estimate_counts_resources_and_atomics():
    from repro.casestudies import case_by_name
    from repro.lang.ast import Atomic

    case = case_by_name("Figure 3")
    request = api.VerificationRequest(case="Figure 3")
    estimate = api.estimate_vc_count(request)
    assert estimate >= len(case.resources)

    def count_atomics(node, seen):
        if id(node) in seen:
            return 0
        seen.add(id(node))
        total = int(isinstance(node, Atomic))
        from repro.lang.ast import Node

        for value in vars(node).values():
            if isinstance(value, Node):
                total += count_atomics(value, seen)
            elif isinstance(value, (tuple, list)):
                total += sum(
                    count_atomics(v, seen) for v in value if isinstance(v, Node)
                )
        return total

    atomics = count_atomics(case.program_spec().program, set())
    assert estimate == len(case.resources) + atomics


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_verdict_round_trip():
    verdict = api.Verdict(
        name="demo",
        verified=False,
        errors=("resource r: not valid",),
        expected=False,
        elapsed=1.25,
        symbolic_conformance=(("r", "conforms"),),
        validity=(("r", False, 12),),
        conformance=("sampled ok",),
        obligations=("instance group 0 discharged",),
        solver_verdict=None,
        model=None,
        from_cache=True,
        worker=(4242, 100.5, 101.75),
    )
    rebuilt = api.Verdict.from_wire(verdict.to_wire())
    assert rebuilt == verdict
    assert rebuilt.ok  # expected False, verified False
    assert rebuilt.observable() == verdict.observable()


def test_verdict_observable_ignores_timing():
    a = api.Verdict(name="x", verified=True, elapsed=0.1)
    b = api.Verdict(
        name="x", verified=True, elapsed=9.9, from_cache=True, worker=(7, 1.0, 2.0)
    )
    assert a.observable() == b.observable()


def test_batch_report_round_trip():
    report = api.BatchReport(
        verdicts=(api.Verdict(name="x", verified=True),),
        elapsed=0.5,
        stats={"cache": {"hits": 3}},
    )
    rebuilt = api.BatchReport.from_wire(report.to_wire())
    assert rebuilt == report
    assert rebuilt.ok


# ---------------------------------------------------------------------------
# Execution through the facade
# ---------------------------------------------------------------------------


def test_execute_formula_tautology():
    x = SymVar("x", INT)
    request = api.VerificationRequest(
        formula=api.term_to_wire(App("==", (x, x))), name="taut"
    )
    verdict = api.execute(request)
    assert verdict.verified
    assert verdict.solver_verdict == "proved"


def test_execute_formula_with_sort_overrides():
    p = SymVar("p_api_sort_override", BOOL)
    request = api.VerificationRequest(
        formula=api.term_to_wire(App("or", (p, App("not", (p,))))),
        name="excluded-middle",
    )
    verdict = api.execute(request, sorts={"p_api_sort_override": BOOL})
    assert verdict.verified


def test_execute_case_matches_direct_verify():
    from repro.casestudies import case_by_name

    case = case_by_name("Figure 1")
    direct = case.verify()
    verdict = api.execute(api.VerificationRequest(case=case.name))
    assert verdict.verified == direct.verified
    assert verdict.expected == case.expected_verified
    assert verdict.ok


def test_verify_batch_shares_a_session():
    requests = [
        api.VerificationRequest(case="Figure 3"),
        api.VerificationRequest(case="Figure 3"),
    ]
    # A fresh cache: a warm process default would answer every VC and
    # leave the session idle.
    report = api.verify_batch(requests, cache=ValidityCache())
    assert report.ok
    assert len(report.verdicts) == 2
    assert report.stats["session"]["queries"] > 0
    assert report.verdicts[0].observable() == report.verdicts[1].observable()


# ---------------------------------------------------------------------------
# Retired names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.smt.cache", "GLOBAL"),
        ("repro.smt", "VALIDITY_CACHE"),
        ("repro.smt.session", "SolverSession.euf_valid"),
        ("repro.smt.session", "SessionPool"),
        ("repro.smt.session", "merge_pool_stats"),
        ("repro.smt.cache", "term_fingerprint"),
        ("repro.smt.cache", "persistent_key"),
        ("repro.api", "open_cache"),
        ("repro.api", "CacheHandle"),
        ("repro.api", "CACHE_FILENAME"),
        ("repro.api", "StaticVerdict"),
        ("repro.api", "static_verdict"),
        ("repro.api", "Diagnostic"),
    ],
)
def test_removed_shims_raise_attribute_error(module, name):
    import importlib

    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    with pytest.raises(AttributeError):
        getattr(owner, last)


def test_module_getattr_still_raises_for_unknown_names():
    import repro.smt.cache as cache_module

    with pytest.raises(AttributeError):
        cache_module.no_such_attribute


def test_api_does_not_load_the_static_analyses():
    # repro.analysis backs lint only; verifying a request never loads it.
    script = (
        "import sys\n"
        "from repro import api\n"
        "api.execute(api.VerificationRequest(case='Figure 2'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
