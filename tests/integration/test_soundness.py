"""Integration: executable soundness validation.

The paper proves CommCSL sound in Isabelle/HOL (Theorem 4.3); this repo's
substitute is executable: everything the verifier ACCEPTS must satisfy
Def. 2.1 empirically — exhaustively on tiny programs, sampled on the case
studies — and the key soundness lemma (Lemma 4.2) must hold by enumeration
on valid specifications.
"""

import pytest

from repro.casestudies import EXTRA_SECURE_CASES, TABLE1_CASES
from repro.heap.multiset import Multiset
from repro.lang.parser import parse_program
from repro.security import check_exhaustive, check_sampled
from repro.spec import abstractions_of_interleavings, check_validity
from repro.spec.library import VALID_SPECS, producer_consumer_spec
from repro.verifier import ProgramSpec, ResourceDecl, verify
from repro.spec.library import counter_increment_spec, integer_add_spec


SAMPLED_CASES = [case for case in TABLE1_CASES + EXTRA_SECURE_CASES]


@pytest.mark.parametrize("case", SAMPLED_CASES, ids=lambda c: c.name)
def test_accepted_implies_noninterference_sampled(case):
    """verifier-accepted ⇒ Def. 2.1 holds on sampled schedules."""
    result = case.verify()
    assert result.verified
    for group in case.instances():
        report = check_sampled(case.program(), group, schedules=8, seed=99)
        assert report.secure, f"{case.name}: {report.witness}"


class TestExhaustiveTinyPrograms:
    """Straight-line two-thread programs small enough to enumerate every
    interleaving: acceptance must coincide with exhaustive non-interference."""

    def _verify_and_check(self, source, decl, variants, low=frozenset(), high=frozenset()):
        program = parse_program(source)
        spec = ProgramSpec("tiny", program, (decl,), frozenset(low), frozenset(high))
        result = verify(spec, bounded_instances=lambda: [variants])
        if result.ni_report is not None:  # stage 4 ran
            assert result.ni_report.mode == "exhaustive"
        ni = check_exhaustive(program, variants)
        return result, ni

    def test_two_increments(self):
        source = (
            "c := alloc(0)\nshare CounterInc\n"
            "{ atomic [Inc()] { t1 := [c]; [c] := t1 + 1 } } || "
            "{ atomic [Inc()] { t2 := [c]; [c] := t2 + 1 } }\n"
            "unshare CounterInc\nout := [c]\nprint(out)"
        )
        decl = ResourceDecl("CounterInc", counter_increment_spec(), "c")
        result, ni = self._verify_and_check(source, decl, [{}])
        assert result.verified and ni.secure

    def test_two_adds_with_high_values_rejected_and_insecure(self):
        source = (
            "c := alloc(0)\nshare IntegerAdd\n"
            "{ atomic [Add(h)] { t1 := [c]; [c] := t1 + h } } || "
            "{ atomic [Add(2)] { t2 := [c]; [c] := t2 + 2 } }\n"
            "unshare IntegerAdd\nout := [c]\nprint(out)"
        )
        decl = ResourceDecl("IntegerAdd", integer_add_spec(), "c")
        result, ni = self._verify_and_check(
            source, decl, [{"h": 0}, {"h": 5}], high={"h"}
        )
        assert not result.verified
        assert not ni.secure

    def test_racing_writes_exhaustive(self):
        """Racing writes with the constant abstraction verify, and the
        exhaustive check confirms the printed constant is invariant."""
        from repro.spec.library import assign_constant_abstraction_spec

        source = (
            "s := alloc(0)\nshare AssignConstantAlpha\n"
            "{ atomic [SetTo(3)] { [s] := 3 } } || { atomic [SetTo(4)] { [s] := 4 } }\n"
            "unshare AssignConstantAlpha\nprint(7)"
        )
        decl = ResourceDecl("AssignConstantAlpha", assign_constant_abstraction_spec(), "s")
        result, ni = self._verify_and_check(source, decl, [{}])
        assert result.verified and ni.secure

    def test_racing_writes_printed_exhaustively_insecure(self):
        from repro.spec.library import assign_constant_abstraction_spec

        source = (
            "s := alloc(0)\nshare AssignConstantAlpha\n"
            "{ atomic [SetTo(3)] { [s] := 3 } } || { atomic [SetTo(4)] { [s] := 4 } }\n"
            "unshare AssignConstantAlpha\nout := [s]\nprint(out)"
        )
        decl = ResourceDecl("AssignConstantAlpha", assign_constant_abstraction_spec(), "s")
        result, ni = self._verify_and_check(source, decl, [{}])
        assert not result.verified  # printing the non-abstract value
        assert not ni.secure  # and it genuinely varies by schedule


class TestLemma42ByEnumeration:
    """For every valid catalogue spec: all interleavings of a recorded
    history yield ONE abstract value (the single-history core of Lemma 4.2)."""

    HISTORIES = {
        "CounterInc": {"shared": [0, 0, 0]},
        "IntegerAdd": {"shared": [1, 2, 3]},
        "AssignConstantAlpha": {"shared": [1, 2]},
        "ListMean": {"shared": [("a", 1), ("b", 2), ("c", 3)]},
        "ListMultiset": {"shared": [("a", 1), ("a", 1), ("b", 2)]},
        "ListLength": {"shared": [("a", 1), ("b", 2)]},
        "ListSum": {"shared": [("a", 5), ("b", 7)]},
        "SetAdd": {"shared": [1, 2, 1]},
        "MapKeySet": {"shared": [(1, 10), (1, 20), (2, 5)]},
        "MapHistogram": {"shared": [1, 1, 2]},
        "MapAddValue": {"shared": [(1, 10), (1, 20)]},
        "MapPutMax": {"shared": [(1, 10), (1, 30), (1, 20)]},
    }

    @pytest.mark.parametrize("name", sorted(HISTORIES))
    def test_single_abstract_value(self, name):
        spec = VALID_SPECS[name]()
        history = self.HISTORIES[name]
        alphas = abstractions_of_interleavings(
            spec, spec.initial_value, Multiset(history["shared"])
        )
        assert len(alphas) == 1, f"{name}: {alphas}"

    def test_unique_streams_interleave_to_single_alpha(self):
        spec = producer_consumer_spec(1, 1)
        alphas = abstractions_of_interleavings(
            spec,
            spec.initial_value,
            unique_args={"Prod": [1, 2, 3], "Cons": [0, 0]},
        )
        assert len(alphas) == 1

    def test_disjoint_puts_single_alpha(self):
        spec = VALID_SPECS["MapDisjointPut"]()
        alphas = abstractions_of_interleavings(
            spec,
            spec.initial_value,
            unique_args={"Put1": [(1, 10), (2, 20)], "Put2": [(3, 30)]},
        )
        assert len(alphas) == 1

    def test_queue_2p2c_single_alpha(self):
        spec = producer_consumer_spec(2, 2)
        alphas = abstractions_of_interleavings(
            spec,
            spec.initial_value,
            Multiset([("prod", 1), ("prod", 2), ("cons", 0)]),
        )
        assert len(alphas) == 1


class TestValiditySoundness:
    """A spec accepted by the validity checker keeps Lemma 4.2 on histories
    drawn from its own argument domains (cross-validation of the checker)."""

    @pytest.mark.parametrize("name", sorted(VALID_SPECS))
    def test_domain_histories_commute(self, name):
        spec = VALID_SPECS[name]()
        assert check_validity(spec).valid
        shared = spec.shared_action
        if shared is None:
            return
        args = spec.arg_domain(shared.name)[:3]
        for initial in spec.value_domain[:2]:
            alphas = abstractions_of_interleavings(spec, initial, Multiset(args))
            assert len(alphas) == 1, f"{name} from {initial!r}: {alphas}"
