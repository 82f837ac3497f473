"""Properties of the stable term fingerprint backing cache persistence.

The persistent validity cache keys entries by
:func:`repro.smt.cache.term_fingerprint`, which must be a pure function
of term *structure*: independent of the order terms were interned, of
whether the intern tables were cleared in between, and (by construction
— the digest never consults ``hash()`` or ``id()``) of the process.
Collisions between structurally distinct terms must be negligible, and
the on-disk store must be a fixed point of save → load → save.
"""

import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import clear_all_caches
from repro.smt.cache import (
    ValidityCache,
    get_default,
    persistent_key,
    term_fingerprint,
)
from repro.smt.solver import Result, Verdict, check_validity
from repro.smt.sorts import BOOL, INT, Scope
from repro.smt.terms import App, Const, SymVar


@st.composite
def term_specs(draw, depth=3):
    """A *recipe* for a term (so the same structure can be rebuilt from
    scratch, in different orders, against different intern tables)."""
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            return ("const", draw(st.integers(min_value=-3, max_value=3)))
        if kind == 1:
            return ("const", draw(st.booleans()))
        if kind == 2:
            return ("var", draw(st.sampled_from("abcxyz")), "int")
        return ("var", draw(st.sampled_from("pqr")), "bool")
    op = draw(st.sampled_from(["and", "or", "not", "implies", "==", "!=", "<", "f"]))
    if op in ("not", "f"):
        return ("app", op, (draw(term_specs(depth=depth - 1)),))
    return (
        "app",
        op,
        (draw(term_specs(depth=depth - 1)), draw(term_specs(depth=depth - 1))),
    )


def build(spec):
    """Build the term a recipe describes (top-down: children are interned
    in left-to-right order as encountered)."""
    if spec[0] == "const":
        return Const(spec[1])
    if spec[0] == "var":
        return SymVar(spec[1], INT if spec[2] == "int" else BOOL)
    return App(spec[1], tuple(build(arg) for arg in spec[2]))


def _subterm_specs(spec, out):
    if spec[0] == "app":
        for arg in spec[2]:
            _subterm_specs(arg, out)
    out.append(spec)
    return out


def build_scrambled(spec, seed):
    """Build the same term after pre-interning its subterms in a
    shuffled order, so the intern tables' insertion order differs from
    the plain top-down build."""
    pieces = _subterm_specs(spec, [])
    random.Random(seed).shuffle(pieces)
    for piece in pieces:
        build(piece)  # populate the intern tables in scrambled order
    return build(spec)


class TestFingerprintStability:
    @given(term_specs(), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=150, deadline=None)
    def test_insertion_order_is_irrelevant(self, spec, seed):
        plain = term_fingerprint(build(spec))
        scrambled = term_fingerprint(build_scrambled(spec, seed))
        assert plain == scrambled

    @given(term_specs(), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=100, deadline=None)
    def test_stable_across_fresh_intern_tables(self, spec, seed):
        before = term_fingerprint(build(spec))
        clear_all_caches()  # fresh tables: every node re-interned from scratch
        after = term_fingerprint(build_scrambled(spec, seed))
        assert before == after

    @given(term_specs(), term_specs())
    @settings(max_examples=200, deadline=None)
    def test_distinct_terms_do_not_collide(self, spec_left, spec_right):
        left = build(spec_left)
        right = build(spec_right)
        if left == right:
            assert term_fingerprint(left) == term_fingerprint(right)
        else:
            # 128-bit blake2 digests: a collision on this corpus would be
            # astronomically unlikely and indicates a structural bug
            # (e.g. an order-dependent or ambiguous encoding).
            assert term_fingerprint(left) != term_fingerprint(right)

    def test_fingerprint_respects_term_equality_classes(self):
        # Term equality deliberately conflates Const(True)/Const(1)
        # (Python bool/int ``==``, a documented seed behaviour the
        # in-memory cache key inherits); the fingerprint must agree with
        # that equivalence — equal terms fingerprint identically, and
        # genuinely distinct payloads do not.
        assert term_fingerprint(Const(True)) == term_fingerprint(Const(1))
        assert term_fingerprint(Const(1.0)) == term_fingerprint(Const(1))
        assert term_fingerprint(Const(1)) != term_fingerprint(Const("1"))
        assert term_fingerprint(Const(1)) != term_fingerprint(Const(2))

    @given(term_specs())
    @settings(max_examples=50, deadline=None)
    def test_persistent_key_covers_query_parameters(self, spec):
        formula = build(spec)
        base = persistent_key(formula, Scope(), None, False, True)
        assert base is not None
        assert persistent_key(formula, Scope(), None, True, True) != base
        assert persistent_key(formula, Scope(), None, False, False) != base
        widened = persistent_key(formula, Scope().widen((17,)), None, False, True)
        assert widened != base


class TestStoreRoundTrip:
    def test_save_load_save_is_idempotent(self):
        cache = ValidityCache()
        cache.enable_persistence()
        x, y = SymVar("x", INT), SymVar("y", INT)
        queries = [
            App("implies", (App("==", (x, y)), App("==", (y, x)))),
            App("==", (x, x)),
            App("and", (App("==", (x, y)), App("!=", (x, y)))),
        ]
        for index, formula in enumerate(queries):
            pkey = persistent_key(formula, Scope(), None, False, True)
            cache.put(
                ("key", index),
                Result(Verdict.PROVED if index < 2 else Verdict.REFUTED, model={}),
                persistent_key=pkey,
            )
        handle, first_path = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        handle, second_path = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        try:
            cache.save(first_path)
            first = json.load(open(first_path))

            reloaded = ValidityCache()
            reloaded.load(first_path)
            reloaded.save(second_path)
            second = json.load(open(second_path))
            assert first == second

            # And saving the reloaded store back over the original is a
            # fixed point too.
            reloaded.save(first_path)
            assert json.load(open(first_path)) == first
        finally:
            os.unlink(first_path)
            os.unlink(second_path)

    def test_global_round_trip_preserves_verdicts(self):
        x, y = SymVar("rt_x", INT), SymVar("rt_y", INT)
        formulas = [
            App("implies", (App("==", (x, y)), App("==", (y, x)))),
            App("<", (x, y)),
        ]
        handle, path = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        cache = get_default()
        try:
            cache.forget_persistent()
            clear_all_caches()
            cache.enable_persistence()
            cold = [check_validity(f) for f in formulas]
            cache.save(path)

            cache.forget_persistent()
            clear_all_caches()
            cache.load(path)
            warm = [check_validity(f) for f in formulas]
            assert [r.verdict for r in cold] == [r.verdict for r in warm]
            assert [r.model for r in cold] == [r.model for r in warm]
            assert all(r.from_cache for r in warm)
            assert cache.stats()["persistent_hits"] == len(formulas)
        finally:
            cache.forget_persistent()
            clear_all_caches()
            os.unlink(path)
