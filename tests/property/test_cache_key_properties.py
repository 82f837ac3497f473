"""Properties of the in-memory validity-cache key.

:func:`repro.smt.cache.make_key` keys a query on the interned formula
object plus every parameter that can change its answer.  Hash-consing
makes structurally equal terms one object, so the key must not depend
on the order terms were interned; structurally distinct terms, and the
same formula under a different scope, sort map, ``exhaustive`` or
``use_sat``, must never share a key; and a cached answer must be the
answer the solver gives without the cache.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.cache import ValidityCache, make_key
from repro.smt.solver import check_validity
from repro.smt.sorts import BOOL, INT, Scope
from repro.smt.terms import App, Const, SymVar


@st.composite
def term_specs(draw, depth=3):
    """A *recipe* for a term, so the same structure can be rebuilt in
    different interning orders."""
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
    """Build the term a recipe describes (children interned left to right)."""
    if spec[0] == "const":
        return Const(spec[1])
    if spec[0] == "var":
        return SymVar(f"ck_{spec[1]}", INT if spec[2] == "int" else BOOL)
    return App(spec[1], tuple(build(arg) for arg in spec[2]))


def _subterm_specs(spec, out):
    if spec[0] == "app":
        for arg in spec[2]:
            _subterm_specs(arg, out)
    out.append(spec)
    return out


def build_scrambled(spec, seed):
    """Build the same term after pre-interning its subterms in a shuffled
    order."""
    pieces = _subterm_specs(spec, [])
    random.Random(seed).shuffle(pieces)
    for piece in pieces:
        build(piece)
    return build(spec)


def _key(formula, scope=None, sorts=None, exhaustive=False, use_sat=True):
    return make_key(formula, scope or Scope(), sorts, exhaustive, use_sat)


class TestKeyIdentity:
    @given(term_specs(), st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=150, deadline=None)
    def test_insertion_order_is_irrelevant(self, spec, seed):
        plain = _key(build(spec))
        scrambled = _key(build_scrambled(spec, seed))
        assert plain is not None
        assert plain == scrambled
        assert hash(plain) == hash(scrambled)

    @given(term_specs(), term_specs())
    @settings(max_examples=200, deadline=None)
    def test_distinct_terms_do_not_collide(self, spec_left, spec_right):
        left = build(spec_left)
        right = build(spec_right)
        assert (_key(left) == _key(right)) == (left == right)

    def test_key_respects_term_equality_classes(self):
        # Term equality conflates Const(True)/Const(1) (Python bool/int
        # ``==``, a documented seed behaviour); the key inherits exactly
        # that equivalence and no coarser one.
        assert _key(Const(True)) == _key(Const(1))
        assert _key(Const(1)) != _key(Const("1"))
        assert _key(Const(1)) != _key(Const(2))


class TestKeyParameters:
    @given(term_specs())
    @settings(max_examples=50, deadline=None)
    def test_key_covers_query_parameters(self, spec):
        formula = build(spec)
        base = _key(formula)
        assert _key(formula, exhaustive=True) != base
        assert _key(formula, use_sat=False) != base
        assert _key(formula, scope=Scope().widen((17,))) != base
        assert _key(formula, scope=Scope(max_size=3)) != base
        assert _key(formula, sorts={"ck_a": BOOL}) != base

    @given(
        st.permutations(["ck_a", "ck_b", "ck_c", "ck_p"]),
        st.lists(st.sampled_from([INT, BOOL]), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_sort_map_insertion_order_is_irrelevant(self, names, sorts):
        formula = App("==", (SymVar("ck_a", INT), SymVar("ck_b", INT)))
        forward = dict(zip(names, sorts))
        backward = dict(reversed(list(forward.items())))
        assert _key(formula, sorts=forward) == _key(formula, sorts=backward)


class TestCachedAnswers:
    @given(term_specs())
    @settings(max_examples=100, deadline=None)
    def test_cached_answer_is_the_uncached_answer(self, spec):
        formula = build(spec)
        cache = ValidityCache()
        uncached = check_validity(formula, use_cache=False)
        first = check_validity(formula, cache=cache)
        second = check_validity(formula, cache=cache)
        assert first.verdict == uncached.verdict
        assert second.verdict == uncached.verdict
        assert second.from_cache == (uncached.verdict.value != "unknown")
