"""Unit tests for the in-memory :class:`repro.smt.cache.ValidityCache`:
tenant namespaces, the process-default handle and its scoping, which
results are stored, and that the cache never leaves the process."""

from dataclasses import dataclass
from typing import Iterator, List

import pytest

from repro import api
from repro.smt.cache import (
    ValidityCache,
    get_default,
    make_key,
    set_default,
    using_cache,
)
from repro.smt.solver import Verdict, check_validity
from repro.smt.sorts import INT, Scope, Sort
from repro.smt.terms import App, Const, SymVar


def _tautology(tag):
    x = SymVar(f"vc_{tag}", INT)
    return App("==", (x, x))


class TestNamespaces:
    def test_namespaces_isolate_entries(self):
        cache = ValidityCache()
        formula = _tautology("ns_isolate")
        with cache.namespaced("tenant-a"):
            assert not check_validity(formula, cache=cache).from_cache
            assert check_validity(formula, cache=cache).from_cache
        with cache.namespaced("tenant-b"):
            # a second tenant cannot see tenant-a's verdict
            assert not check_validity(formula, cache=cache).from_cache
        assert len(cache) == 2

    def test_namespaced_restores_the_previous_namespace(self):
        cache = ValidityCache(namespace="outer")
        with cache.namespaced("inner"):
            assert cache.namespace == "inner"
        assert cache.namespace == "outer"
        with pytest.raises(RuntimeError):
            with cache.namespaced("inner"):
                raise RuntimeError("boom")
        assert cache.namespace == "outer"

    def test_set_namespace_qualifies_later_lookups(self):
        cache = ValidityCache()
        cache.put("key", "unqualified")
        cache.set_namespace("tenant")
        assert cache.get("key", "absent") == "absent"
        cache.put("key", "qualified")
        cache.set_namespace("")
        assert cache.get("key") == "unqualified"


class TestDefaultHandle:
    def test_using_cache_installs_and_restores_the_default(self):
        before = get_default()
        handle = ValidityCache()
        with using_cache(handle) as installed:
            assert installed is handle
            assert get_default() is handle
            check_validity(_tautology("using_cache"))
        assert get_default() is before
        assert handle.misses == 1 and len(handle) == 1

    def test_using_cache_restores_the_default_on_error(self):
        before = get_default()
        with pytest.raises(RuntimeError):
            with using_cache(ValidityCache()):
                raise RuntimeError("boom")
        assert get_default() is before

    def test_set_default_returns_the_previous_default(self):
        before = get_default()
        handle = ValidityCache()
        assert set_default(handle) is before
        try:
            assert get_default() is handle
        finally:
            assert set_default(before) is handle

    def test_execute_scopes_an_explicit_cache_handle(self):
        before = get_default()
        handle = ValidityCache()
        request = api.VerificationRequest(
            formula=api.term_to_wire(_tautology("execute_handle")), name="t"
        )
        assert not api.execute(request, cache=handle).from_cache
        assert api.execute(request, cache=handle).from_cache
        assert get_default() is before
        assert handle.stats() == {"hits": 1, "misses": 1, "size": 1}


class TestStoredResults:
    def test_unknown_is_never_stored(self):
        cache = ValidityCache()
        formula = App("==", (App("vc_no_such_op", (Const(1),)), Const(1)))
        assert check_validity(formula, cache=cache).verdict is Verdict.UNKNOWN
        assert len(cache) == 0
        again = check_validity(formula, cache=cache)
        assert again.verdict is Verdict.UNKNOWN
        assert not again.from_cache

    def test_unhashable_sort_domain_bypasses_the_cache(self):
        @dataclass  # eq without frozen: instances are unhashable
        class ListedSort(Sort):
            values: List[int]

            def domain(self, scope: Scope) -> Iterator[int]:
                return iter(self.values)

        x = SymVar("vc_listed", INT)
        formula = App("<", (x, Const(5)))
        sorts = {"vc_listed": ListedSort([0, 1, 2])}
        assert make_key(formula, Scope(), sorts, False, True) is None
        cache = ValidityCache()
        result = check_validity(formula, sorts=sorts, cache=cache)
        assert result.is_valid()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_clear_drops_entries_and_counters(self):
        cache = ValidityCache()
        formula = _tautology("clear")
        check_validity(formula, cache=cache)
        check_validity(formula, cache=cache)
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}
        assert not check_validity(formula, cache=cache).from_cache

    def test_cache_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = ValidityCache()
        for tag in ("disk_a", "disk_b"):
            check_validity(_tautology(tag), cache=cache)
        assert len(cache) == 2
        assert list(tmp_path.iterdir()) == []
