"""Cross-call in-memory validity cache.

:mod:`repro.verifier.vcgen` and :mod:`repro.spec.inference` re-discharge
many *syntactically identical* verification conditions — the same atomic
block is checked under every proof outline, the same commutativity
obligation under every candidate abstraction.  With hash-consed terms a
formula is one canonical object, so a validity query can be cached under
the key

    (interned formula, scope, sorts fingerprint, exhaustive, use_sat)

with O(1) hashing.  ``Scope`` is a frozen dataclass and sort objects are
frozen dataclasses too, so the key is deeply hashable whenever the
query's sort domains are; queries with unhashable domain values simply
bypass the cache (``make_key`` returns None).

Only decisive verdicts (PROVED / REFUTED / BOUNDED) are stored:
UNKNOWN means the evaluator lacked an operation, and operations may be
registered later (:data:`repro.smt.terms.OPERATIONS` grows as resource
actions are declared), which would make a cached UNKNOWN stale.

The key holds interned term objects, so the cache lives and dies with
the process: nothing is written to disk and no entry crosses a process
boundary.

**Multi-tenancy.**  A cache can be *namespaced*
(:meth:`ValidityCache.set_namespace`, or scoped with
:meth:`~ValidityCache.namespaced`): while a namespace is active, every
key is qualified by it, so two tenants sharing one cache (the
verification daemon's situation) never serve each other's entries.

Hit/miss counters are surfaced on every :class:`repro.smt.solver.Result`
via its ``cache_hits``/``cache_misses`` fields.  The process-default
cache is reachable via :func:`get_default` and replaceable via
:func:`set_default` / the :func:`using_cache` context manager.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Hashable, Iterator, Mapping, Optional, Tuple

from .intern import register_cache
from .sorts import Scope, Sort
from .terms import Term

#: Private miss sentinel — ``None`` is a storable value, not a miss marker.
_MISSING = object()


def make_key(
    formula: Term,
    scope: Scope,
    sorts: Optional[Mapping[str, Sort]],
    exhaustive: bool,
    use_sat: bool,
) -> Optional[Hashable]:
    """A hashable cache key for a validity query, or None if the query
    involves unhashable data (in which case caching is skipped)."""
    try:
        fingerprint: Tuple = (
            formula,
            scope,
            tuple(sorted((sorts or {}).items())),
            exhaustive,
            use_sat,
        )
        hash(fingerprint)
    except TypeError:
        return None
    return fingerprint


class ValidityCache:
    """A keyed in-memory store of validity results with hit/miss counters."""

    __slots__ = ("hits", "misses", "_store", "_namespace")

    def __init__(self, namespace: str = "") -> None:
        self.hits = 0
        self.misses = 0
        self._store: Dict[Hashable, Any] = {}
        self._namespace = namespace

    # -- namespacing ------------------------------------------------------

    @property
    def namespace(self) -> str:
        return self._namespace

    def set_namespace(self, namespace: str) -> None:
        """Qualify every subsequent lookup/store with ``namespace``.

        The empty namespace (the default) leaves keys un-prefixed.
        Entries written under one namespace are invisible under any
        other — the tenancy isolation contract of the verification
        daemon.
        """
        self._namespace = namespace

    @contextlib.contextmanager
    def namespaced(self, namespace: str) -> Iterator["ValidityCache"]:
        """Scope a namespace: restore the previous one on exit."""
        previous = self._namespace
        self._namespace = namespace
        try:
            yield self
        finally:
            self._namespace = previous

    def _qualify(self, key: Hashable) -> Hashable:
        """The key as stored (namespace-qualified if set)."""
        if not self._namespace:
            return key
        return ("\x00ns", self._namespace, key)

    # -- lookups ----------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Stored result for ``key``, or ``default``.  A private sentinel
        decides membership, so a stored falsy result (e.g. a REFUTED
        :class:`~repro.smt.solver.Result`, whose ``__bool__`` is False)
        still counts as a hit and stays cacheable."""
        found = self._store.get(self._qualify(key), _MISSING)
        if found is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return found

    def put(self, key: Hashable, value: Any) -> None:
        """Store a result under ``key``."""
        self._store[self._qualify(key)] = value

    # -- bookkeeping ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._store)}

    def clear(self) -> None:
        """Drop every entry and reset counters (invoked by
        :func:`repro.smt.intern.clear_all_caches`)."""
        self._store.clear()
        self.hits = 0
        self.misses = 0


# ---------------------------------------------------------------------------
# The process default
# ---------------------------------------------------------------------------

#: The seed process-wide cache.  Internal: public code obtains a handle
#: via :func:`get_default` (or constructs its own ``ValidityCache`` and
#: installs it with :func:`using_cache`).
_SEED_CACHE: ValidityCache = register_cache(ValidityCache())

#: The currently installed default (what ``check_validity`` consults).
_default_cache: ValidityCache = _SEED_CACHE


def get_default() -> ValidityCache:
    """The validity cache ``check_validity`` uses when no explicit handle
    is passed.  Initially the process-wide seed instance; replaceable
    with :func:`set_default` / :func:`using_cache`."""
    return _default_cache


def set_default(cache: ValidityCache) -> ValidityCache:
    """Install ``cache`` as the process default; returns the previous
    default so callers can restore it."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


@contextlib.contextmanager
def using_cache(cache: ValidityCache) -> Iterator[ValidityCache]:
    """Scope an explicit cache handle: every ``check_validity`` call in
    the ``with`` block (that does not pass its own handle) uses
    ``cache``; the previous default is restored on exit."""
    previous = set_default(cache)
    try:
        yield cache
    finally:
        set_default(previous)
