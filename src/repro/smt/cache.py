"""Cross-call validity cache, with an optional persistent on-disk layer.

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

**Persistence.**  The in-memory key above is identity-based (it holds
interned term objects), so it cannot outlive the process.  The
persistent layer instead keys entries by a *stable fingerprint*
(:func:`term_fingerprint`): a blake2 digest computed structurally over
the hash-consed DAG, independent of intern-table insertion order, of
Python hash randomization, and of the process that produced it.  The
layer is opt-in (:meth:`ValidityCache.enable_persistence`, or implied by
:meth:`~ValidityCache.load`); once active, decisive results whose models
survive a JSON round-trip are mirrored into it, ``load``/``save`` move
it to disk (merge-on-save, so concurrent runs union their entries), and
``export_delta``/``merge`` ship a worker process's new entries back to
the parent store after parallel VC discharge.  Persistent-layer hits are
counted separately from in-memory hits (``persistent_hits``), and
:meth:`~ValidityCache.clear` — which :func:`repro.smt.intern.
clear_all_caches` invokes — drops only the in-memory layer, never the
persistent mirror or the on-disk store.

**Multi-tenancy.**  A cache can be *namespaced*
(:meth:`ValidityCache.set_namespace`, or scoped with
:meth:`~ValidityCache.namespaced`): while a namespace is active, both
the in-memory key and the fingerprint key are qualified by it, so two
tenants sharing one cache (the verification daemon's situation) never
serve each other's entries — and an empty namespace (the default)
leaves every key byte-identical to the pre-namespace format, so
existing on-disk stores stay valid.

Hit/miss counters are surfaced on every :class:`repro.smt.solver.Result`
via its ``cache_hits``/``cache_misses`` fields.  The process-default
cache is reachable via :func:`get_default` and replaceable via
:func:`set_default` / the :func:`using_cache` context manager — the
handle-passing surface of :mod:`repro.api`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import os
from typing import Any, Dict, Hashable, Iterator, Mapping, Optional, Tuple

from .intern import register_cache
from .sorts import Scope, Sort
from .terms import App, Const, SymVar, Term

#: Private miss sentinel — ``None`` is a storable value, not a miss marker.
_MISSING = object()

_LOG = logging.getLogger(__name__)


def _read_store(path: Any) -> Optional[Dict[str, dict]]:
    """Read an on-disk store's well-formed entries; ``None`` when the
    file is absent or unusable.  A truncated or corrupt shard — e.g.
    left by a worker killed mid-save on a pre-atomic store — is logged
    and treated as cold, never raised: a cache must only ever cost a
    re-solve, not a crash.  The catch is deliberately broad:
    ``json.JSONDecodeError`` covers torn JSON, ``UnicodeDecodeError``
    (both are ``ValueError`` s) covers binary garbage, ``OSError``
    covers permissions/IO."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    except (ValueError, OSError) as error:
        _LOG.warning(
            "validity cache shard %s is unreadable (%s: %s); starting cold",
            path,
            type(error).__name__,
            error,
        )
        return None
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, dict):
        _LOG.warning(
            "validity cache shard %s has no well-formed entries; starting cold",
            path,
        )
        return None
    return {
        key: entry
        for key, entry in entries.items()
        if isinstance(key, str) and isinstance(entry, dict)
    }


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


# ---------------------------------------------------------------------------
# Stable fingerprints
# ---------------------------------------------------------------------------


def _digest(*parts: str) -> str:
    blake = hashlib.blake2b(digest_size=16)
    for part in parts:
        blake.update(part.encode("utf-8", "backslashreplace"))
        blake.update(b"\x1f")
    return blake.hexdigest()


def _canon(value: Any) -> str:
    """A deterministic textual encoding of auxiliary payloads (constant
    values, sorts, scopes).  Container order is canonicalized; dataclass
    instances encode by class name + field values, so two processes (or
    two intern tables) produce identical encodings for structurally
    equal data."""
    if value is None:
        return "n"
    if isinstance(value, (bool, int, float)):
        # Python's ``==`` conflates True/1/1.0 — and so do term equality
        # and the in-memory cache key (a documented seed behaviour).
        # The fingerprint must be a function of the ``==``-class, or the
        # equality-keyed memo would serve one class member's digest for
        # another: encode every number by its canonical numeric value.
        if isinstance(value, float) and (value != value or value.is_integer() is False):
            return f"g{value!r}"  # non-integral or NaN: repr is canonical
        return f"i{int(value)}"
    if isinstance(value, str):
        return f"s{value!r}"
    if isinstance(value, Term):
        return f"T{term_fingerprint(value)}"
    if isinstance(value, (tuple, list)):
        return "t(" + ",".join(_canon(item) for item in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "S{" + ",".join(sorted(_canon(item) for item in value)) + "}"
    if isinstance(value, Mapping) or (
        hasattr(value, "items") and callable(getattr(value, "items"))
    ):
        entries = sorted(
            f"{_canon(k)}:{_canon(v)}" for k, v in value.items()
        )
        return "M{" + ",".join(entries) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canon(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.compare
        )
        return f"D{type(value).__qualname__}({fields})"
    return f"r{type(value).__qualname__}:{value!r}"


#: Equality-keyed fingerprint memo.  Registered for global clearing; a
#: clear is harmless because fingerprints are purely structural.
_FINGERPRINT_MEMO: Dict[Term, str] = register_cache({})


def term_fingerprint(term: Term) -> str:
    """A stable hex fingerprint of the term's structure.

    Computed bottom-up over the hash-consed DAG (iteratively, so deeply
    nested ``ite`` towers do not hit the recursion limit) and memoized
    per node.  The digest depends only on structure — node kinds,
    operator names, variable names/sorts and canonicalized constant
    payloads — never on intern-table insertion order or object identity,
    so structurally equal terms built in different orders, in different
    processes, or across a table clear fingerprint identically.
    """
    memo = _FINGERPRINT_MEMO
    try:
        cached = memo.get(term, _MISSING)
    except TypeError:
        cached = _MISSING
    if cached is not _MISSING:
        return cached

    local: Dict[int, str] = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if not ready:
            if key in local:
                continue
            try:
                cached = memo.get(node, _MISSING)
            except TypeError:
                cached = _MISSING
            if cached is not _MISSING:
                local[key] = cached
                continue
            if isinstance(node, App):
                stack.append((node, True))
                for arg in node.args:
                    stack.append((arg, False))
                continue
        if isinstance(node, App):
            digest = _digest("A", node.op, *(local[id(arg)] for arg in node.args))
        elif isinstance(node, SymVar):
            digest = _digest("V", node.name, _canon(node.sort))
        elif isinstance(node, Const):
            digest = _digest("C", _canon(node.value))
        else:
            digest = _digest("X", repr(node))
        local[key] = digest
        try:
            memo[node] = digest
        except TypeError:
            pass  # unhashable payload: computed but not memoized
    return local[id(term)]


def persistent_key(
    formula: Term,
    scope: Scope,
    sorts: Optional[Mapping[str, Sort]],
    exhaustive: bool,
    use_sat: bool,
) -> Optional[str]:
    """The process-independent key of a validity query for the on-disk
    store, or None when the query's payloads defeat canonicalization."""
    try:
        sorted_sorts = sorted((sorts or {}).items(), key=lambda kv: kv[0])
        return _digest(
            "K",
            term_fingerprint(formula),
            _canon(scope),
            _canon(tuple(sorted_sorts)),
            f"e{bool(exhaustive)}",
            f"u{bool(use_sat)}",
        )
    except Exception:  # noqa: BLE001 — exotic payloads simply skip the disk layer
        return None


# ---------------------------------------------------------------------------
# Result (de)serialization for the persistent layer
# ---------------------------------------------------------------------------

_JSON_MODEL_TYPES = (bool, int, str, type(None))


def encode_result(result: Any) -> Optional[dict]:
    """A JSON-safe encoding of a decisive Result, or None if the result
    is not persistable (UNKNOWN, or a model that would not survive a
    JSON round-trip byte-identically)."""
    from .solver import Result, Verdict

    if not isinstance(result, Result) or result.verdict is Verdict.UNKNOWN:
        return None
    model = result.model
    if model is not None:
        model = dict(model)
        for name, value in model.items():
            if not isinstance(name, str) or not isinstance(value, _JSON_MODEL_TYPES):
                return None
    return {
        "verdict": result.verdict.value,
        "model": model,
        "checked": result.checked_assignments,
    }


def decode_result(entry: Mapping[str, Any]) -> Optional[Any]:
    """Rebuild a Result from :func:`encode_result` output (None if the
    entry is malformed — e.g. hand-edited or from a future version)."""
    from .solver import Result, Verdict

    try:
        verdict = Verdict(entry["verdict"])
    except (KeyError, ValueError, TypeError):
        return None
    model = entry.get("model")
    if model is not None and not isinstance(model, dict):
        return None
    try:
        checked = int(entry.get("checked", 0))
    except (TypeError, ValueError):
        return None
    return Result(verdict, model=model, checked_assignments=checked)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class ValidityCache:
    """A keyed store of validity results with hit/miss counters and an
    optional fingerprint-keyed persistent layer."""

    __slots__ = (
        "hits",
        "misses",
        "persistent_hits",
        "_store",
        "_persistent",
        "_dirty",
        "_active",
        "_namespace",
    )

    def __init__(self, namespace: str = "") -> None:
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self._store: Dict[Hashable, Any] = {}
        self._persistent: Dict[str, dict] = {}
        self._dirty: set = set()
        self._active = False
        self._namespace = namespace

    # -- namespacing ------------------------------------------------------

    @property
    def namespace(self) -> str:
        return self._namespace

    def set_namespace(self, namespace: str) -> None:
        """Qualify every subsequent lookup/store with ``namespace``.

        The empty namespace (the default) leaves keys in their
        historical un-prefixed form, so pre-tenancy on-disk stores and
        in-memory entries keep resolving.  Entries written under one
        namespace are invisible under any other — the tenancy isolation
        contract of the verification daemon.
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
        """The in-memory key as stored (namespace-qualified if set)."""
        if not self._namespace:
            return key
        return ("\x00ns", self._namespace, key)

    def _qualify_persistent(self, persistent_key: str) -> str:
        """The fingerprint key as stored; the prefix uses ``|``, which
        never occurs in a hex digest."""
        if not self._namespace:
            return persistent_key
        return f"{self._namespace}|{persistent_key}"

    # -- in-memory layer --------------------------------------------------

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

    def put(
        self, key: Hashable, value: Any, persistent_key: Optional[str] = None
    ) -> None:
        """Store a result; when the persistent layer is active and a
        fingerprint key is supplied, mirror a JSON-safe encoding into it
        (and into the dirty delta shipped by :meth:`export_delta`)."""
        self._store[self._qualify(key)] = value
        if persistent_key is not None and self._active:
            encoded = encode_result(value)
            if encoded is not None:
                qualified = self._qualify_persistent(persistent_key)
                self._persistent[qualified] = encoded
                self._dirty.add(qualified)

    # -- persistent layer -------------------------------------------------

    @property
    def persistence_enabled(self) -> bool:
        return self._active

    def enable_persistence(self) -> None:
        """Start mirroring decisive results under fingerprint keys (off
        by default: fingerprinting costs a DAG walk per new query)."""
        self._active = True

    def forget_persistent(self) -> None:
        """Drop the in-memory persistent mirror and deactivate the layer.
        The on-disk store is untouched (only :meth:`save` writes it)."""
        self._persistent.clear()
        self._dirty.clear()
        self._active = False

    def get_persistent(self, persistent_key: str) -> Optional[Any]:
        """Decode the persistent-layer entry for a fingerprint key, or
        None.  Hits are counted in ``persistent_hits``, separate from
        the in-memory ``hits``."""
        entry = self._persistent.get(self._qualify_persistent(persistent_key))
        if entry is None:
            return None
        result = decode_result(entry)
        if result is None:
            return None
        self.persistent_hits += 1
        return result

    def merge(self, entries: Mapping[str, dict]) -> int:
        """Merge encoded entries (a worker's :meth:`export_delta`, or a
        loaded file) into the persistent layer; returns how many were
        new.  Merging does *not* activate the layer: the entries are
        kept (and saved by a later :meth:`save`), but lookups only
        consult them once the caller opts in via :meth:`load` /
        :meth:`enable_persistence` — a pool run without ``--cache-dir``
        must not silently start fingerprinting every query."""
        added = 0
        for key, entry in entries.items():
            if not isinstance(key, str) or not isinstance(entry, dict):
                continue
            if key not in self._persistent:
                added += 1
            self._persistent[key] = dict(entry)
            self._dirty.add(key)
        return added

    def export_delta(self) -> Dict[str, dict]:
        """The encoded entries added/changed since the last
        :meth:`reset_delta`/:meth:`save` — what a pool worker ships back
        to the parent process."""
        persistent = self._persistent
        return {
            key: dict(persistent[key]) for key in self._dirty if key in persistent
        }

    def reset_delta(self) -> None:
        self._dirty.clear()

    def snapshot_persistent(self) -> Dict[str, dict]:
        """A copy of the whole persistent layer (encoded entries, with
        their namespace qualifiers baked in) — what the daemon hands a
        freshly spawned worker so it starts warm."""
        return {key: dict(entry) for key, entry in self._persistent.items()}

    def load(self, path: Any) -> int:
        """Load an on-disk store into the persistent layer (activating
        it).  Entries already in memory win; a missing, truncated or
        corrupt file just activates an empty layer — logged and cold,
        never an exception.  Returns the number of entries loaded."""
        self._active = True
        entries = _read_store(path)
        if entries is None:
            return 0
        loaded = 0
        persistent = self._persistent
        for key, entry in entries.items():
            if key not in persistent:
                persistent[key] = entry
                loaded += 1
        return loaded

    def save(self, path: Any) -> int:
        """Write the persistent layer to disk, merged with whatever is
        already there (union; in-memory entries win), atomically via a
        sibling temp file.  Returns the number of entries written."""
        existing = _read_store(path) or {}
        combined = {**existing, **self._persistent}
        payload = {"version": 1, "entries": combined}
        path = os.fspath(path)
        temp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=0, sort_keys=True)
                handle.write("\n")
            os.replace(temp_path, path)
        except BaseException:
            # Never leave a stale temp sibling behind (e.g. disk full,
            # or a signal between write and replace).
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._dirty.clear()
        return len(combined)

    # -- bookkeeping ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> Dict[str, int]:
        """Counters; persistent-layer hits are reported separately from
        in-memory hits (every persistent hit was first an in-memory
        miss)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "persistent_hits": self.persistent_hits,
            "size": len(self._store),
            "persistent_size": len(self._persistent),
        }

    def clear(self) -> None:
        """Drop the in-memory layer and reset counters.  The persistent
        mirror and the on-disk store survive: ``clear`` is invoked by
        :func:`repro.smt.intern.clear_all_caches`, whose contract is to
        drop *recomputable* state, and persistent entries are keyed by
        structural fingerprints that remain valid across clears."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0


# ---------------------------------------------------------------------------
# The process default
# ---------------------------------------------------------------------------

#: The seed process-wide cache.  Internal: public code obtains a handle
#: via :func:`get_default` (or constructs its own ``ValidityCache`` and
#: installs it with :func:`using_cache` through ``repro.api``).
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
    ``cache``; the previous default is restored on exit.  This is the
    context-manager face of the explicit-handle API surfaced by
    :func:`repro.api.open_cache`."""
    previous = set_default(cache)
    try:
        yield cache
    finally:
        set_default(previous)

