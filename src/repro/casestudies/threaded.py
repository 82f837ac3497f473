"""Fork/join case studies (HyperViper's richer language, Sec. 5 / App. E).

HyperViper verifies dynamic threads created with ``fork``/``join`` (its
App. E encoding of Figure 3 forks one worker per input segment).  These
case studies replay that pattern on our pipeline.  They are ordinary
:class:`~repro.casestudies.base.CaseStudy` values: the program is written
with ``fork``/``join``, :meth:`CaseStudy.program` reduces it to the
paper's structured ``||`` calculus with :mod:`repro.lang.desugar`, and the
standard pipeline verifies the result unchanged.  They are found by
:func:`~repro.casestudies.case_by_name` (so the CLI, ``repro.api`` and the
daemon verify them by name) but are kept out of ``ALL_CASES``.  To run
one on the dynamic thread pool, parse its ``source`` with
:func:`~repro.lang.parser.parse_threaded_program` and pass it to
:func:`~repro.lang.threads.run_threads`.

* **Figure 3 (fork/join)** — the App. E program: ``main`` forks two
  ``worker`` threads that put (low address, secret reason) pairs into a
  shared map, joins them, and prints the sorted key set.
* **Figure 2 (fork/join)** — the counter variant with dynamically created
  workers.
* **Fork/join high key** — a negative control: a forked worker puts a
  *high* key into the map, which must be rejected after desugaring.
"""

from ..spec.library import integer_add_spec, map_put_keyset_spec
from ..verifier.declarations import ResourceDecl
from .base import CaseStudy, make_instances


_FIGURE3_FORKJOIN_SRC = """
// Figure 3, App. E style: main forks two workers over disjoint segments.
procedure worker(f, t, m, addrs, reasons) {
    i := f
    while (i < t) {
        adr := at(addrs, i)
        rsn := at(reasons, i)
        atomic [Put(pair(adr, rsn))] { mm := [m]; [m] := put(mm, adr, rsn) }
        i := i + 1
    }
}
m := alloc(emptyMap())
share MapKeySet
t1 := fork worker(0, n / 2, m, addrs, reasons)
t2 := fork worker(n / 2, n, m, addrs, reasons)
join worker(t1)
join worker(t2)
unshare MapKeySet
mv := [m]
print(sort(setToSeq(keys(mv))))
"""

figure3_forkjoin = CaseStudy(
    name="Figure 3 (fork/join)",
    description="App. E: dynamically forked workers put into a shared map",
    source=_FIGURE3_FORKJOIN_SRC,
    resources=(ResourceDecl("MapKeySet", map_put_keyset_spec(), "m", low_views=("keys",)),),
    low_inputs=frozenset({"n", "addrs"}),
    high_inputs=frozenset({"reasons"}),
    expected_verified=True,
    instances=make_instances(
        {"n": 4, "addrs": (1, 2, 1, 3)},
        [{"reasons": (10, 20, 30, 40)}, {"reasons": (99, 98, 97, 96)}],
    ),
)

_FIGURE2_FORKJOIN_SRC = """
// Figure 2, fork/join variant: workers add low target counts to a counter.
procedure worker(f, t, c, targets, hcollisions) {
    i := f
    while (i < t) {
        v := at(targets, i)
        d := at(hcollisions, i)
        k := 0
        while (k < d) { k := k + 1 }              // secret-dependent timing
        atomic [Add(v)] { s := [c]; [c] := s + v }
        i := i + 1
    }
}
c := alloc(0)
share IntegerAdd
t1 := fork worker(0, n / 2, c, targets, hcollisions)
t2 := fork worker(n / 2, n, c, targets, hcollisions)
join worker(t1)
join worker(t2)
unshare IntegerAdd
result := [c]
print(result)
"""

figure2_forkjoin = CaseStudy(
    name="Figure 2 (fork/join)",
    description="dynamically forked workers add to a shared counter",
    source=_FIGURE2_FORKJOIN_SRC,
    resources=(ResourceDecl("IntegerAdd", integer_add_spec(), "c"),),
    low_inputs=frozenset({"n", "targets"}),
    high_inputs=frozenset({"hcollisions"}),
    expected_verified=True,
    instances=make_instances(
        {"n": 4, "targets": (2, 0, 1, 3)},
        [{"hcollisions": (0, 0, 0, 0)}, {"hcollisions": (4, 0, 1, 2)}],
    ),
)

_FORKJOIN_HIGH_KEY_SRC = """
// Negative control: the forked worker puts a HIGH key into the map; the
// printed key set then leaks the secret.
procedure worker(f, t, m, secrets) {
    i := f
    while (i < t) {
        s := at(secrets, i)
        atomic [Put(pair(s, 0))] { mm := [m]; [m] := put(mm, s, 0) }
        i := i + 1
    }
}
m := alloc(emptyMap())
share MapKeySet
t1 := fork worker(0, n / 2, m, secrets)
t2 := fork worker(n / 2, n, m, secrets)
join worker(t1)
join worker(t2)
unshare MapKeySet
mv := [m]
print(sort(setToSeq(keys(mv))))
"""

forkjoin_high_key = CaseStudy(
    name="Fork/join high key",
    description="forked workers put a high key — must be rejected",
    source=_FORKJOIN_HIGH_KEY_SRC,
    resources=(ResourceDecl("MapKeySet", map_put_keyset_spec(), "m", low_views=("keys",)),),
    low_inputs=frozenset({"n"}),
    high_inputs=frozenset({"secrets"}),
    expected_verified=False,
    instances=make_instances(
        {"n": 2},
        [{"secrets": (1, 2)}, {"secrets": (3, 4)}],
    ),
)

THREADED_CASES: tuple[CaseStudy, ...] = (
    figure3_forkjoin,
    figure2_forkjoin,
    forkjoin_high_key,
)
