"""Counter / integer case studies (Table 1 rows 1–4).

* **Count-Vaccinated** — two workers count vaccinated household members on
  a shared counter; vaccination status is low, other household data is
  secret and only affects timing.
* **Figure 2** — the paper's running example: workers add per-household
  target counts to a shared integer; the counts are low but the time to
  compute them is secret-dependent (modelled by a high-bounded busy loop).
* **Count-Sick-Days** — workers add low per-employee sick-day counts; the
  rest of the personnel record is secret and affects timing.
* **Figure 1 (secure variant)** — the intro example: both threads race on
  a shared variable with secret-dependent timing, but the raced value is
  never leaked; the constant abstraction verifies it.
* **Figure 1 (commuting variant)** — the intro's repaired program: the
  racing writes are replaced by commutative additions (+3 / +4), so the
  final value is low and may be printed.
"""

from __future__ import annotations

from ..spec.library import (
    assign_constant_abstraction_spec,
    counter_increment_spec,
    integer_add_spec,
)
from ..verifier.declarations import ResourceDecl
from .base import CaseStudy, PaperRow, make_instances

_COUNT_VACCINATED_SRC = """
// Count-Vaccinated: two workers count vaccinated people on a shared counter.
c := alloc(0)
share CounterInc
{
    i1 := 0
    while (i1 < n / 2) {
        d1 := at(hdata, i1)
        k1 := 0
        while (k1 < d1) { k1 := k1 + 1 }          // secret-dependent timing
        if (at(vacc, i1) == 1) {
            atomic [Inc()] { t1 := [c]; [c] := t1 + 1 }
        }
        i1 := i1 + 1
    }
} || {
    i2 := n / 2
    while (i2 < n) {
        d2 := at(hdata, i2)
        k2 := 0
        while (k2 < d2) { k2 := k2 + 1 }
        if (at(vacc, i2) == 1) {
            atomic [Inc()] { t2 := [c]; [c] := t2 + 1 }
        }
        i2 := i2 + 1
    }
}
unshare CounterInc
result := [c]
print(result)
"""

count_vaccinated = CaseStudy(
    name="Count-Vaccinated",
    description="shared counter incremented for each vaccinated person",
    source=_COUNT_VACCINATED_SRC,
    resources=(ResourceDecl("CounterInc", counter_increment_spec(), "c"),),
    low_inputs=frozenset({"n", "vacc"}),
    high_inputs=frozenset({"hdata"}),
    expected_verified=True,
    paper=PaperRow("Counter, increment", "None", 44, 46, 10.15),
    instances=make_instances(
        {"n": 4, "vacc": (1, 0, 1, 1)},
        [{"hdata": (0, 0, 0, 0)}, {"hdata": (3, 0, 2, 5)}, {"hdata": (7, 1, 0, 0)}],
    ),
)

_FIGURE2_SRC = """
// Figure 2: targetSize — workers add per-household target counts.
c := alloc(0)
share IntegerAdd
{
    i1 := 0
    while (i1 < n / 2) {
        t1 := at(targets, i1)
        d1 := at(hcollisions, i1)
        k1 := 0
        while (k1 < d1) { k1 := k1 + 1 }          // hash-collision timing
        atomic [Add(t1)] { v1 := [c]; [c] := v1 + t1 }
        i1 := i1 + 1
    }
} || {
    i2 := n / 2
    while (i2 < n) {
        t2 := at(targets, i2)
        d2 := at(hcollisions, i2)
        k2 := 0
        while (k2 < d2) { k2 := k2 + 1 }
        atomic [Add(t2)] { v2 := [c]; [c] := v2 + t2 }
        i2 := i2 + 1
    }
}
unshare IntegerAdd
result := [c]
print(result)
"""

figure2 = CaseStudy(
    name="Figure 2",
    description="targetSize: workers add low counts to a shared integer",
    source=_FIGURE2_SRC,
    resources=(ResourceDecl("IntegerAdd", integer_add_spec(), "c"),),
    low_inputs=frozenset({"n", "targets"}),
    high_inputs=frozenset({"hcollisions"}),
    expected_verified=True,
    paper=PaperRow("Integer, add", "None", 129, 95, 10.90),
    instances=make_instances(
        {"n": 4, "targets": (2, 0, 1, 3)},
        [{"hcollisions": (0, 0, 0, 0)}, {"hcollisions": (4, 0, 1, 2)}],
    ),
)

_COUNT_SICK_DAYS_SRC = """
// Count-Sick-Days: sum low per-employee sick-day counts.
c := alloc(0)
share IntegerAdd
{
    i1 := 0
    while (i1 < n / 2) {
        s1 := at(sick, i1)
        d1 := at(hrecord, i1)
        k1 := 0
        while (k1 < d1) { k1 := k1 + 1 }
        atomic [Add(s1)] { v1 := [c]; [c] := v1 + s1 }
        i1 := i1 + 1
    }
} || {
    i2 := n / 2
    while (i2 < n) {
        s2 := at(sick, i2)
        d2 := at(hrecord, i2)
        k2 := 0
        while (k2 < d2) { k2 := k2 + 1 }
        atomic [Add(s2)] { v2 := [c]; [c] := v2 + s2 }
        i2 := i2 + 1
    }
}
unshare IntegerAdd
total := [c]
print(total)
"""

count_sick_days = CaseStudy(
    name="Count-Sick-Days",
    description="sum of low sick-day counts with secret-dependent timing",
    source=_COUNT_SICK_DAYS_SRC,
    resources=(ResourceDecl("IntegerAdd", integer_add_spec(), "c"),),
    low_inputs=frozenset({"n", "sick"}),
    high_inputs=frozenset({"hrecord"}),
    expected_verified=True,
    paper=PaperRow("Integer, add", "None", 52, 45, 13.67),
    instances=make_instances(
        {"n": 4, "sick": (1, 2, 0, 4)},
        [{"hrecord": (0, 0, 0, 0)}, {"hrecord": (2, 5, 0, 1)}],
    ),
)

_FIGURE1_SRC = """
// Figure 1 (secure variant): the raced variable is never leaked.
s := alloc(0)
t1 := 0
t2 := 0
share AssignConstantAlpha
{
    while (t1 < 100) { t1 := t1 + 1 }
    atomic [SetTo(3)] { [s] := 3 }
} || {
    while (t2 < h) { t2 := t2 + 1 }
    atomic [SetTo(4)] { [s] := 4 }
}
unshare AssignConstantAlpha
print(0)
"""

figure1 = CaseStudy(
    name="Figure 1",
    description="racing writes under the constant abstraction; nothing leaked",
    source=_FIGURE1_SRC,
    resources=(ResourceDecl("AssignConstantAlpha", assign_constant_abstraction_spec(), "s"),),
    low_inputs=frozenset(),
    high_inputs=frozenset({"h"}),
    expected_verified=True,
    paper=PaperRow("Integer, arbitrary", "Constant", 29, 20, 1.52),
    instances=make_instances({}, [{"h": 0}, {"h": 150}]),
)

_FIGURE1_COMMUTING_SRC = """
// Figure 1, repaired as in the introduction: the writes commute (+3 / +4),
// so the final value is low and may be printed.
s := alloc(0)
t1 := 0
t2 := 0
share IntegerAdd
{
    while (t1 < 100) { t1 := t1 + 1 }
    atomic [Add(3)] { v1 := [s]; [s] := v1 + 3 }
} || {
    while (t2 < h) { t2 := t2 + 1 }
    atomic [Add(4)] { v2 := [s]; [s] := v2 + 4 }
}
unshare IntegerAdd
result := [s]
print(result)
"""

figure1_commuting = CaseStudy(
    name="Figure 1 (commuting)",
    description="the intro's repaired program: +3/+4 commute, result printable",
    source=_FIGURE1_COMMUTING_SRC,
    resources=(ResourceDecl("IntegerAdd", integer_add_spec(), "s"),),
    low_inputs=frozenset(),
    high_inputs=frozenset({"h"}),
    expected_verified=True,
    paper=None,  # not a Table 1 row; used by the Fig. 1 leak benchmark
    instances=make_instances({}, [{"h": 0}, {"h": 150}]),
)

_SEQUENTIAL_TALLY_SRC = """
// Sequential-Tally: one thread sums low entries through the shared API.
// No interference, no secret-dependent observables: the Add block is
// discharged symbolically like the other counter cases.
c := alloc(0)
priv := at(hdata, 0) + at(hdata, 1)       // secret stays private
share IntegerAdd
i := 0
while (i < n) {
    t := at(xs, i)
    atomic [Add(t)] { v := [c]; [c] := v + t }
    i := i + 1
}
unshare IntegerAdd
result := [c]
print(result)
"""

sequential_tally = CaseStudy(
    name="Sequential-Tally",
    description="single-threaded tally over the shared counter API; "
    "its Add block is discharged symbolically like the other counter cases",
    source=_SEQUENTIAL_TALLY_SRC,
    resources=(ResourceDecl("IntegerAdd", integer_add_spec(), "c"),),
    low_inputs=frozenset({"n", "xs"}),
    high_inputs=frozenset({"hdata"}),
    expected_verified=True,
    paper=None,  # not a Table 1 row; the one single-threaded counter case
    instances=make_instances(
        {"n": 3, "xs": (2, 0, 5)},
        [{"hdata": (0, 0)}, {"hdata": (9, 4)}],
    ),
)
