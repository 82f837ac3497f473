"""Catalogue of resource specifications used by the evaluation (Table 1).

Each constructor returns a :class:`ResourceSpecification` with small-scope
domains suitable for the validity checker.  The catalogue covers every
data-structure/abstraction combination in Table 1:

==============================  =====================  ====================
Example                         Data structure          Abstraction
==============================  =====================  ====================
Count-Vaccinated                Counter, increment      None (identity)
Figure 2 / Count-Sick-Days      Integer, add            None
Figure 1                        Integer, arbitrary set  Constant
Mean-Salary                     List, append            Mean (sum, count)
Email-Metadata                  List, append            Multiset
Patient-Statistic               List, append            Length
Debt-Sum                        List, append            Sum
Sick-Employee-Names (treeset)   Set, add                None
Website-Visitor-IPs (listset)   Set, add                None
Figure 3                        HashMap, put            Key set
Sales-By-Region                 HashMap, disjoint put   None (unique actions)
Salary-Histogram                HashMap, increment      None
Count-Purchases                 HashMap, add value      None
Most-Valuable-Purchase          HashMap, cond. put      None
1-Producer-1-Consumer           Queue (totalized)       Produced sequence
Pipeline                        Two queues              Produced sequences
2-Producers-2-Consumers         Queue (totalized)       Produced multiset
==============================  =====================  ====================

The producer–consumer specification follows App. D / Fig. 12: the queue is
*totalized* by letting the buffer go negative (a consume-debt counter), so
produce/consume are total functions and the validity conditions apply.

The module also exposes deliberately *invalid* specifications (e.g. plain
assignment with identity abstraction, sequence abstraction with a shared
producer) used by tests and the ablation benchmark to show which designs
the validity checker rejects.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..heap.multiset import Multiset
from ..lang.values import PMap
from .actions import Action, low_everything, low_first, low_pair
from .resource import ResourceSpecification

# ---------------------------------------------------------------------------
# Integer / counter specifications
# ---------------------------------------------------------------------------

_SMALL_INTS: Tuple[int, ...] = (-2, -1, 0, 1, 2, 3)


def counter_increment_spec() -> ResourceSpecification:
    """Counter with an argument-less increment (Count-Vaccinated)."""
    increment = Action.shared("Inc", lambda value, _arg: value + 1)
    return ResourceSpecification(
        name="CounterInc",
        abstraction=lambda value: value,
        actions=(increment,),
        initial_value=0,
        value_domain=_SMALL_INTS,
        arg_domains={"Inc": (0,)},
        description="shared counter, increment by one; identity abstraction",
    )


def integer_add_spec() -> ResourceSpecification:
    """Integer with commutative add of a low amount (Fig. 2, Count-Sick-Days)."""
    add = Action.shared("Add", lambda value, amount: value + amount, low_projections=low_everything())
    return ResourceSpecification(
        name="IntegerAdd",
        abstraction=lambda value: value,
        actions=(add,),
        initial_value=0,
        value_domain=_SMALL_INTS,
        arg_domains={"Add": _SMALL_INTS},
        description="shared integer, n += low amount; identity abstraction",
    )


def assign_constant_abstraction_spec() -> ResourceSpecification:
    """Arbitrary assignment under the *constant* abstraction (Fig. 1 secure
    variant: the raced variable is never leaked, so nothing about it needs
    to commute)."""
    set_to = Action.shared("SetTo", lambda _value, new: new)
    return ResourceSpecification(
        name="AssignConstantAlpha",
        abstraction=lambda _value: 0,
        actions=(set_to,),
        initial_value=0,
        value_domain=_SMALL_INTS,
        arg_domains={"SetTo": _SMALL_INTS},
        description="arbitrary writes; constant abstraction leaks nothing",
    )


def assign_identity_abstraction_spec() -> ResourceSpecification:
    """INVALID control: arbitrary assignment with identity abstraction —
    the original Fig. 1 program, rightly rejected (writes do not commute)."""
    set_to = Action.shared("SetTo", lambda _value, new: new, low_projections=low_everything())
    return ResourceSpecification(
        name="AssignIdentityAlpha",
        abstraction=lambda value: value,
        actions=(set_to,),
        initial_value=0,
        value_domain=_SMALL_INTS,
        arg_domains={"SetTo": _SMALL_INTS},
        description="arbitrary writes; identity abstraction (INVALID)",
    )


# ---------------------------------------------------------------------------
# List-append specifications (arguments are (tag, amount) pairs where the
# tag models the secret part — a name, creditor, or email header)
# ---------------------------------------------------------------------------

_SMALL_PAIRS: Tuple[tuple, ...] = tuple(
    (tag, amount) for tag in ("x", "y") for amount in (0, 1, 2)
)
_SMALL_SEQS: Tuple[tuple, ...] = (
    (),
    (("x", 1),),
    (("y", 2),),
    (("x", 1), ("y", 2)),
    (("y", 2), ("x", 1)),
)


def _append(value: tuple, item: Any) -> tuple:
    return tuple(value) + (item,)


def list_append_mean_spec() -> ResourceSpecification:
    """List of (name, salary); only the mean salary is leaked (Mean-Salary).

    The abstraction returns the exact pair (sum, count) — the mean without
    rational arithmetic.  Only the *salary* component must be low; the name
    may be secret.
    """
    append = Action.shared(
        "Append",
        _append,
        low_projections=(("salary", lambda item: item[1]),),
    )
    return ResourceSpecification(
        name="ListMean",
        abstraction=lambda value: (sum(item[1] for item in value), len(value)),
        actions=(append,),
        initial_value=(),
        value_domain=_SMALL_SEQS,
        arg_domains={"Append": _SMALL_PAIRS},
        description="append (name, salary); α = (sum, count) of salaries",
    )


def list_append_multiset_spec() -> ResourceSpecification:
    """List whose multiset view is leaked after sorting (Email-Metadata)."""
    append = Action.shared("Append", _append, low_projections=low_everything())
    return ResourceSpecification(
        name="ListMultiset",
        abstraction=lambda value: Multiset(value),
        actions=(append,),
        initial_value=(),
        value_domain=_SMALL_SEQS,
        arg_domains={"Append": _SMALL_PAIRS},
        description="append low items; α = multiset (order hidden)",
    )


def list_append_length_spec() -> ResourceSpecification:
    """List of secret records; only the count is leaked (Patient-Statistic).

    No lowness requirement on the appended item at all — the abstraction
    only counts.
    """
    append = Action.shared("Append", _append)
    return ResourceSpecification(
        name="ListLength",
        abstraction=len,
        actions=(append,),
        initial_value=(),
        value_domain=_SMALL_SEQS,
        arg_domains={"Append": _SMALL_PAIRS},
        description="append anything (may be high); α = length",
    )


def list_append_sum_spec() -> ResourceSpecification:
    """List of (creditor, amount); only the total is leaked (Debt-Sum)."""
    append = Action.shared(
        "Append",
        _append,
        low_projections=(("amount", lambda item: item[1]),),
    )
    return ResourceSpecification(
        name="ListSum",
        abstraction=lambda value: sum(item[1] for item in value),
        actions=(append,),
        initial_value=(),
        value_domain=_SMALL_SEQS,
        arg_domains={"Append": _SMALL_PAIRS},
        description="append (creditor, amount); α = sum of amounts",
    )


def list_append_sequence_spec() -> ResourceSpecification:
    """INVALID control: appends with the *sequence* (identity) abstraction —
    concurrent appends do not commute on the concrete list."""
    append = Action.shared("Append", _append, low_projections=low_everything())
    return ResourceSpecification(
        name="ListSequence",
        abstraction=lambda value: value,
        actions=(append,),
        initial_value=(),
        value_domain=_SMALL_SEQS,
        arg_domains={"Append": _SMALL_PAIRS},
        description="append; identity abstraction (INVALID)",
    )


# ---------------------------------------------------------------------------
# Set specifications
# ---------------------------------------------------------------------------

_SMALL_SETS: Tuple[frozenset, ...] = (
    frozenset(),
    frozenset({1}),
    frozenset({2}),
    frozenset({1, 2}),
)


def set_add_spec() -> ResourceSpecification:
    """Insert low elements into a set (Sick-Employee-Names /
    Website-Visitor-IPs — the same spec serves both implementations,
    demonstrating the reuse point of Sec. 5 'Resource specifications')."""
    add = Action.shared("SetAdd", lambda value, item: value | {item}, low_projections=low_everything())
    return ResourceSpecification(
        name="SetAdd",
        abstraction=lambda value: value,
        actions=(add,),
        initial_value=frozenset(),
        value_domain=_SMALL_SETS,
        arg_domains={"SetAdd": (1, 2, 3)},
        description="set insertion of low elements; identity abstraction",
    )


# ---------------------------------------------------------------------------
# Map specifications
# ---------------------------------------------------------------------------

_SMALL_MAPS: Tuple[PMap, ...] = (
    PMap(),
    PMap({1: 10}),
    PMap({1: 20}),
    PMap({2: 10}),
    PMap({1: 10, 2: 20}),
)
_KEY_VALUE_ARGS: Tuple[tuple, ...] = tuple((key, value) for key in (1, 2) for value in (10, 20))


def map_put_keyset_spec() -> ResourceSpecification:
    """Map put with the key-set abstraction (Fig. 3 / Fig. 4 left):
    only the key must be low; the value may be secret."""
    put = Action.shared(
        "Put",
        lambda mapping, item: mapping.put(item[0], item[1]),
        low_projections=low_first(),
    )
    return ResourceSpecification(
        name="MapKeySet",
        abstraction=lambda mapping: mapping.keys(),
        actions=(put,),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains={"Put": _KEY_VALUE_ARGS},
        description="put (low key, any value); α = dom (Fig. 4 left)",
    )


def map_put_identity_spec() -> ResourceSpecification:
    """INVALID control: map put with identity abstraction — two puts to the
    same key with different values do not commute (the Fig. 3 discussion)."""
    put = Action.shared(
        "Put",
        lambda mapping, item: mapping.put(item[0], item[1]),
        low_projections=low_pair(),
    )
    return ResourceSpecification(
        name="MapIdentity",
        abstraction=lambda mapping: mapping,
        actions=(put,),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains={"Put": _KEY_VALUE_ARGS},
        description="put; identity abstraction (INVALID: same-key overwrite)",
    )


def map_disjoint_put_spec(ranges: Tuple[frozenset, ...] = (frozenset({1}), frozenset({2}))) -> ResourceSpecification:
    """Fig. 4 (right) / Sales-By-Region: one *unique* put action per thread,
    each restricted to its own key range; identity abstraction."""
    actions = []
    arg_domains = {}
    for index, key_range in enumerate(ranges, start=1):
        name = f"Put{index}"
        actions.append(
            Action.unique(
                name,
                lambda mapping, item: mapping.put(item[0], item[1]),
                low_projections=low_pair(),
                unary_requires=(lambda key_range: lambda item: item[0] in key_range)(key_range),
            )
        )
        arg_domains[name] = tuple((key, value) for key in sorted(key_range) for value in (10, 20))
    return ResourceSpecification(
        name="MapDisjointPut",
        abstraction=lambda mapping: mapping,
        actions=tuple(actions),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains=arg_domains,
        description="unique per-thread puts in disjoint key ranges; α = id (Fig. 4 right)",
    )


def map_histogram_spec() -> ResourceSpecification:
    """Salary-Histogram: each put increments the count stored under a low
    bucket key; increments commute even on the same key."""
    increment = Action.shared(
        "IncBucket",
        lambda mapping, key: mapping.put(key, mapping.get(key, 0) + 1),
        low_projections=low_everything(),
    )
    return ResourceSpecification(
        name="MapHistogram",
        abstraction=lambda mapping: mapping,
        actions=(increment,),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains={"IncBucket": (1, 2)},
        description="histogram: m[k] += 1 on low bucket keys; α = id",
    )


def map_add_value_spec() -> ResourceSpecification:
    """Count-Purchases: add a low amount to the value under a low key."""
    add_value = Action.shared(
        "AddVal",
        lambda mapping, item: mapping.put(item[0], mapping.get(item[0], 0) + item[1]),
        low_projections=low_pair(),
    )
    return ResourceSpecification(
        name="MapAddValue",
        abstraction=lambda mapping: mapping,
        actions=(add_value,),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains={"AddVal": _KEY_VALUE_ARGS},
        description="m[k] += low amount; α = id",
    )


def map_put_if_greater_spec() -> ResourceSpecification:
    """Most-Valuable-Purchase: conditional put keeping the maximum value."""

    def put_if_greater(mapping: PMap, item: tuple) -> PMap:
        key, value = item
        current = mapping.get(key, None)
        if current is None or value > current:
            return mapping.put(key, value)
        return mapping

    put = Action.shared("PutMax", put_if_greater, low_projections=low_pair())
    return ResourceSpecification(
        name="MapPutMax",
        abstraction=lambda mapping: mapping,
        actions=(put,),
        initial_value=PMap(),
        value_domain=_SMALL_MAPS,
        arg_domains={"PutMax": _KEY_VALUE_ARGS},
        description="conditional put keeping max; α = id",
    )


# ---------------------------------------------------------------------------
# Producer–consumer queues (App. D / Fig. 12)
# ---------------------------------------------------------------------------
#
# Resource value: (buffer, produced) where
#   buffer   — tuple of queued items, or a negative int (consume debt),
#   produced — tuple of all values produced so far (ghost state).
# Both actions are total (the App. D totalization): consuming from an
# empty queue pushes the buffer to -1, -2, ...; producing while in debt
# pays off one unit of debt.


def _queue_produce(value: tuple, item: Any) -> tuple:
    buffer, produced = value
    produced = produced + (item,)
    if isinstance(buffer, int):
        # buffer is a negative debt counter (Left(-n) in Fig. 12)
        if buffer == -1:
            return ((), produced)
        return (buffer + 1, produced)
    return (buffer + (item,), produced)


def _queue_consume(value: tuple, _arg: Any) -> tuple:
    buffer, produced = value
    if isinstance(buffer, int):
        return (buffer - 1, produced)
    if buffer == ():
        return (-1, produced)
    return (buffer[1:], produced)


_QUEUE_VALUES: Tuple[tuple, ...] = (
    ((), ()),
    ((1,), (1,)),
    ((1, 2), (1, 2)),
    ((2,), (1, 2)),
    ((), (1, 2)),
    (-1, (1,)),
    (-2, ()),
)


def producer_consumer_spec(
    producers: int = 1,
    consumers: int = 1,
    suffix: str = "",
) -> ResourceSpecification:
    """The totalized queue specification (Fig. 12), parameterized by role
    multiplicity.

    * With one producer and one consumer, both actions are *unique* and the
      abstraction may be the produced *sequence* (order and all) — hence
      the consumed sequence, a prefix of it, is low (Table 1 row
      "1-Producer-1-Consumer").
    * With multiple producers or consumers, the corresponding action must
      be shared, and only the *multiset* view of production is low (row
      "2-Producers-2-Consumers") — the sequence abstraction is invalid,
      which :mod:`repro.spec.validity` demonstrates.

    ``suffix`` is appended to the action names (``Prod1``/``Cons1``), so a
    program can use several queue resources (the Pipeline example) without
    ambiguous action names.
    """
    if producers < 1 or consumers < 1:
        raise ValueError("need at least one producer and one consumer")
    multi = producers > 1 or consumers > 1
    prod_name = "Prod" + suffix
    cons_name = "Cons" + suffix
    if multi:
        abstraction = lambda value: Multiset(value[1])  # noqa: E731
        produce = Action.shared(prod_name, _queue_produce, low_projections=low_everything())
        consume = Action.unique(cons_name, _queue_consume) if consumers == 1 else None
        if consumers > 1:
            # both roles shared: merge consume into the shared action space
            # by making consume a second *unique-free* operation; the paper
            # merges multiple shared actions into one (Sec. 3.2), which
            # merge_shared implements — here we tag arguments instead.
            def tagged_apply(value: tuple, tagged: tuple) -> tuple:
                tag, arg = tagged
                if tag == "prod":
                    return _queue_produce(value, arg)
                return _queue_consume(value, arg)

            # The merged action's precondition requires the whole tagged
            # argument to be low: produce arguments must match exactly and
            # consume tags trivially do.  (Slightly stronger than the
            # minimal relational precondition, but statically checkable.)
            op_name = "Op" + suffix
            merged = Action.shared(op_name, tagged_apply, low_projections=low_everything())
            return ResourceSpecification(
                name=f"Queue{producers}P{consumers}C{suffix}",
                abstraction=abstraction,
                actions=(merged,),
                initial_value=((), ()),
                value_domain=_QUEUE_VALUES,
                arg_domains={op_name: (("prod", 1), ("prod", 2), ("cons", 0))},
                description="totalized queue; shared prod+cons; α = produced multiset",
            )
        actions = (produce, consume)
        arg_domains = {prod_name: (1, 2), cons_name: (0,)}
    else:
        abstraction = lambda value: value[1]  # noqa: E731 — produced sequence
        produce = Action.unique(prod_name, _queue_produce, low_projections=low_everything())
        consume = Action.unique(cons_name, _queue_consume)
        actions = (produce, consume)
        arg_domains = {prod_name: (1, 2), cons_name: (0,)}
    return ResourceSpecification(
        name=f"Queue{producers}P{consumers}C{suffix}",
        abstraction=abstraction,
        actions=actions,
        initial_value=((), ()),
        value_domain=_QUEUE_VALUES,
        arg_domains=arg_domains,
        description="totalized queue (Fig. 12); α = produced "
        + ("multiset" if multi else "sequence"),
    )


def multi_producer_sequence_spec() -> ResourceSpecification:
    """INVALID control: two producers with the *sequence* abstraction —
    production order is scheduler-dependent, so this must be rejected
    (the App. D discussion and Fig. 11)."""
    produce = Action.shared("Prod", _queue_produce, low_projections=low_everything())
    consume = Action.unique("Cons", _queue_consume)
    return ResourceSpecification(
        name="QueueSeqAlphaInvalid",
        abstraction=lambda value: value[1],
        actions=(produce, consume),
        initial_value=((), ()),
        value_domain=_QUEUE_VALUES,
        arg_domains={"Prod": (1, 2), "Cons": (0,)},
        description="shared producer with sequence abstraction (INVALID)",
    )


# ---------------------------------------------------------------------------
# Object-language bindings for queue operations
# ---------------------------------------------------------------------------
#
# Atomic bodies in the case studies implement queue actions with these pure
# functions; registering them makes them callable from program text.

from ..lang.values import PURE_FUNCTIONS  # noqa: E402


def _queue_size(value: tuple) -> int:
    buffer, _ = value
    if isinstance(buffer, int):
        return buffer  # negative debt
    return len(buffer)


def _queue_head(value: tuple) -> object:
    buffer, _ = value
    if isinstance(buffer, int) or not buffer:
        return 0
    return buffer[0]


PURE_FUNCTIONS.setdefault("emptyQueue", lambda: ((), ()))
PURE_FUNCTIONS.setdefault("qProduce", _queue_produce)
PURE_FUNCTIONS.setdefault("qConsume", _queue_consume)
PURE_FUNCTIONS.setdefault("qSize", _queue_size)
PURE_FUNCTIONS.setdefault("qHead", _queue_head)
PURE_FUNCTIONS.setdefault("producedSeq", lambda value: value[1])
PURE_FUNCTIONS.setdefault("producedMs", lambda value: Multiset(value[1]))
PURE_FUNCTIONS.setdefault("producedSorted", lambda value: tuple(sorted(value[1])))
PURE_FUNCTIONS.setdefault("meanStats", lambda value: (sum(item[1] for item in value), len(value)))
PURE_FUNCTIONS.setdefault("debtSum", lambda value: sum(item[1] for item in value))
PURE_FUNCTIONS.setdefault("seqLen", len)
PURE_FUNCTIONS.setdefault("seqMultiset", lambda value: Multiset(value))


# ---------------------------------------------------------------------------
# Value-dependent sensitivity (Sec. 3.4)
# ---------------------------------------------------------------------------

_VDEP_PAIRS: Tuple[tuple, ...] = tuple(
    (flag, value) for flag in (False, True) for value in (10, 20)
)
_VDEP_SEQS: Tuple[tuple, ...] = (
    (),
    ((True, 10),),
    ((False, 20),),
    ((True, 10), (False, 20)),
    ((False, 10), (True, 20)),
)


def value_dependent_list_spec() -> ResourceSpecification:
    """List of (is_public, value) pairs with value-dependent sensitivity.

    The paper's Sec. 3.4 example: "a data structure might contain pairs of
    booleans and other values, where the boolean expresses the sensitivity
    of the other value".  The flag must be low; the value must be low
    *only when the flag says public* — the relational precondition is the
    implication ``Low(flag) ∧ (flag ⇒ Low(value))``.  The abstraction is
    the multiset of public values (plus the total count, which the flags
    make low), so the sorted public values may be released while secret
    entries stay protected.
    """

    def relational(arg1: tuple, arg2: tuple) -> bool:
        flag1, value1 = arg1
        flag2, value2 = arg2
        if flag1 != flag2:
            return False  # Low(flag)
        if flag1 and value1 != value2:
            return False  # flag ⇒ Low(value)
        return True

    append = Action.shared(
        "AppendLabelled",
        _append,
        relational_requires=relational,
    )
    return ResourceSpecification(
        name="ValueDepList",
        abstraction=lambda value: (
            Multiset(item for item in value if item[0]),
            len(value),
        ),
        actions=(append,),
        initial_value=(),
        value_domain=_VDEP_SEQS,
        arg_domains={"AppendLabelled": _VDEP_PAIRS},
        description="append (is_public, value); pre = Low(flag) ∧ (flag ⇒ Low(value)); "
        "α = (multiset of public values, count)",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

VALID_SPECS = {
    "ValueDepList": value_dependent_list_spec,
    "CounterInc": counter_increment_spec,
    "IntegerAdd": integer_add_spec,
    "AssignConstantAlpha": assign_constant_abstraction_spec,
    "ListMean": list_append_mean_spec,
    "ListMultiset": list_append_multiset_spec,
    "ListLength": list_append_length_spec,
    "ListSum": list_append_sum_spec,
    "SetAdd": set_add_spec,
    "MapKeySet": map_put_keyset_spec,
    "MapDisjointPut": map_disjoint_put_spec,
    "MapHistogram": map_histogram_spec,
    "MapAddValue": map_add_value_spec,
    "MapPutMax": map_put_if_greater_spec,
    "Queue1P1C": producer_consumer_spec,
    "Queue2P2C": lambda: producer_consumer_spec(2, 2),
}

INVALID_SPECS = {
    "AssignIdentityAlpha": assign_identity_abstraction_spec,
    "ListSequence": list_append_sequence_spec,
    "MapIdentity": map_put_identity_spec,
    "QueueSeqAlphaInvalid": multi_producer_sequence_spec,
}
