"""Resource specification validity (Def. 3.1).

A specification ``⟨α, f_as, F_au⟩`` is *valid* iff

(A) every action's relational precondition preserves low-ness of the
    abstract view:  ``α(v) = α(v') ∧ pre_a(arg, arg')  ⟹
    α(f_a(v, arg)) = α(f_a(v', arg'))``;

(B) all relevant pairs of actions commute modulo the abstraction, even
    from two *different* start values with equal abstraction:
    ``α(v) = α(v')  ⟹  α(f_a'(f_a(v, x), y)) = α(f_a(f_a'(v', y), x))``.
    Relevant pairs: (shared, shared), (shared, unique_i), and
    (unique_i, unique_j) for i ≠ j — unique actions need not commute with
    themselves (Sec. 2.7).

HyperViper discharges these conditions with Z3; we discharge them by
exhaustive enumeration over the specification's declared small-scope
domains, optionally extended by randomized search.  A returned
counterexample is always genuine (it is re-checked by evaluation); a PASS
is a bounded guarantee, like an SMT check under quantifier instantiation
limits.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Tuple

from ..smt.intern import register_cache
from .actions import Action
from .resource import ResourceSpecification

#: Identity-keyed memo of Def. 3.1 reports.  The enumeration is pure in
#: the (frozen) specification, so a spec that stays alive — every
#: catalogue entry, in the CLI sweep or a daemon worker — pays for its
#: validity check once per process instead of once per request.  Entries hold a
#: weakref so a collected spec frees its report (and a recycled ``id``
#: can never alias: the stored ref is checked against the live object).
_REPORT_MEMO: dict = register_cache({})


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness that a validity condition fails."""

    condition: str  # 'A' or 'B'
    action: str
    other_action: Optional[str]
    values: Tuple[Any, ...]
    args: Tuple[Any, ...]
    detail: str

    def __str__(self) -> str:
        return (
            f"condition ({self.condition}) fails for {self.action}"
            + (f"/{self.other_action}" if self.other_action else "")
            + f": values={self.values!r} args={self.args!r} — {self.detail}"
        )


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of checking Def. 3.1 on a specification."""

    spec_name: str
    valid: bool
    counterexamples: Tuple[Counterexample, ...]
    checks_performed: int

    def __bool__(self) -> bool:
        return self.valid


def _alpha_groups(spec: ResourceSpecification) -> list[list[Any]]:
    """Group the value domain into classes with equal abstraction."""
    groups: dict[Any, list[Any]] = {}
    for value in spec.value_domain:
        groups.setdefault(spec.abstraction(value), []).append(value)
    return list(groups.values())


def check_condition_a(
    spec: ResourceSpecification,
    stop_at_first: bool = True,
) -> Tuple[list[Counterexample], int]:
    """Check Def. 3.1 (A) over the declared domains.

    The comparison is quadratic in the domains, but each compared side
    depends only on one (value, argument) pair, so ``α(f_a(v, x))`` is
    computed lazily once per pair and memoized (index-keyed, so domains
    may contain unhashable values).  Iteration order, check counts and
    the first counterexample are identical to the direct nested loops.
    """
    alpha = spec.abstraction
    counterexamples: list[Counterexample] = []
    checks = 0
    groups = _alpha_groups(spec)
    for action in spec.actions:
        args = list(spec.arg_domain(action.name))
        arg_pairs = [
            (j1, j2)
            for (j1, arg1), (j2, arg2) in itertools.product(enumerate(args), repeat=2)
            if action.precondition(arg1, arg2)
        ]
        apply_action = action.apply
        for group in groups:
            memo: dict[Tuple[int, int], Any] = {}

            def outcome(i: int, j: int, _group=group, _memo=memo) -> Any:
                key = (i, j)
                try:
                    return _memo[key]
                except KeyError:
                    result = alpha(apply_action(_group[i], args[j]))
                    _memo[key] = result
                    return result

            for (i1, value1), (i2, value2) in itertools.product(
                enumerate(group), repeat=2
            ):
                for j1, j2 in arg_pairs:
                    checks += 1
                    result1 = outcome(i1, j1)
                    result2 = outcome(i2, j2)
                    if result1 != result2:
                        counterexamples.append(
                            Counterexample(
                                condition="A",
                                action=action.name,
                                other_action=None,
                                values=(value1, value2),
                                args=(args[j1], args[j2]),
                                detail=f"abstractions diverge: {result1!r} vs {result2!r}",
                            )
                        )
                        if stop_at_first:
                            return counterexamples, checks
    return counterexamples, checks


def check_condition_b(
    spec: ResourceSpecification,
    stop_at_first: bool = True,
) -> Tuple[list[Counterexample], int]:
    """Check Def. 3.1 (B) — abstract commutativity — over the domains."""
    alpha = spec.abstraction
    counterexamples: list[Counterexample] = []
    checks = 0
    groups = _alpha_groups(spec)
    for first, second in spec.commuting_pairs():
        first_args = list(spec.arg_domain(first.name))
        second_args = list(spec.arg_domain(second.name))
        arg_index_pairs = list(
            itertools.product(range(len(first_args)), range(len(second_args)))
        )
        for group in groups:
            # Each side of the commutation equation depends on one start
            # value and the two arguments; memoize per (value, args) so the
            # quadratic value1 × value2 comparison reuses applications.
            left_memo: dict[Tuple[int, int, int], Any] = {}
            right_memo: dict[Tuple[int, int, int], Any] = {}

            def left_of(i: int, jf: int, js: int, _group=group, _memo=left_memo) -> Any:
                key = (i, jf, js)
                try:
                    return _memo[key]
                except KeyError:
                    result = alpha(
                        second.apply(first.apply(_group[i], first_args[jf]), second_args[js])
                    )
                    _memo[key] = result
                    return result

            def right_of(i: int, jf: int, js: int, _group=group, _memo=right_memo) -> Any:
                key = (i, jf, js)
                try:
                    return _memo[key]
                except KeyError:
                    result = alpha(
                        first.apply(second.apply(_group[i], second_args[js]), first_args[jf])
                    )
                    _memo[key] = result
                    return result

            for (i1, value1), (i2, value2) in itertools.product(
                enumerate(group), repeat=2
            ):
                for jf, js in arg_index_pairs:
                    arg_first = first_args[jf]
                    arg_second = second_args[js]
                    checks += 1
                    left = left_of(i1, jf, js)
                    right = right_of(i2, jf, js)
                    if left != right:
                        counterexamples.append(
                            Counterexample(
                                condition="B",
                                action=first.name,
                                other_action=second.name,
                                values=(value1, value2),
                                args=(arg_first, arg_second),
                                detail=f"order matters modulo α: {left!r} vs {right!r}",
                            )
                        )
                        if stop_at_first:
                            return counterexamples, checks
    return counterexamples, checks


def check_validity(
    spec: ResourceSpecification,
    stop_at_first: bool = True,
) -> ValidityReport:
    """Check Def. 3.1 (A) and (B) on the specification's domains."""
    if stop_at_first:
        entry = _REPORT_MEMO.get(id(spec))
        if entry is not None and entry[0]() is spec:
            return entry[1]
    ce_a, checks_a = check_condition_a(spec, stop_at_first)
    if ce_a and stop_at_first:
        report = ValidityReport(spec.name, False, tuple(ce_a), checks_a)
    else:
        ce_b, checks_b = check_condition_b(spec, stop_at_first)
        all_ce = tuple(ce_a + ce_b)
        report = ValidityReport(spec.name, not all_ce, all_ce, checks_a + checks_b)
    if stop_at_first:
        try:
            # Bind the memo as a default: at interpreter shutdown the
            # module global may already be None when late GC fires this.
            ref = weakref.ref(
                spec, lambda _ref, key=id(spec), memo=_REPORT_MEMO: memo.pop(key, None)
            )
        except TypeError:
            pass
        else:
            _REPORT_MEMO[id(spec)] = (ref, report)
    return report


def check_validity_batch(
    specs: Iterable[ResourceSpecification],
) -> list[ValidityReport]:
    """Def. 3.1 reports for several independent specifications, in
    input order."""
    return [check_validity(spec) for spec in specs]


def fuzz_validity(
    spec: ResourceSpecification,
    value_gen: Callable[[random.Random], Any],
    arg_gens: dict[str, Callable[[random.Random], Any]],
    iterations: int = 2_000,
    seed: int = 0,
) -> ValidityReport:
    """Randomized validity search beyond the declared domains.

    ``value_gen`` draws resource values and ``arg_gens[name]`` draws
    arguments for each action; a discovered counterexample is returned
    exactly as from :func:`check_validity`.
    """
    rng = random.Random(seed)
    alpha = spec.abstraction
    counterexamples: list[Counterexample] = []
    checks = 0
    pairs = list(spec.commuting_pairs())
    for _ in range(iterations):
        checks += 1
        # Condition (A) probe: same value (so abstractions trivially equal)
        # plus a precondition-respecting argument pair.
        action = rng.choice(spec.actions)
        value = value_gen(rng)
        arg1 = arg_gens[action.name](rng)
        arg2 = arg_gens[action.name](rng)
        if action.precondition(arg1, arg2):
            if alpha(action.apply(value, arg1)) != alpha(action.apply(value, arg2)):
                counterexamples.append(
                    Counterexample("A", action.name, None, (value, value), (arg1, arg2), "fuzz")
                )
                break
        # Condition (B) probe.
        if pairs:
            first, second = rng.choice(pairs)
            value = value_gen(rng)
            arg_first = arg_gens[first.name](rng)
            arg_second = arg_gens[second.name](rng)
            left = alpha(second.apply(first.apply(value, arg_first), arg_second))
            right = alpha(first.apply(second.apply(value, arg_second), arg_first))
            if left != right:
                counterexamples.append(
                    Counterexample("B", first.name, second.name, (value, value), (arg_first, arg_second), "fuzz")
                )
                break
    return ValidityReport(spec.name, not counterexamples, tuple(counterexamples), checks)
