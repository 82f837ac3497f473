"""Inference of preconditions and abstractions for resource specifications.

The paper's related work points to automatic inference of commutativity
conditions (Bansal et al. 2018) and notes that the same data structure can
carry different abstractions for different uses (Sec. 6).  This module
automates two specification-authoring steps on top of the Def. 3.1
validity checker:

* :func:`infer_preconditions` — given a specification's actions and
  abstraction, search the lattice of candidate relational preconditions
  (built from "this projection of the argument is low" atoms) for the
  *weakest* ones that make the specification valid.  This answers "which
  argument parts must be low?" — e.g. for the key-set map abstraction it
  discovers that only the key needs to be low (Fig. 4 left), and for the
  identity abstraction that even full lowness cannot repair same-key puts.

* :func:`infer_abstraction` — given actions (with their declared
  preconditions), test a catalogue of standard abstractions (identity,
  multiset/sorted view, length, sum, key set, constant, ...) and return
  the valid ones ordered from *finest* to coarsest, where precision is
  measured by how many value pairs of the domain the abstraction
  distinguishes.  The finest valid abstraction is the most informative
  public view the data structure can expose without a value channel —
  the quantity the paper's examples pick by hand (Table 1's
  "Abstraction" column).

Both searches enumerate candidates and delegate every judgment to
:func:`repro.spec.validity.check_validity`, so inferred results carry the
same bounded-soundness status as hand-written specifications.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Tuple

from ..heap.multiset import Multiset
from ..lang.values import PMap
from .actions import Action
from .resource import ResourceSpecification
from .validity import ValidityReport, check_validity

Projection = Tuple[str, Callable[[Any], Any]]


# ---------------------------------------------------------------------------
# Candidate projections
# ---------------------------------------------------------------------------


def _is_pair(value: Any) -> bool:
    return isinstance(value, tuple) and len(value) == 2


def candidate_projections(arg_domain: Sequence[Any]) -> Tuple[Projection, ...]:
    """Projection atoms applicable to the given argument domain.

    Scalars offer only the identity ("the whole argument is low"); pairs
    additionally offer their components (Fig. 4's ``Low(key)`` /
    ``Low(val)``).
    """
    projections: list[Projection] = [("arg", lambda arg: arg)]
    if all(_is_pair(arg) for arg in arg_domain) and arg_domain:
        projections = [
            ("fst", lambda arg: arg[0]),
            ("snd", lambda arg: arg[1]),
        ]
    return tuple(projections)


@dataclass(frozen=True)
class InferredPrecondition:
    """A sufficient precondition found for one action."""

    action: str
    low_projections: Tuple[str, ...]

    def __str__(self) -> str:
        if not self.low_projections:
            return f"{self.action}: no lowness required"
        atoms = " ∧ ".join(f"Low({name})" for name in self.low_projections)
        return f"{self.action}: {atoms}"


@dataclass(frozen=True)
class PreconditionInference:
    """Result of the precondition search."""

    spec_name: str
    found: bool
    preconditions: Tuple[InferredPrecondition, ...]
    candidates_tried: int
    report: Optional[ValidityReport] = None

    def projection_names(self, action: str) -> Tuple[str, ...]:
        for entry in self.preconditions:
            if entry.action == action:
                return entry.low_projections
        raise KeyError(action)


def _with_projections(
    spec: ResourceSpecification,
    assignment: Mapping[str, Tuple[Projection, ...]],
) -> ResourceSpecification:
    """The specification with each action's low projections replaced."""
    new_actions = tuple(
        replace(
            action,
            low_projections=tuple(assignment[action.name]),
            relational_requires=None,
        )
        for action in spec.actions
    )
    return replace(spec, actions=new_actions)


def infer_preconditions(spec: ResourceSpecification) -> PreconditionInference:
    """Find weakest low-projection preconditions that validate ``spec``.

    Keeps each action's ``unary_requires`` (a per-execution constraint
    like "key in my range") and searches over which projections must be
    low.  Candidates are explored from weakest (nothing low) to strongest
    (everything low); the first valid assignment in that order is
    returned, preferring fewer and smaller atoms.
    """
    per_action: dict[str, Tuple[Tuple[Projection, ...], ...]] = {}
    for action in spec.actions:
        atoms = candidate_projections(spec.arg_domain(action.name))
        subsets: list[Tuple[Projection, ...]] = []
        for size in range(len(atoms) + 1):
            subsets.extend(itertools.combinations(atoms, size))
        per_action[action.name] = tuple(subsets)

    action_names = [action.name for action in spec.actions]
    assignments = itertools.product(*(per_action[name] for name in action_names))
    # Sort candidate tuples by total strength so the weakest valid
    # assignment is found first.
    ranked = sorted(assignments, key=lambda combo: sum(len(subset) for subset in combo))
    tried = 0
    for combo in ranked:
        tried += 1
        assignment = dict(zip(action_names, combo))
        report = check_validity(_with_projections(spec, assignment))
        if report.valid:
            inferred = tuple(
                InferredPrecondition(name, tuple(atom_name for atom_name, _ in assignment[name]))
                for name in action_names
            )
            return PreconditionInference(spec.name, True, inferred, tried, report)
    return PreconditionInference(spec.name, False, (), tried, None)


# ---------------------------------------------------------------------------
# Abstraction inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateAbstraction:
    """A named abstraction function for the catalogue."""

    name: str
    function: Callable[[Any], Any]

    def __repr__(self) -> str:
        return f"CandidateAbstraction({self.name!r})"


def _sum_of(value: Any) -> Any:
    return sum(value)


def _mean_of(value: Any) -> Any:
    # Mean as an exact pair (sum, len) to stay in integer arithmetic.
    return (sum(value), len(value)) if value else (0, 0)


STANDARD_ABSTRACTIONS: Tuple[CandidateAbstraction, ...] = (
    CandidateAbstraction("identity", lambda value: value),
    CandidateAbstraction("multiset", lambda value: Multiset(value)),
    CandidateAbstraction("sorted", lambda value: tuple(sorted(value, key=repr))),
    CandidateAbstraction("set", lambda value: frozenset(value)),
    CandidateAbstraction("length", len),
    CandidateAbstraction("sum", _sum_of),
    CandidateAbstraction("mean", _mean_of),
    CandidateAbstraction("keyset", lambda value: value.keys()),
    CandidateAbstraction("constant", lambda value: 0),
)


def _applicable(candidate: CandidateAbstraction, domain: Sequence[Any]) -> bool:
    """An abstraction applies if it evaluates and is hashable on the
    whole value domain."""
    try:
        for value in domain:
            hash(candidate.function(value))
    except Exception:
        return False
    return True


def precision(function: Callable[[Any], Any], domain: Sequence[Any]) -> int:
    """How many value pairs of the domain the abstraction distinguishes.

    The identity tops this measure; the constant abstraction bottoms it at
    zero.  This induces the finest-to-coarsest ordering used to rank
    valid abstractions.
    """
    count = 0
    for value1, value2 in itertools.combinations(domain, 2):
        if function(value1) != function(value2):
            count += 1
    return count


@dataclass(frozen=True)
class AbstractionInference:
    """Valid abstractions for a specification, finest first."""

    spec_name: str
    valid: Tuple[CandidateAbstraction, ...]
    invalid: Tuple[CandidateAbstraction, ...]
    candidates_tried: int

    @property
    def finest(self) -> Optional[CandidateAbstraction]:
        return self.valid[0] if self.valid else None

    def names(self) -> Tuple[str, ...]:
        return tuple(candidate.name for candidate in self.valid)


def infer_abstraction(
    spec: ResourceSpecification,
    candidates: Sequence[CandidateAbstraction] = STANDARD_ABSTRACTIONS,
) -> AbstractionInference:
    """Which catalogue abstractions make ``spec``'s actions valid?

    Returns the applicable, valid candidates ordered finest first (by
    :func:`precision` on the value domain); invalid-but-applicable
    candidates are reported too (they witness why a coarser view is
    needed — e.g. identity fails for same-key map puts, Fig. 3)."""
    applicable = [
        candidate
        for candidate in candidates
        if _applicable(candidate, spec.value_domain)
    ]
    valid: list[CandidateAbstraction] = []
    invalid: list[CandidateAbstraction] = []
    for candidate in applicable:
        if check_validity(replace(spec, abstraction=candidate.function)).valid:
            valid.append(candidate)
        else:
            invalid.append(candidate)
    valid.sort(key=lambda c: precision(c.function, spec.value_domain), reverse=True)
    return AbstractionInference(
        spec.name, tuple(valid), tuple(invalid), len(applicable)
    )
