"""Case-study infrastructure for the evaluation (Sec. 5 / Table 1).

A :class:`CaseStudy` bundles everything needed to reproduce one Table-1
row: the program text, its resource declarations, the input sensitivity
labelling, the bounded instances used to discharge retroactive
obligations, the expected verdict, and the paper's reported numbers.

The program text may declare procedures and use ``fork``/``join``
(HyperViper's richer language, Sec. 5); :meth:`CaseStudy.program`
reduces it to the paper's structured ``||`` calculus, so fork/join case
studies take the same pipeline as every other one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

from ..lang import parser
from ..lang.ast import Command
from ..lang.desugar import threaded_equivalent
from ..verifier.declarations import ProgramSpec, ResourceDecl
from ..verifier.frontend import VerificationResult, verify


@dataclass(frozen=True)
class PaperRow:
    """The numbers Table 1 reports for one example."""

    data_structure: str
    abstraction: str
    loc: int
    annotations: int
    time_seconds: float


@dataclass(frozen=True)
class CaseStudy:
    """One evaluation example."""

    name: str
    description: str
    source: str
    resources: Tuple[ResourceDecl, ...]
    low_inputs: frozenset
    high_inputs: frozenset
    expected_verified: bool
    paper: Optional[PaperRow] = None
    instances: Optional[Callable[[], list]] = None

    def program(self) -> Command:
        """The program in the structured calculus (fork/join desugared)."""
        return _parse_cached(self.source)

    def program_spec(self) -> ProgramSpec:
        return ProgramSpec(
            name=self.name,
            program=self.program(),
            resources=self.resources,
            low_inputs=self.low_inputs,
            high_inputs=self.high_inputs,
        )

    def verify(self, **kwargs) -> VerificationResult:
        """Run the full verification pipeline on this case study."""
        return verify(self.program_spec(), bounded_instances=self.instances, **kwargs)

    def loc(self) -> int:
        """Non-blank, non-comment lines of program text (Table 1's LOC)."""
        count = 0
        for line in self.source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
        return count

    def annotation_count(self) -> int:
        """Specification artifacts: resource declarations (actions, domains,
        projections) plus labelled inputs — the analogue of Table 1's
        'Ann.' column for our declaration-based frontend."""
        count = len(self.low_inputs) + len(self.high_inputs)
        for decl in self.resources:
            count += 2  # the declaration itself + the abstraction
            count += len(decl.low_views)
            for action in decl.spec.actions:
                count += 1 + len(action.low_projections)
                if action.unary_requires is not None:
                    count += 1
        return count


def parse_program(source: str) -> Command:
    """Parse a case-study source: procedure declarations are allowed, and
    ``fork``/``join`` is reduced to ``||`` (a program without them parses
    exactly as :func:`repro.lang.parser.parse_program` parses it)."""
    return threaded_equivalent(parser.parse_threaded_program(source))


@lru_cache(maxsize=None)
def _parse_cached(source: str) -> Command:
    return parse_program(source)


def make_instances(low: dict, high_variants: Sequence[dict]) -> Callable[[], list]:
    """Build an instance generator: one group whose members share the low
    inputs ``low`` and differ in the high inputs ``high_variants``."""

    def generate() -> list:
        return [[{**low, **variant} for variant in high_variants]]

    return generate


def make_instance_groups(groups: Sequence[tuple[dict, Sequence[dict]]]) -> Callable[[], list]:
    """Several groups of (low inputs, high variants)."""

    def generate() -> list:
        return [[{**low, **variant} for variant in variants] for low, variants in groups]

    return generate
