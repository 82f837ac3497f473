"""Campaign driver: generate → differentially check → shrink → report.

One :class:`FuzzConfig` describes a whole campaign; :func:`run_campaign`
executes it on a single shared :class:`~repro.smt.session.SolverSession`
(generated cases reuse a small set of spec objects and body shapes, so
the validity memo and incremental solver make the marginal case cheap)
and returns a JSON-ready report.  Any failure is minimized with
:func:`repro.fuzz.shrink.shrink_case` and written as a self-contained
repro file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from ..smt.session import SolverSession
from .gen import GeneratedCase, generate_case, statement_count
from .oracle import OracleOutcome, check_case, failure_kind
from .reprofile import emit_repro
from .shrink import shrink_case


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing campaign."""

    seed: int = 0
    count: int = 200
    budget: Optional[float] = None  # wall-clock seconds; None = unlimited
    shrink: bool = True
    schedules: int = 10
    exhaustive_budget: int = 2000
    repro_dir: Optional[str] = None


def _failure_entry(
    outcome: OracleOutcome,
    kind: str,
    config: FuzzConfig,
    session: SolverSession,
) -> dict:
    case = outcome.case
    entry: dict = {
        "case": case.name,
        "family": case.family,
        "mutation": case.mutation,
        "kind": kind,
        "verified": outcome.verified,
        "verified_no_prepass": outcome.verified_no_prepass,
        "prepass": outcome.prepass,
        "empirical_secure": outcome.empirical_secure,
        "empirical_mode": outcome.empirical_mode,
        "runtime_error": outcome.runtime_error,
        "witness": str(outcome.witness) if outcome.witness else None,
        "leak_bits": outcome.leak_bits,
        "statements": statement_count(case.program),
    }
    shrunk = case
    if config.shrink and kind in ("soundness", "prepass-disagreement"):

        def still_fails(candidate: GeneratedCase) -> bool:
            probe = check_case(
                candidate,
                session=session,
                schedules=config.schedules,
                exhaustive_budget=config.exhaustive_budget,
                seed=config.seed,
            )
            return failure_kind(probe) == kind

        shrunk = shrink_case(case, still_fails)
        entry["shrunk_statements"] = statement_count(shrunk.program)
        entry["shrunk_source"] = shrunk.source
    if config.repro_dir is not None:
        path = Path(config.repro_dir) / f"{case.name}.prog"
        emit_repro(shrunk, kind, path)
        entry["repro"] = str(path)
    return entry


def run_campaign(
    config: FuzzConfig,
    progress: Optional[Callable[[int, OracleOutcome], None]] = None,
) -> dict:
    """Run the campaign; returns the report dict (see the CLI docs)."""
    session = SolverSession()
    started = time.perf_counter()
    outcomes: List[OracleOutcome] = []
    failures: List[dict] = []
    budget_exhausted = False

    counters = {
        "verified": 0,
        "rejected": 0,
        "prepass_secure": 0,
        "prepass_unknown": 0,
        "prepass_skipped": 0,
        "differential_runs": 0,
        "exhaustive": 0,
        "sampled": 0,
        # Summed OracleOutcome.executions: distinct final states explored
        # (exhaustive cases) plus scheduled runs (sampled cases).
        "executions": 0,
        "leaks_observed": 0,
        "rejected_without_observed_leak": 0,
    }
    families: dict = {}
    mutations: dict = {}

    for index in range(config.count):
        if config.budget is not None and time.perf_counter() - started > config.budget:
            budget_exhausted = True
            break
        case = generate_case(config.seed, index)
        outcome = check_case(
            case,
            session=session,
            schedules=config.schedules,
            exhaustive_budget=config.exhaustive_budget,
            seed=config.seed,
        )
        outcomes.append(outcome)
        if progress is not None:
            progress(index, outcome)

        families[case.family] = families.get(case.family, 0) + 1
        label = case.mutation or "secure-template"
        mutations[label] = mutations.get(label, 0) + 1
        counters["verified" if outcome.verified else "rejected"] += 1
        if outcome.prepass == "secure":
            counters["prepass_secure"] += 1
        elif outcome.prepass == "unknown":
            counters["prepass_unknown"] += 1
        else:
            counters["prepass_skipped"] += 1
        if outcome.verified_no_prepass is not None:
            counters["differential_runs"] += 1
        if outcome.empirical_mode == "exhaustive":
            counters["exhaustive"] += 1
        elif outcome.empirical_mode == "sampled":
            counters["sampled"] += 1
        counters["executions"] += outcome.executions
        if outcome.empirical_secure is False:
            counters["leaks_observed"] += 1
        if not outcome.verified and outcome.empirical_secure is not False:
            counters["rejected_without_observed_leak"] += 1

        kind = failure_kind(outcome)
        if kind is not None:
            failures.append(_failure_entry(outcome, kind, config, session))

    elapsed = time.perf_counter() - started
    soundness = [f for f in failures if f["kind"] == "soundness"]
    disagreements = [f for f in failures if f["kind"] == "prepass-disagreement"]
    runtime_errors = [f for f in failures if f["kind"] == "runtime-error"]
    return {
        "seed": config.seed,
        "requested": config.count,
        "generated": len(outcomes),
        "elapsed_s": round(elapsed, 3),
        "budget_exhausted": budget_exhausted,
        "schedules": config.schedules,
        "exhaustive_budget": config.exhaustive_budget,
        "families": dict(sorted(families.items())),
        "mutations": dict(sorted(mutations.items())),
        "counters": counters,
        "soundness_failures": soundness,
        "prepass_disagreements": disagreements,
        "runtime_errors": runtime_errors,
        "ok": not (soundness or disagreements or runtime_errors),
    }


__all__ = ["FuzzConfig", "run_campaign"]
