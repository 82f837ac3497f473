"""Adversarial scenario generation and differential soundness fuzzing.

``repro.fuzz`` closes the loop between the verifier and the operational
semantics: a seeded generator builds adversarial concurrent programs
over the :mod:`repro.lang` AST with specs from the
:mod:`repro.spec.library` catalogue, and a differential oracle compares
the verifier's verdict against empirical noninterference measured by
actually executing the program under many schedulers.  "PROVED but
leaks" is a hard soundness failure.  Failures are minimized
by a delta-debugging shrinker and emitted as self-contained ``.prog``
repro files.

Entry points: ``python -m repro fuzz`` (CLI), :func:`run_campaign`
(library), :func:`generate_case` / :func:`check_case` (building blocks).
"""

from .campaign import FuzzConfig, run_campaign
from .gen import (
    FAMILIES,
    MUTATIONS,
    GeneratedCase,
    ResourceRef,
    generate_case,
    generate_corpus,
    statement_count,
)
from .oracle import OracleOutcome, check_case, failure_kind, install_unsound_hook
from .reprofile import ReproError, emit_repro, load_repro, render_repro
from .shrink import shrink_case

__all__ = [
    "FAMILIES",
    "MUTATIONS",
    "FuzzConfig",
    "GeneratedCase",
    "OracleOutcome",
    "ReproError",
    "ResourceRef",
    "check_case",
    "emit_repro",
    "failure_kind",
    "generate_case",
    "generate_corpus",
    "install_unsound_hook",
    "load_repro",
    "render_repro",
    "run_campaign",
    "shrink_case",
    "statement_count",
]
