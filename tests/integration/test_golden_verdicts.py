"""Golden-verdict regression: pin every corpus verdict to a catalogue.

``tests/golden/verdicts.json`` records, for each of the corpus case
studies, the verification verdict.  Any drift — a case flipping
verified in either direction — fails tier-1 until the catalogue is
deliberately regenerated:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_verdicts.py

The point is to make verdict changes *loud*: the fuzzer guards against
unsound verdicts on generated programs, this catalogue guards the
hand-written corpus against silent regressions in either direction.
"""

import json
import os
from pathlib import Path

import pytest

from repro.casestudies import ALL_CASES
from repro.smt.session import SolverSession

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "verdicts.json"


def _observed_entry(case, session):
    result = case.verify(session=session)
    return {"verified": result.verified}


@pytest.fixture(scope="module")
def observed():
    session = SolverSession()
    return {case.name: _observed_entry(case, session) for case in ALL_CASES}


def test_catalogue_is_regenerable(observed):
    if os.environ.get("REGEN_GOLDEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(dict(sorted(observed.items())), indent=2) + "\n"
        )
    assert GOLDEN_PATH.is_file(), (
        f"{GOLDEN_PATH} missing — regenerate with REGEN_GOLDEN=1"
    )


def test_catalogue_covers_exactly_the_corpus(observed):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(observed), (
        "corpus and catalogue diverge — regenerate with REGEN_GOLDEN=1; "
        f"missing={sorted(set(observed) - set(golden))} "
        f"stale={sorted(set(golden) - set(observed))}"
    )


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
def test_verdict_matches_catalogue(case, observed):
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden.get(case.name)
    if expected is None:
        pytest.fail(f"{case.name} not in catalogue — REGEN_GOLDEN=1 to add")
    assert observed[case.name] == expected, (
        f"{case.name}: verdict drifted from the golden catalogue "
        f"(got {observed[case.name]}, pinned {expected}); if the change is "
        "intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    )
