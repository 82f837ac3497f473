"""Record the verdict of every case of the benchmark's fuzz campaign.

    python perfbench/record_fuzz.py

Writes ``perfbench/expected/fuzz.json``, the reference the ``fuzz``
workload checks each outcome against.  Rerun it only when a change is
meant to alter fuzz verdicts.
"""

from __future__ import annotations

import json
import sys

from workloads import FUZZ_COUNT, FUZZ_EXPECTED, FUZZ_SEED, ROOT

sys.path.insert(0, str(ROOT / "src"))

from repro.fuzz.gen import generate_case  # noqa: E402
from repro.fuzz.oracle import check_case, failure_kind  # noqa: E402
from repro.smt.session import SolverSession  # noqa: E402


def main() -> int:
    session = SolverSession()
    verified = {}
    for index in range(FUZZ_COUNT):
        case = generate_case(FUZZ_SEED, index)
        outcome = check_case(case, session=session, seed=FUZZ_SEED)
        if failure_kind(outcome) is not None:
            print(f"{case.name}: {failure_kind(outcome)}", file=sys.stderr)
            return 1
        verified[case.name] = outcome.verified
    FUZZ_EXPECTED.parent.mkdir(exist_ok=True)
    FUZZ_EXPECTED.write_text(
        json.dumps({"seed": FUZZ_SEED, "verified": verified}, indent=2) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
