#!/usr/bin/env python
"""Dynamic threads: the App. E fork/join pattern, verified and executed.

HyperViper's implementation language creates threads with ``fork`` and
``join`` instead of the paper's structured ``||`` (Sec. 5).  This example
shows both halves of our treatment:

1. the fork/join program *runs* on the dynamic thread-pool machine
   (``repro.lang.threads``) under adversarial schedulers, and its public
   output — the sorted key set of the shared map — never varies, even
   though the map's values race;
2. the same program is *verified* by statically reducing it to the
   paper's structured calculus (``repro.lang.desugar``) and reusing the
   standard pipeline: a fork/join case study's ``program()`` is already
   the reduced program.
"""

from repro.casestudies import figure3_forkjoin, forkjoin_high_key
from repro.lang import RandomScheduler, run_threads
from repro.lang.parser import parse_threaded_program

INPUTS = {"n": 4, "addrs": (1, 2, 1, 3), "reasons": (9, 8, 7, 6)}
threaded = parse_threaded_program(figure3_forkjoin.source)

# -- 1. Execution on the thread machine. --------------------------------------

print("=== Figure 3 with fork/join (App. E) ===")
print(figure3_forkjoin.source)

print("running under 8 random schedulers:")
for seed in range(8):
    result = run_threads(threaded, dict(INPUTS), scheduler=RandomScheduler(seed))
    print(f"  seed {seed}: output {result.output}")

# The two workers race on key 1 (addrs has it twice) — the map's VALUES
# depend on the schedule, but the printed key set does not.
race_inputs = {"n": 2, "addrs": (5, 5), "reasons": (100, 200)}
values_seen = set()
for seed in range(10):
    result = run_threads(threaded, dict(race_inputs), scheduler=RandomScheduler(seed))
    final_map = [v for v in result.heap.values() if hasattr(v, "get")][0]
    values_seen.add(final_map.get(5))
print(f"\nracing value for key 5 across schedules: {sorted(values_seen)}")
print("(the value races; the key set — the declared abstraction — does not)")

# -- 2. Static reduction to structured || and verification. -------------------

structured = figure3_forkjoin.program()
print("\n=== desugared to the paper's core calculus ===")
print(structured)

result = figure3_forkjoin.verify()
print(f"\nverifier verdict: {'VERIFIED' if result.verified else 'REJECTED'}")

# -- 3. A broken variant: forked workers put a HIGH key. ----------------------

bad = forkjoin_high_key.verify()
print(f"\nnegative control ({forkjoin_high_key.name}): "
      f"{'VERIFIED' if bad.verified else 'REJECTED'}")
for error in bad.errors:
    print(f"  reason: {error}")
