"""One measured process: set up a workload, run its cold pass and, in
``full`` mode, warm passes for ``--seconds``; print the raw samples as
one JSON line.  ``run.py`` starts this in a fresh process per sample so
nothing stays warm from one sample to the next.

    python perfbench/child.py --workload corpus --seed 1 --mode full \
        --seconds 10 --trace 0 --tmp .perfbench/x --t0 <time.monotonic()>
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import OP, Tracer, install
from workloads import ROOT, WORKLOADS

#: Warm passes every full run makes, however short ``--seconds`` is.
MIN_WARM_PASSES = 3


def _pass_summary(tracer: Tracer, ops: List[int], remote: Optional[List[dict]],
                  latencies: List[float]) -> dict:
    """Layer self times and counts summed over one pass's ops.  The
    unattributed time is the part of each op no layer span covers: the
    op span's own self time, or for the daemon, the client latency minus
    the worker's layer self times."""
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    unattributed = 0.0
    for index, op in enumerate(ops):
        local = tracer.take(op)
        parts = [local] if remote is None else [local, remote[index]]
        for part in parts:
            for name, value in part["self"].items():
                if name != OP:
                    self_s[name] = self_s.get(name, 0.0) + value
            for name, value in part["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
        if remote is None:
            unattributed += local["self"].get(OP, 0.0)
        else:
            unattributed += latencies[index] - sum(remote[index]["self"].values())
    return {"self": self_s, "counts": counts, "wall": sum(latencies),
            "unattributed": unattributed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "full"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None
    spans = args.tmp / "worker-spans.jsonl" if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.tmp, spans)

    # Set-up: imports, input generation, daemon boot — until the first
    # request can be sent.  Traced, it is op -1.
    setup_span = tracer.begin_op(-1) if tracer else None
    import_span = tracer.begin("import") if tracer else None
    workload.imports()
    if tracer:
        install(tracer)
        tracer.end(import_span)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if tracer:
        tracer.end(setup_span)

    passes: List[dict] = []
    failures: List[str] = []
    op_ids: List[List[int]] = []
    next_op = 0
    inputs = workload.ops()
    warm_started = None
    try:
        while True:
            gc.collect()
            ids = list(range(next_op, next_op + len(inputs)))
            next_op += len(inputs)
            results = []
            pass_start = time.perf_counter()
            for op, item in zip(ids, inputs):
                span = tracer.begin_op(op) if tracer else None
                result = workload.run_op(item)
                if tracer:
                    tracer.end(span)
                results.append(result)
            wall = time.perf_counter() - pass_start
            failures.extend(detail for _l, _i, ok, detail in results if not ok)
            passes.append({"wall": wall, "ops": [[l, i] for l, i, _ok, _d in results]})
            op_ids.append(ids)
            if len(passes) == 1:
                tally = workload.tally(inputs)
                if args.mode == "cold":
                    break
                warm_started = time.perf_counter()
            elif (len(passes) > MIN_WARM_PASSES
                  and time.perf_counter() - warm_started >= args.seconds):
                break
    finally:
        workload.close()

    who = resource.RUSAGE_CHILDREN if args.workload == "daemon" else resource.RUSAGE_SELF
    out = {
        "setup_s": setup_s,
        "passes": passes,
        "failures": failures,
        "tally": tally,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer:
        remote = None
        if spans is not None and spans.exists():
            lines = [json.loads(line) for line in spans.read_text().splitlines()]
            imports = [line["import"] for line in lines if "import" in line]
            remote = [line for line in lines if "import" not in line]
            if len(remote) != next_op:
                raise RuntimeError(f"{len(remote)} worker spans for {next_op} requests")
        setup = tracer.take(-1)
        if remote is not None:
            setup["self"]["import"] = setup["self"].get("import", 0.0) + sum(imports)
        out["trace"] = {
            "setup": setup,
            "passes": [
                _pass_summary(
                    tracer, ids,
                    None if remote is None else remote[ids[0]:ids[-1] + 1],
                    [op[0] for op in p["ops"]],
                )
                for ids, p in zip(op_ids, passes)
            ],
        }
        tracer.dump(str(args.tmp / "spans.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
