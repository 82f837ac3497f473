"""End-to-end and per-layer benchmark of the verifier.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``corpus``, ``fuzz``,
``daemon`` (see README.md).  Every sample runs in a fresh process
(``child.py``) started one at a time, on one CPU core and with a fixed
interpreter hash seed.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
from a traced process plus an untraced one for the tracing overhead.
The last line of standard output is one JSON object; a run whose
verdicts disagree with the reference prints the mismatches to standard
error and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: Interpreter hash seed of every process.  The work counts do not depend
#: on it, but fixing it gives both commits of a comparison the same dict
#: and set layouts.
HASH_SEED = "0"

#: Extra fresh processes per ``--trace 0`` run that only set up and make
#: the cold pass; with the full process they give the medians of
#: ``setup_s`` and ``pass_s``.
COLD_SAMPLES = {"corpus": 10, "fuzz": 4, "daemon": 10}

#: Every run ends within this many seconds.
DEADLINE = 170.0

#: Layers whose self time is reported per pass (warm median, ``cold.``
#: for the first pass).
LAYERS = (
    "api",
    "lang.parser",
    "verifier.frontend",
    "spec.validity",
    "verifier.analysis",
    "analysis.prepass",
    "verifier.vcgen",
    "smt",
    "verifier.conformance",
    "security.noninterference",
    "lang.scheduler",
    "security.leakage",
    "fuzz.oracle",
)

#: Work counts reported per pass: name -> (numerator, denominator or
#: None) over the tracer's counters.  A ratio with no attempts reads 0.
COUNTS = {
    "security.noninterference.executions": ("security.noninterference.executions", None),
    "lang.scheduler.paths": ("lang.scheduler.items", None),
    "lang.scheduler.exhaustive_ratio": ("lang.scheduler.completed", ("lang.scheduler.started",)),
    "lang.scheduler.abandoned_s": ("lang.scheduler.abandoned_s", None),
    "spec.validity.checks": ("spec.validity.checks", None),
    "verifier.analysis.obligations": ("verifier.analysis.obligations", None),
    "analysis.prepass.secure_ratio": ("analysis.prepass.secure", ("analysis.prepass.runs",)),
    "smt.queries": ("smt.queries", None),
    "smt.cache_hit_ratio": ("smt.cache_hits", ("smt.queries",)),
    "smt.session_reuse_ratio": (
        "smt.sessions_reused", ("smt.sessions_reused", "smt.sessions_created")),
}

#: Verdict and fuzz tallies of the cold pass (work counts).
TALLIES = (
    "verdicts.verified",
    "verdicts.rejected",
    "fuzz.exhaustive",
    "fuzz.sampled",
    "fuzz.leaks_observed",
    "fuzz.executions",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "overhead", "coverage")):
        return "ratio"
    return "count"


def per_layer_names() -> List[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    names = ["import.self_s", "fuzz.gen.self_s"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"cold.{layer}.self_s"]
    for count in COUNTS:
        names += [count, f"cold.{count}"]
    names += ["unattributed_s", "cold.unattributed_s", "span_coverage",
              "server.transport_ms", "worker.compute_ms", "trace_overhead", "fail_frac"]
    return names + list(TALLIES)


def _child(workload: str, seed: int, mode: str, seconds: float, trace: int,
           tmp: Path, deadline: float) -> dict:
    """Run one ``child.py`` in a fresh process group and return its JSON."""
    tmp.mkdir(parents=True)
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
               "--trace", str(trace), "--tmp", str(tmp), "--t0", str(time.monotonic())]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload} {mode} sample ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} {mode} sample failed with exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _warm(sample: dict) -> List[dict]:
    return sample["passes"][1:]


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) of ``values``."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _end_to_end(samples: List[dict], full: dict) -> Dict[str, float]:
    """Medians over samples.  Op percentiles are taken per warm pass and
    then their median across passes, so a burst of load from outside
    that slows a few passes moves them no more than it moves repeat_s."""
    warm = _warm(full)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "pass_s": statistics.median(s["passes"][0]["wall"] for s in samples),
        "repeat_s": statistics.median(p["wall"] for p in warm),
        "op_p50_ms": 1000 * statistics.median(
            _quantile([op[0] for op in p["ops"]], 50) for p in warm),
        "op_p90_ms": 1000 * statistics.median(
            _quantile([op[0] for op in p["ops"]], 90) for p in warm),
        "peak_rss_mb": full["rss_mb"],
    }


def _count(counters: Dict[str, float], spec) -> float:
    numerator, denominator = spec
    if denominator is None:
        return counters.get(numerator, 0.0)
    total = sum(counters.get(name, 0.0) for name in denominator)
    return counters.get(numerator, 0.0) / total if total else 0.0


def _per_layer(traced: dict, untraced: dict) -> Dict[str, float]:
    trace = traced["trace"]
    cold, warm = trace["passes"][0], trace["passes"][1:]
    setup = trace["setup"]["self"]
    metrics = {"import.self_s": setup.get("import", 0.0),
               "fuzz.gen.self_s": setup.get("fuzz.gen", 0.0)}
    for layer in LAYERS:
        name = f"{layer}.self_s"
        metrics[name] = statistics.median(p["self"].get(layer, 0.0) for p in warm)
        metrics[f"cold.{name}"] = cold["self"].get(layer, 0.0)
    for name, spec in COUNTS.items():
        metrics[name] = statistics.median(_count(p["counts"], spec) for p in warm)
        metrics[f"cold.{name}"] = _count(cold["counts"], spec)
    metrics["unattributed_s"] = statistics.median(p["unattributed"] for p in warm)
    metrics["cold.unattributed_s"] = cold["unattributed"]
    walls = sum(p["wall"] for p in trace["passes"])
    metrics["span_coverage"] = 1 - sum(p["unattributed"] for p in trace["passes"]) / walls
    ops = [op for p in _warm(traced) for op in p["ops"]]
    inner = [op for op in ops if op[1] is not None]
    metrics["server.transport_ms"] = (
        1000 * statistics.median(l - i for l, i in inner) if inner else 0.0)
    metrics["worker.compute_ms"] = 1000 * statistics.median(i for _l, i in inner) if inner else 0.0
    metrics["trace_overhead"] = (
        statistics.median(p["wall"] for p in _warm(traced))
        / statistics.median(p["wall"] for p in _warm(untraced)))
    for name in TALLIES:
        metrics[name] = traced["tally"].get(name, 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(COLD_SAMPLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE

    for needed in ("src/repro/__init__.py", "tests/golden/verdicts.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2

    # Every process of the run shares one core: the daemon's three
    # processes then hand off on one run queue instead of wherever the
    # scheduler last placed them, which moved sub-millisecond latencies
    # by 10-15% between runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = OUT / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        def child(index: int, mode: str, seconds: float, trace: int) -> dict:
            return _child(args.workload, args.seed, mode, seconds, trace,
                          tmp / str(index), deadline)

        if args.trace:
            untraced = child(0, "full", args.seconds / 2, 0)
            traced = child(1, "full", args.seconds / 2, 1)
            samples = [untraced, traced]
            metrics = _per_layer(traced, untraced)
            spans = tmp / "1" / "spans.jsonl"
            if spans.exists():
                shutil.copy(spans, OUT / f"spans-{args.workload}.jsonl")
            if args.workload != "daemon" and metrics["span_coverage"] < 0.9:
                print(f"perfbench: layer spans cover only {metrics['span_coverage']:.1%} "
                      f"of the traced op time", file=sys.stderr)
        else:
            samples = [child(k, "cold", 0, 0) for k in range(COLD_SAMPLES[args.workload])]
            full = child(len(samples), "full", args.seconds, 0)
            samples.append(full)
            metrics = _end_to_end(samples, full)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(p["ops"]) for s in samples for p in s["passes"])
    failures = [detail for s in samples for detail in s["failures"]]
    tallies = {json.dumps(s["tally"], sort_keys=True) for s in samples}
    if len(tallies) > 1:
        failures.append(f"verdict tallies differ between processes: {sorted(tallies)}")
    if args.trace:
        metrics["fail_frac"] = len(failures) / attempted
        metrics = {name: metrics[name] for name in per_layer_names()}
    for detail in failures:
        print(f"perfbench: mismatch: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
