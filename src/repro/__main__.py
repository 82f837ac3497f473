"""Command-line entry point: verify case studies, or run the service.

Usage::

    python -m repro                        # verify all case studies
    python -m repro "Figure 3"             # one case study, full detail

    python -m repro serve  --socket /tmp/repro.sock
    python -m repro client --socket /tmp/repro.sock "Figure 3" "Figure 1"
    python -m repro client --socket /tmp/repro.sock --all --tenant team-a
    python -m repro client --socket /tmp/repro.sock --stats
    python -m repro bench  --repeat 2      # cold vs warm batch timings

    python -m repro lint examples/ src/repro/casestudies/
    python -m repro lint --cases --format json
    python -m repro lint examples/ --write-baseline lint_baseline.json

The bare form (no subcommand) is the ``verify`` subcommand and behaves
exactly as it always has; ``serve`` boots the long-lived verification
daemon (:mod:`repro.server`), ``client`` talks to it over its unix
socket (or ``--host``/``--port``), ``bench`` measures cold-vs-warm
batch times through the :mod:`repro.api` facade, and ``lint`` runs the
static analyses of :mod:`repro.analysis` (lockset races, flow leaks,
lint rules) over program files, embedded Python literals, or the case
catalogue — no solver involved.  Every run starts from an empty
in-memory validity cache; no solver state is read from or written to disk.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List

from . import api

SUBCOMMANDS = ("verify", "serve", "client", "bench", "lint", "fuzz")


# ---------------------------------------------------------------------------
# verify (the default, back-compatible subcommand)
# ---------------------------------------------------------------------------


def _print_all() -> int:
    from .casestudies import ALL_CASES

    width = 96
    print("=" * width)
    print("CommCSL / HyperViper reproduction — verification of all case studies")
    print("=" * width)
    failures = 0
    for case in ALL_CASES:
        verdict = api.execute(api.VerificationRequest(case=case.name))
        expected = "secure" if case.expected_verified else "insecure"
        outcome = "VERIFIED" if verdict.verified else "REJECTED"
        ok = verdict.ok
        failures += not ok
        marker = "" if ok else "  <-- UNEXPECTED"
        print(
            f"{case.name:32s} expected {expected:8s} -> {outcome:8s} "
            f"({verdict.elapsed:5.2f}s){marker}"
        )
        if not verdict.verified and verdict.errors:
            print(f"    reason: {verdict.errors[0][:90]}")
    print("=" * width)
    if failures:
        print(f"{failures} case(s) did not match their expected verdict")
        return 1
    print(f"all {len(ALL_CASES)} case studies match their expected verdicts")
    return 0


def _print_one(name: str) -> int:
    from .casestudies import case_by_name

    case = case_by_name(name)
    print(f"== {case.name} ==")
    print(case.description)
    print("\n--- program ---")
    print(case.source.strip())
    print("\n--- verification ---")
    verdict = api.execute(api.VerificationRequest(case=case.name))
    print(f"{verdict.name}: {'VERIFIED' if verdict.verified else 'REJECTED'}")
    for error in verdict.errors:
        print(f"  error: {error}")
    for obligation in verdict.obligations:
        print(f"  obligation: {obligation}")
    for decl_name, valid, checks in verdict.validity:
        print(f"spec {decl_name}: valid={valid} ({checks} checks)")
    for conformance in verdict.conformance:
        print(f"conformance: {conformance}")
    return 0 if verdict.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.case is not None:
            return _print_one(args.case)
        return _print_all()
    except (KeyError, api.RequestError) as error:
        print(error)
        return 2


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import VerificationServer

    if args.socket is None and args.host is None:
        print("serve: pass --socket PATH (or --host/--port)", file=sys.stderr)
        return 2
    server = VerificationServer(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        vc_budget=args.vc_budget,
        batch_limit=args.batch_limit,
        timeout=args.timeout,
        workers=args.workers,
        queue_deadline=args.queue_deadline,
        fault_injection=args.enable_fault_injection,
    )
    server.run(announce=True)
    return 0


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


def _client_endpoint(args: argparse.Namespace):
    from .client import ServiceClient

    if args.socket is None and args.host is None:
        print("client: pass --socket PATH (or --host/--port)", file=sys.stderr)
        raise SystemExit(2)
    return ServiceClient(socket_path=args.socket, host=args.host, port=args.port)


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .client import ServiceError, requests_for_cases

    try:
        with _client_endpoint(args) as client:
            if args.shutdown:
                client.shutdown()
                print("daemon asked to shut down")
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            names = list(args.cases)
            if args.all or not names:
                from .casestudies import ALL_CASES

                names = [case.name for case in ALL_CASES]
            requests = requests_for_cases(names)
            failures = 0
            outcome = None
            for event in client.stream_batch(requests, tenant=args.tenant):
                kind = event.get("event")
                if kind == "accepted":
                    print(f"daemon accepted batch of {event['count']} (tenant {args.tenant})")
                elif kind == "verdict":
                    verdict = api.Verdict.from_wire(event["verdict"])
                    marker = "" if verdict.ok else "  <-- UNEXPECTED"
                    failures += not verdict.ok
                    outcome_str = "VERIFIED" if verdict.verified else "REJECTED"
                    print(
                        f"{verdict.name:32s} -> {outcome_str:8s} "
                        f"({verdict.elapsed:5.2f}s){marker}"
                    )
                elif kind in ("rejected", "timeout", "error", "worker_crash", "retry_after"):
                    failures += 1
                    index = event.get("index", "-")
                    print(f"request {index}: {kind}: {event.get('reason')}")
                elif kind == "done":
                    cache = event.get("stats", {}).get("cache", {})
                    print(
                        f"batch done in {event.get('elapsed', 0.0):.2f}s — "
                        f"in-memory cache hits {cache.get('hits', 0)}, "
                        f"misses {cache.get('misses', 0)}"
                    )
            return 1 if failures else 0
    except ServiceError as error:
        print(f"client: {error}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    """Cold-vs-warm batch timing through the facade (or a daemon)."""
    from .casestudies import ALL_CASES

    names = list(args.cases) or [case.name for case in ALL_CASES]
    requests = [api.VerificationRequest(case=name) for name in names]

    if args.socket is not None or args.host is not None:
        with _client_endpoint(args) as client:
            timings = []
            for round_index in range(args.repeat):
                outcome = client.run_batch(requests, tenant=args.tenant)
                timings.append(outcome.elapsed)
                print(f"round {round_index + 1}: {outcome.elapsed:.3f}s (ok={outcome.ok})")
        if len(timings) > 1 and timings[-1] > 0:
            print(f"warm speedup: x{timings[0] / timings[-1]:.1f}")
        return 0

    from .smt.session import SolverSession

    session = SolverSession()
    timings = []
    for round_index in range(args.repeat):
        start = time.perf_counter()
        report = api.verify_batch(requests, session=session)
        elapsed = time.perf_counter() - start
        timings.append(elapsed)
        print(
            f"round {round_index + 1}: {elapsed:.3f}s "
            f"(ok={report.ok}, session queries={report.stats['session']['queries']})"
        )
    if len(timings) > 1 and timings[-1] > 0:
        print(f"warm speedup: x{timings[0] / timings[-1]:.1f}")
    return 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis only: exit 1 on error-severity findings (after
    baseline suppression), 0 otherwise, 2 on usage errors."""
    from .analysis import (
        Baseline,
        has_errors,
        lint_case,
        lint_paths,
        render_json,
        render_text,
        sort_diagnostics,
    )

    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            print(f"lint: no such path: {path}", file=sys.stderr)
            return 2
    if not paths and not args.cases:
        print("lint: pass program paths and/or --cases", file=sys.stderr)
        return 2

    diagnostics = lint_paths(paths, low_inputs=args.low, high_inputs=args.high)
    if args.cases:
        from .casestudies import ALL_CASES, case_by_name

        names = args.case_names or [case.name for case in ALL_CASES]
        try:
            for name in names:
                diagnostics.extend(lint_case(case_by_name(name)))
        except KeyError as error:
            print(f"lint: {error}", file=sys.stderr)
            return 2
    diagnostics = sort_diagnostics(diagnostics)

    if args.write_baseline is not None:
        baseline = Baseline.from_diagnostics(diagnostics)
        baseline.save(Path(args.write_baseline))
        print(
            f"wrote baseline with {len(diagnostics)} suppression(s) "
            f"to {args.write_baseline}"
        )
        return 0

    suppressed = 0
    if args.baseline is not None:
        try:
            baseline = Baseline.load(Path(args.baseline))
        except (OSError, ValueError, KeyError) as error:
            print(f"lint: cannot read baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
        diagnostics, suppressed = baseline.apply(diagnostics)

    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
        if suppressed:
            print(f"({suppressed} baselined finding(s) suppressed)")
    return 1 if has_errors(diagnostics) else 0


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Run the static analyses (lockset races, information "
        "flow, lint rules) without the verifier or the solver.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".prog files, .py files with embedded program literals, or "
        "directories to scan recursively",
    )
    parser.add_argument(
        "--cases",
        action="store_true",
        help="also lint the case-study catalogue (with full spec context)",
    )
    parser.add_argument(
        "--case",
        dest="case_names",
        action="append",
        default=[],
        metavar="NAME",
        help="lint one catalogue case by name (implies --cases; repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--low",
        action="append",
        default=[],
        metavar="VAR",
        help="treat VAR as a low (public) input for flow analysis (repeatable)",
    )
    parser.add_argument(
        "--high",
        action="append",
        default=[],
        metavar="VAR",
        help="treat VAR as a high (secret) input for flow analysis (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings recorded in FILE (see --write-baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the current findings to FILE and exit 0",
    )
    return parser


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_verify_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Verify the paper's case studies.",
        epilog=(
            "subcommands: serve (verification daemon), client (talk to a "
            "daemon), bench (cold/warm batch timing) — "
            "see `python -m repro <subcommand> --help`"
        ),
    )
    parser.add_argument(
        "case",
        nargs="?",
        default=None,
        help="verify one case study by name (default: all, as a table)",
    )
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the long-lived verification daemon.",
    )
    parser.add_argument("--socket", default=None, metavar="PATH", help="unix socket to listen on")
    parser.add_argument("--host", default=None, help="TCP host to listen on (e.g. 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--vc-budget",
        type=int,
        default=None,
        help="per-request VC admission budget",
    )
    parser.add_argument(
        "--batch-limit", type=int, default=None, help="max requests per batch"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-request wall-clock budget (s)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default 2)",
    )
    parser.add_argument(
        "--queue-deadline",
        type=float,
        default=None,
        help="seconds a request may wait for a busy worker before being "
        "shed with retry_after (default 30)",
    )
    parser.add_argument(
        "--enable-fault-injection",
        action="store_true",
        help="honour _fault hooks in batch requests (tests/chaos drills only)",
    )
    return parser


def _build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro client",
        description="Send a verification batch to a running daemon.",
    )
    parser.add_argument("cases", nargs="*", help="case-study names (default: the full corpus)")
    parser.add_argument("--socket", default=None, metavar="PATH", help="daemon unix socket")
    parser.add_argument("--host", default=None, help="daemon TCP host")
    parser.add_argument("--port", type=int, default=None, help="daemon TCP port")
    parser.add_argument("--tenant", default="default", help="tenant name (cache namespace)")
    parser.add_argument("--all", action="store_true", help="send the full corpus")
    parser.add_argument("--stats", action="store_true", help="print daemon stats and exit")
    parser.add_argument("--shutdown", action="store_true", help="ask the daemon to exit")
    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .fuzz import FuzzConfig, check_case, failure_kind, load_repro, run_campaign
    from .smt.session import SolverSession

    if args.inject_unsound:
        from .fuzz import install_unsound_hook

        # Testing-only: force-verify every mutated case so the campaign
        # demonstrably catches and shrinks an unsound verdict.
        install_unsound_hook(lambda case: case.mutation is not None)

    if args.repro:
        # Replay mode: re-run the differential oracle on repro files.
        exit_code = 0
        session = SolverSession()
        for path in args.repro:
            case, recorded = load_repro(path)
            outcome = check_case(
                case, session=session, schedules=args.schedules, seed=args.seed
            )
            kind = failure_kind(outcome) or "no-failure"
            marker = "REPRODUCED" if kind == recorded else "CHANGED"
            if kind == "no-failure":
                marker = "NOT REPRODUCED"
                exit_code = 1
            print(
                f"{path}: recorded {recorded}, now {kind} -> {marker} "
                f"(verified={outcome.verified}, "
                f"empirical={outcome.empirical_secure}, mode={outcome.empirical_mode})"
            )
        return exit_code

    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        budget=args.budget,
        shrink=not args.no_shrink,
        schedules=args.schedules,
        repro_dir=args.repro_dir,
    )

    def progress(index: int, outcome) -> None:
        if args.verbose:
            kind = failure_kind(outcome) or "ok"
            print(
                f"[{index}] {outcome.case.name} {outcome.case.family}"
                f"{' +' + outcome.case.mutation if outcome.case.mutation else ''}: "
                f"verified={outcome.verified} "
                f"empirical={outcome.empirical_secure} ({outcome.empirical_mode}) {kind}"
            )
        elif index and index % 50 == 0:
            print(f"... {index} cases", flush=True)

    report = run_campaign(config, progress=progress)

    counters = report["counters"]
    print(
        f"fuzz: seed {report['seed']}, {report['generated']}/{report['requested']} cases "
        f"in {report['elapsed_s']}s"
        + (" (budget exhausted)" if report["budget_exhausted"] else "")
    )
    print(
        f"  verdicts: {counters['verified']} verified, {counters['rejected']} rejected"
    )
    print(
        f"  empirical: {counters['exhaustive']} exhaustive, {counters['sampled']} sampled, "
        f"{counters['executions']} executions, {counters['leaks_observed']} leaks observed"
    )
    for entry in report["soundness_failures"]:
        print(
            f"  SOUNDNESS FAILURE: {entry['case']} ({entry['family']}"
            f"{', ' + entry['mutation'] if entry['mutation'] else ''}) — "
            f"shrunk to {entry.get('shrunk_statements', entry['statements'])} statements"
            + (f", repro at {entry['repro']}" if "repro" in entry else "")
        )
    for entry in report["runtime_errors"]:
        print(f"  RUNTIME ERROR: {entry['case']}: {entry['runtime_error']}")
    if report["ok"]:
        print("  no soundness failures")

    if args.report is not None:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(json.dumps(report, indent=2, default=str) + "\n")
        print(f"  report written to {args.report}")
    return 0 if report["ok"] else 1


def _build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description=(
            "Differential soundness fuzzing: generate adversarial concurrent "
            "programs and compare verifier verdicts against "
            "empirical noninterference under the concrete scheduler."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument("--count", type=int, default=200, help="cases to generate (default 200)")
    parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="stop generating after this much wall-clock time",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging minimization of failing cases",
    )
    parser.add_argument(
        "--schedules", type=int, default=10,
        help="random schedules per input variant in sampled mode (default 10)",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE", help="write the JSON report to FILE"
    )
    parser.add_argument(
        "--repro-dir", default=None, metavar="DIR",
        help="write minimized .prog repro files for failures into DIR",
    )
    parser.add_argument(
        "--repro", nargs="*", default=None, metavar="FILE",
        help="replay repro files instead of generating (exit 1 if not reproduced)",
    )
    parser.add_argument(
        "--inject-unsound", action="store_true",
        help="TESTING: force-verify mutated cases to prove the oracle catches them",
    )
    parser.add_argument("--verbose", action="store_true", help="per-case progress lines")
    return parser


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Measure cold-vs-warm batch verification time.",
    )
    parser.add_argument("cases", nargs="*", help="case-study names (default: the full corpus)")
    parser.add_argument("--repeat", type=int, default=2, help="batch rounds (default 2)")
    parser.add_argument("--socket", default=None, metavar="PATH", help="bench a daemon instead")
    parser.add_argument("--host", default=None, help="daemon TCP host")
    parser.add_argument("--port", type=int, default=None, help="daemon TCP port")
    parser.add_argument("--tenant", default="default", help="tenant for daemon benches")
    return parser


def main(argv: List[str]) -> int:
    if len(argv) > 1 and argv[1] in SUBCOMMANDS:
        command, rest = argv[1], argv[2:]
        if command == "verify":
            args = _build_verify_parser("python -m repro verify").parse_args(rest)
            return _cmd_verify(args)
        if command == "serve":
            parser = _build_serve_parser()
            args = parser.parse_args(rest)
            from . import server as server_module

            if args.vc_budget is None:
                args.vc_budget = server_module.DEFAULT_VC_BUDGET
            if args.batch_limit is None:
                args.batch_limit = server_module.DEFAULT_BATCH_LIMIT
            if args.timeout is None:
                args.timeout = server_module.DEFAULT_TIMEOUT
            if args.workers is None:
                args.workers = server_module.DEFAULT_WORKERS
            if args.queue_deadline is None:
                args.queue_deadline = server_module.DEFAULT_QUEUE_DEADLINE
            return _cmd_serve(args)
        if command == "client":
            args = _build_client_parser().parse_args(rest)
            return _cmd_client(args)
        if command == "lint":
            args = _build_lint_parser().parse_args(rest)
            if args.case_names:
                args.cases = True
            return _cmd_lint(args)
        if command == "fuzz":
            args = _build_fuzz_parser().parse_args(rest)
            return _cmd_fuzz(args)
        args = _build_bench_parser().parse_args(rest)
        return _cmd_bench(args)
    # Bare invocation: the historical interface, byte-compatible.
    args = _build_verify_parser("python -m repro").parse_args(argv[1:])
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
