"""Command-line interface.

Usage::

    python -m repro list                       # available experiments
    python -m repro run fig2 [--scale S]       # regenerate one figure/table
    python -m repro run all [--parallel N]     # regenerate everything
    python -m repro report [--scale S]         # EXPERIMENTS.md body to stdout
    python -m repro analyze [args...]          # static-analysis gate
    python -m repro trace trace.jsonl          # roll up a recorded trace
    python -m repro trace --diff A B [--check] # structural span-diff
    python -m repro corpus build DIR           # persist the corpus store
    python -m repro corpus inspect FILE        # one store's meta
    python -m repro corpus stat DIR            # list stores in a directory
    python -m repro corpus verify FILE         # integrity-check a store
    python -m repro serve-bench --sessions 1000000  # serving-layer report
    python -m repro --fault-profile chaos      # run everything degraded
    python -m repro run all --supervise        # crash-recovering run
    python -m repro run all --resume           # continue an interrupted run

The CLI is a thin shell over :mod:`repro.api`, the stable programmatic
facade: every subcommand maps onto one facade call.

Shared flags: ``--fault-profile``/``--fault-seed`` may be given before
or after the subcommand, and ``run``/``report`` share the same
``--scale``/``--seed``/fault flags via a common parent parser.  When a
fault flag appears both before and after the subcommand, the
after-subcommand value wins -- a parser property, not hand-rolled
merging: the subcommand parsers inherit the flags with
``argparse.SUPPRESS`` defaults, so they only overwrite the top-level
value when the flag was actually given.

Fault injection (docs/ROBUSTNESS.md): ``--fault-profile`` names an entry
in :data:`repro.net.faults.PROFILES` and ``--fault-seed`` pins the fault
RNG, so two runs with the same seed produce byte-identical reports.

Observability (docs/OBSERVABILITY.md): ``run --trace-out trace.jsonl``
records spans and metrics while the experiments run and writes them as
JSONL; ``trace`` renders the roll-up (summary, top spans, per-experiment
flame-table with per-span counter attribution); ``trace --diff A B``
aligns two traces' span trees and reports the structural delta --
``--check`` exits 1 when the diff is non-empty, which is how CI asserts
"same seed, same behaviour".  Tracing never changes a report byte, and
sequential traces are byte-identical per seed.

Supervised execution (docs/ROBUSTNESS.md): ``run all --supervise`` runs
the experiments under the crash-recovering supervisor and journals each
completed leg under ``--checkpoint-dir`` (default
``.repro-checkpoints``); ``--exec-fault-profile`` injects deterministic
worker kills / hangs / aborts (:data:`repro.exec.faults.EXEC_PROFILES`).
An injected abort exits with code 3 (nothing on stdout); rerunning with
``--resume`` replays the journal and produces stdout byte-identical to
an uninterrupted run.  ``corpus build --supervise`` is the same
discipline for sharded corpus builds.

Exit codes: 0 success; 1 experiment crashes / shape failures (or a
non-empty ``trace --diff --check``, or a failed ``corpus verify``);
2 usage errors; 3 run interrupted (resume with ``--resume``).
"""

from __future__ import annotations

import argparse
import sys

from repro import api


def _fault_parent(suppress: bool) -> argparse.ArgumentParser:
    """The shared ``--fault-profile``/``--fault-seed`` flags.

    The top-level parser uses real ``None`` defaults (the attribute must
    always exist); subcommand parsers use ``argparse.SUPPRESS`` so an
    absent flag leaves the top-level value untouched and a present one
    overwrites it -- "after the subcommand wins" by construction.
    """
    parent = argparse.ArgumentParser(add_help=False)
    default = argparse.SUPPRESS if suppress else None
    parent.add_argument(
        "--fault-profile",
        default=default,
        metavar="NAME",
        help="inject faults from this profile (none, flaky, chaos)",
    )
    parent.add_argument(
        "--fault-seed",
        type=int,
        default=default,
        metavar="SEED",
        help="seed for the fault-injection RNG (default: the study seed)",
    )
    return parent


def _exec_parent() -> argparse.ArgumentParser:
    """The shared supervised-execution flags (run all / corpus build)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--supervise",
        action="store_true",
        help="run under the crash-recovering supervisor with checkpoints",
    )
    parent.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted supervised run from its checkpoints",
    )
    parent.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint journal directory (default .repro-checkpoints)",
    )
    parent.add_argument(
        "--exec-fault-profile",
        default=None,
        metavar="NAME",
        help="inject process/storage faults (none, kill-worker, hang-worker, "
        "torn-write, chaos-proc)",
    )
    parent.add_argument(
        "--exec-fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed for the process-fault RNG (default: the study seed)",
    )
    return parent


def _calibration_parent() -> argparse.ArgumentParser:
    """The shared ``--scale``/``--seed`` calibration flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scale",
        type=float,
        default=0.002,
        help="ecosystem scale factor (default 0.002)",
    )
    parent.add_argument(
        "--seed",
        type=int,
        default=20151028,
        help="study seed (default 20151028)",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An End-to-End Measurement of Certificate "
            "Revocation in the Web's PKI' (IMC 2015)"
        ),
        parents=[_fault_parent(suppress=False)],
    )
    sub = parser.add_subparsers(dest="command", required=False)

    sub.add_parser("list", help="list available experiments")

    sub.add_parser(
        "mechanisms",
        help="list registered revocation mechanisms (docs/MECHANISMS.md)",
    )

    shared = [_fault_parent(suppress=True), _calibration_parent()]
    run = sub.add_parser(
        "run",
        parents=shared + [_exec_parent()],
        help="run one experiment (or 'all')",
    )
    run.add_argument("experiment", help="experiment id, e.g. fig2, table2, all")
    run.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="run 'all' across N worker processes (results identical to sequential)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache generated ecosystems here, keyed on the calibration digest",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record spans + metrics while running and write them as JSONL",
    )
    run.add_argument(
        "--mechanism",
        default=None,
        metavar="NAME",
        help=(
            "restrict revocation-mechanism sweeps to one registered "
            "mechanism (see: python -m repro mechanisms)"
        ),
    )

    sub.add_parser(
        "report", parents=shared, help="print the EXPERIMENTS.md body"
    )

    trace = sub.add_parser(
        "trace", help="roll up or diff traces recorded with run --trace-out"
    )
    trace.add_argument(
        "trace_file", nargs="?", metavar="FILE", help="trace JSONL file"
    )
    trace.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="structurally diff two traces instead of rolling one up",
    )
    trace.add_argument(
        "--check",
        action="store_true",
        help="with --diff: exit 1 when the diff is non-empty",
    )
    trace.add_argument(
        "--format", choices=("text", "json"), default="text", dest="trace_format"
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=15,
        metavar="N",
        help="rows in the top-spans table (default 15)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="build / inspect the on-disk corpus store (docs/PERFORMANCE.md)",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    build = corpus_sub.add_parser(
        "build",
        parents=[_calibration_parent(), _exec_parent()],
        help="generate the ecosystem and persist it as a store",
    )
    build.add_argument("directory", help="store directory (created if missing)")
    build.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="split a worker/supervised build into K brand shards "
        "(bytes identical for any K)",
    )
    build.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="build shards in N supervised worker processes "
        "(journaled, resumable with --resume)",
    )
    build.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when a readable store already exists",
    )
    inspect = corpus_sub.add_parser(
        "inspect", help="print one store file's meta (seed, scale, digest)"
    )
    inspect.add_argument("store", help="corpus-<digest>.sqlite file")
    stat = corpus_sub.add_parser(
        "stat", help="list every corpus store under a directory"
    )
    stat.add_argument("directory", help="store directory")
    verify = corpus_sub.add_parser(
        "verify",
        help="integrity-check a store (digests per brand); exit 1 if unsound",
    )
    verify.add_argument("store", help="corpus-<digest>.sqlite file")
    verify.add_argument(
        "--quarantine",
        action="store_true",
        help="move an unsound store aside (<name>.quarantined)",
    )

    serve_bench = sub.add_parser(
        "serve-bench",
        parents=shared,
        help="drive the revocation-status serving layer with a synthetic "
        "client fleet and print the per-mechanism serving report "
        "(docs/SERVING.md)",
    )
    serve_bench.add_argument(
        "--sessions",
        type=int,
        default=1_000_000,
        metavar="N",
        help="client sessions in the fleet (default 1000000)",
    )
    serve_bench.add_argument(
        "--ticks",
        type=int,
        default=48,
        metavar="N",
        help="simulated ticks (default 48)",
    )
    serve_bench.add_argument(
        "--tick-seconds",
        type=int,
        default=900,
        metavar="S",
        help="seconds per tick (default 900)",
    )
    serve_bench.add_argument(
        "--mechanism",
        default=None,
        metavar="NAME",
        help="serve one registered mechanism instead of all",
    )
    serve_bench.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record spans + metrics while serving and write them as JSONL",
    )

    sub.add_parser(
        "analyze",
        help="run the determinism & PKI-invariant linter "
        "(same as python -m repro.analysis; docs/STATIC_ANALYSIS.md)",
        add_help=False,
    )
    return parser


def _check_fault_profile(fault_profile: str | None) -> bool:
    if fault_profile is None:
        return True
    from repro.net.faults import PROFILES

    if fault_profile in PROFILES:
        return True
    print(
        f"unknown fault profile {fault_profile!r}; known: {sorted(PROFILES)}",
        file=sys.stderr,
    )
    return False


def _check_exec_fault_profile(profile: str | None) -> bool:
    if profile is None:
        return True
    from repro.exec.faults import EXEC_PROFILES

    if profile in EXEC_PROFILES:
        return True
    print(
        f"unknown exec fault profile {profile!r}; "
        f"known: {sorted(EXEC_PROFILES)}",
        file=sys.stderr,
    )
    return False


def _interrupted(exc) -> int:
    # Stdout stays untouched so a resumed run's combined stdout can be
    # byte-compared against an uninterrupted run's.
    print(exc, file=sys.stderr)
    return 3


def _cmd_run(args: argparse.Namespace) -> int:
    if args.cache_dir is not None:
        from pathlib import Path

        cache_dir = Path(args.cache_dir)
        if cache_dir.exists() and not cache_dir.is_dir():
            print(
                f"--cache-dir {args.cache_dir!r} is not a directory",
                file=sys.stderr,
            )
            return 2
    if (args.supervise or args.resume) and args.experiment != "all":
        print("--supervise/--resume apply to 'run all' only", file=sys.stderr)
        return 2
    from repro.exec.supervisor import RunInterrupted

    try:
        run = api.study.run_study(
            experiment=args.experiment,
            scale=args.scale,
            seed=args.seed,
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
            cache_dir=args.cache_dir,
            parallel=args.parallel,
            trace=args.trace_out is not None,
            supervise=args.supervise,
            resume=args.resume,
            checkpoint_dir=args.checkpoint_dir,
            exec_fault_profile=args.exec_fault_profile,
            exec_fault_seed=args.exec_fault_seed,
            mechanism=args.mechanism,
        )
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RunInterrupted as exc:
        return _interrupted(exc)
    if args.trace_out is not None:
        run.write_trace(
            args.trace_out, experiment=args.experiment, parallel=args.parallel
        )
    for result in run.results:
        print(result.render())
        print()
    if run.crashes:
        print(f"{run.crashes} experiment(s) CRASHED", file=sys.stderr)
    if run.shape_failures:
        print(
            f"{run.shape_failures} shape comparison(s) FAILED", file=sys.stderr
        )
    return 1 if (run.crashes or run.shape_failures) else 0


def _render_corpus_info(info: dict) -> str:
    order = (
        "path", "bytes", "format", "seed", "scale",
        "leaf_count", "crl_count", "entry_count", "corpus_digest",
    )
    lines = [f"{key:14s} {info[key]}" for key in order if key in info]
    lines += [
        f"{key:14s} {value}"
        for key, value in sorted(info.items())
        if key not in order
    ]
    return "\n".join(lines)


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_command == "build":
        if not _check_exec_fault_profile(args.exec_fault_profile):
            return 2
        from repro.exec.supervisor import RunInterrupted

        try:
            info = api.corpus.build(
                args.directory,
                scale=args.scale,
                seed=args.seed,
                shards=args.shards,
                workers=args.workers,
                force=args.force,
                supervise=args.supervise,
                resume=args.resume,
                checkpoint_dir=args.checkpoint_dir,
                exec_fault_profile=args.exec_fault_profile,
                exec_fault_seed=args.exec_fault_seed,
            )
        except RunInterrupted as exc:
            return _interrupted(exc)
        print(_render_corpus_info(info))
        return 0
    if args.corpus_command == "verify":
        problems = api.corpus.verify(args.store)
        if not problems:
            print(f"{args.store}: ok")
            return 0
        for problem in problems:
            print(f"{args.store}: {problem}")
        if args.quarantine:
            from repro.scan.corpus_store import quarantine_store

            try:
                target = quarantine_store(args.store)
            except OSError as exc:
                print(f"quarantine failed: {exc}", file=sys.stderr)
                return 2
            print(f"quarantined -> {target}")
        return 1
    if args.corpus_command == "inspect":
        try:
            info = api.corpus.info(args.store)
        except Exception as exc:
            print(f"unreadable store {args.store!r}: {exc}", file=sys.stderr)
            return 2
        print(_render_corpus_info(info))
        return 0
    if args.corpus_command == "stat":
        entries = api.corpus.list(args.directory)
        if not entries:
            print(f"no corpus stores under {args.directory}")
            return 0
        for info in entries:
            if "error" in info:
                print(f"{info['path']}: {info['error']}")
            else:
                print(
                    f"{info['path']}: scale {info['scale']} seed {info['seed']} "
                    f"leaves {info['leaf_count']} entries {info['entry_count']} "
                    f"({info['bytes']} bytes, digest {info['corpus_digest']})"
                )
        return 0
    return 2


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.sessions < 0 or args.ticks < 1 or args.tick_seconds < 1:
        print(
            "--sessions must be >= 0, --ticks/--tick-seconds >= 1",
            file=sys.stderr,
        )
        return 2
    names = list(api.study.list_mechanisms())
    if args.mechanism is not None:
        if args.mechanism not in names:
            print(
                f"unknown mechanism {args.mechanism!r}; known: {names}",
                file=sys.stderr,
            )
            return 2
        names = [args.mechanism]
    plan = None
    if args.fault_profile is not None:
        from repro.net.faults import plan_from_profile

        fault_seed = (
            args.fault_seed if args.fault_seed is not None else args.seed
        )
        plan = plan_from_profile(args.fault_profile, fault_seed)
    study = api.study.new_study(
        scale=args.scale, seed=args.seed, trace=args.trace_out is not None
    )
    config = api.serve.FleetConfig(
        sessions=args.sessions,
        ticks=args.ticks,
        tick_seconds=args.tick_seconds,
        seed=args.seed,
        fault_plan=plan,
    )
    reports = [
        api.serve.run_fleet(study, name, config=config, obs=study.obs)
        for name in names
    ]
    print(api.serve.render_serving_report(reports))
    if args.trace_out is not None:
        study.obs.write_jsonl(
            args.trace_out,
            header={
                "experiment": "serve-bench",
                "scale": study.calibration.scale,
                "seed": study.calibration.seed,
                "fault_profile": args.fault_profile,
                "fault_seed": args.fault_seed,
                "sessions": args.sessions,
                "ticks": args.ticks,
            },
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.diff is not None and args.trace_file is not None:
        print("give either FILE or --diff A B, not both", file=sys.stderr)
        return 2
    if args.diff is None and args.trace_file is None:
        print("a trace FILE or --diff A B is required", file=sys.stderr)
        return 2
    if args.check and args.diff is None:
        print("--check requires --diff", file=sys.stderr)
        return 2
    try:
        if args.diff is not None:
            a_path, b_path = args.diff
            diff = api.trace.diff(api.trace.load(a_path), api.trace.load(b_path))
        else:
            records = api.trace.load(args.trace_file)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.diff is not None:
        print(
            api.trace.render_diff(
                diff, fmt=args.trace_format, a_label=a_path, b_label=b_path
            )
        )
        return 1 if (args.check and not diff.is_empty) else 0
    print(api.trace.render(records, fmt=args.trace_format, limit=args.limit))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        # Delegate verbatim so the linter owns its own flags (--format,
        # --baseline, ...) without colliding with the study parser's.
        return api.analysis.run(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # `python -m repro --fault-profile chaos` is the documented smoke
        # invocation: run everything under the named profile.
        if args.fault_profile is None and args.fault_seed is None:
            parser.error(
                "a command is required "
                "(list, mechanisms, run, report, serve-bench, trace, corpus)"
            )
        args.command = "run"
        args.experiment = "all"
        args.scale = 0.002
        args.seed = 20151028
        args.parallel = None
        args.cache_dir = None
        args.trace_out = None
        args.mechanism = None
        args.supervise = False
        args.resume = False
        args.checkpoint_dir = None
        args.exec_fault_profile = None
        args.exec_fault_seed = None
    if args.command == "list":
        for experiment_id, title in api.study.list_experiments().items():
            print(f"{experiment_id:10s} {title}")
        return 0
    if args.command == "mechanisms":
        for name, title in api.study.list_mechanisms().items():
            print(f"{name:16s} {title}")
        return 0
    if args.command in ("run", "report", "serve-bench") and not _check_fault_profile(
        args.fault_profile
    ):
        return 2
    if args.command == "run" and not _check_exec_fault_profile(
        args.exec_fault_profile
    ):
        return 2
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        sys.stdout.write(
            api.study.render_report(
                args.scale,
                seed=args.seed,
                fault_profile=args.fault_profile,
                fault_seed=args.fault_seed,
            )
        )
        return 0
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
