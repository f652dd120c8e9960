"""Benchmark entry point: one workload and seed, one JSON result line.

    python3 perfbench/run.py --workload paper-sweep --seed 20151028 \\
        --seconds 10 --trace 0

Each sample runs in a fresh interpreter (``child.py``).  Untraced runs
(``--trace 0``) report the end-to-end metrics: ``setup_s`` and ``run_s``,
each the median over the run's measured children (more children run
until their measured time reaches ``--seconds``), each child's time
scaled to the nominal host speed (``hostspeed.py``).  Traced runs
(``--trace 1``) run one untraced child and one traced child and report
the per-layer metrics, with ``tracing_overhead_s`` the traced ``run_s``
minus the untraced child's first pass; the traced child's spans are written to
``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"

#: a run must end within 180 s: children are killed at this deadline,
#: and no optional child starts once this much time has gone.
DEADLINE_S = 170.0
OPTIONAL_BUDGET_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s"}


class ChildFailed(RuntimeError):
    pass


def per_layer_units(experiments: list[str], mechanisms: list[str]) -> dict[str, str]:
    """Every per-layer metric name and its unit (BENCHMARK.json lists these)."""
    from workloads import CACHE_TIERS, FLAKY_MECHANISMS

    units = {f"runner.{eid}_s": "s" for eid in experiments}
    units.update(
        {
            "browsers.pki_build_s": "s",
            "browsers.pki_builds": "count",
            "browsers.validate_s": "s",
            "browsers.validations": "count",
            "shardgen.generate_s": "s",
            "shardgen.leaves": "count",
            "corpus_store.encode_s": "s",
            "corpus_store.load_s": "s",
            "corpus_store.verify_s": "s",
            "corpus_store.bytes": "B",
            "crawl_index.build_s": "s",
            "crawl_index.crls": "count",
            "crawl_index.entries": "count",
            "crlset.sweep_s": "s",
            "crlset.days": "count",
            "mechanisms.sweep_s": "s",
            "mechanisms.count": "count",
        }
    )
    for name in mechanisms:
        units[f"serve.fleet_s.{name}"] = "s"
        units[f"serve.requests.{name}"] = "count"
    for tier in CACHE_TIERS:
        units[f"serve.hit_ratio.{tier}"] = "ratio"
    units["serve.origin_signings"] = "count"
    for name in FLAKY_MECHANISMS:
        units[f"serve.flaky.fleet_s.{name}"] = "s"
        units[f"serve.flaky.availability.{name}"] = "ratio"
    units.update(
        {
            "tracing_overhead_s": "s",
            "wall.setup_s": "s",
            "wall.run_s": "s",
            "host.reference_ms": "ms",
            "failed_ratio": "ratio",
            "store_mb": "MB",
            "peak_rss_mb": "MB",
        }
    )
    return units


def layer_values(traced: dict, untraced: list[dict], failed_ratio: float) -> dict:
    """The per-layer metrics of one traced child; 0 where the workload
    does not drive a layer directly.  ``peak_rss_mb``, the unscaled
    ``wall.*`` times, the host's ``host.reference_ms`` and the baseline of
    ``tracing_overhead_s`` come from the untraced children."""
    from spans import span_seconds
    from workloads import CACHE_TIERS

    values = {**span_seconds(traced["spans"]), **traced["counts"]}
    for tier in CACHE_TIERS:
        lookups = values.get(f"serve.lookups.{tier}", 0)
        values[f"serve.hit_ratio.{tier}"] = (
            values.get(f"serve.hits.{tier}", 0) / lookups if lookups else 0
        )
    # The traced child makes only the first pass, so it is compared
    # with the untraced children's first passes.
    values["tracing_overhead_s"] = traced["run_s"] - statistics.median(
        result["first_pass_s"] for result in untraced
    )
    for name, key in (
        ("peak_rss_mb", "peak_rss_mb"),
        ("wall.setup_s", "setup_wall_s"),
        ("wall.run_s", "run_wall_s"),
        ("host.reference_ms", "reference_ms"),
    ):
        values[name] = statistics.median(result[key] for result in untraced)
    values["failed_ratio"] = failed_ratio
    values["corpus_store.bytes"] = traced["store_bytes"]
    values["store_mb"] = traced["store_bytes"] / 1e6
    units = per_layer_units(traced["experiments"], traced["mechanisms"])
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }


def spawn(args, role: str, workdir: Path, deadline: float) -> dict:
    """Run one child interpreter to completion and parse its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"no time left to start a {role} child")
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--role",
        role,
        "--workdir",
        str(workdir),
        *(["--tiny"] if args.tiny else []),
        "--spawned-ns",
        str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} child overran the run's deadline") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(
            f"{role} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args) -> tuple[list[dict], dict | None]:
    """(measured children, traced child)."""
    from workloads import WORKLOADS

    deadline = time.monotonic() + DEADLINE_S
    optional_until = time.monotonic() + OPTIONAL_BUDGET_S
    workdir = TMP / f"{args.workload}-{os.getpid()}"
    counter = itertools.count()

    def child(role: str) -> dict:
        return spawn(args, role, workdir / f"{role}-{next(counter)}", deadline)

    try:
        # A traced run needs only one untraced baseline child.
        planned = 1 if args.trace else WORKLOADS[args.workload].children
        measured = [child("measure") for _ in range(planned)]
        while (
            sum(result["run_s"] for result in measured) < args.seconds
            and time.monotonic() < optional_until
        ):
            measured.append(child("measure"))
        traced = child("traced") if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return measured, traced


def summarise(args, measured, traced) -> dict:
    from workloads import mismatched_digests

    children = [*measured, *([traced] if traced else [])]
    problems = [problem for result in children for problem in result["problems"]]
    problems += [
        f"digest {key} differs between the children of this run"
        for key in mismatched_digests([result["digests"] for result in children])
    ]
    ops = [op for result in children for op in result["ops"]]
    failed = [op for op in ops if op["problem"] is not None]
    for op in failed:
        print(f"FAILED {args.workload} seed={args.seed} {op['op']}: {op['problem']}")
    for problem in problems:
        print(f"PROBLEM {args.workload} seed={args.seed}: {problem}")
    if traced:
        metrics = layer_values(traced, measured, len(failed) / len(ops))
        write_trace(args, traced)
    else:
        values = {
            "setup_s": statistics.median(result["setup_s"] for result in measured),
            "run_s": statistics.median(result["run_s"] for result in measured),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": not problems and not any(op["exact"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def write_trace(args, traced: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed}) + "\n")
        for record in traced["spans"]:
            handle.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20151028)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (not for measurement)"
    )
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the running child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        children = collect(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarise(args, *children)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
