"""One fresh interpreter of a benchmark run.

``run.py`` spawns this script once per sample so that import cost,
``cached_property`` state, module-level memo caches and peak RSS belong
to that sample alone.  It sets up the workload (timed from the moment
the parent spawned it), runs the measured phase, checks the outputs
outside the timed region and prints one JSON object as its last line of
standard output.  A workload with several passes repeats the measured
phase and its check on the one set-up, and reports the mean pass.
Both timed phases are sampled for host speed from before the program
is imported (``hostspeed.py``).

    python3 perfbench/child.py --workload paper-sweep --seed 20151028 \\
        --role measure --workdir .perfbench-tmp/x --spawned-ns 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

# Started before the program's imports, which are part of set-up.
HOST = HostSpeed()
HOST.start()

from repro import api  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import (  # noqa: E402
    SIZES,
    TINY_SIZES,
    WORKLOADS,
    Child,
    mismatched_digests,
)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("measure", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    sizes = TINY_SIZES if args.tiny else SIZES
    child = Child(
        workload=args.workload,
        seed=args.seed,
        size=sizes[args.workload],
        workdir=args.workdir,
        spans=Spans(enabled=args.role == "traced"),
    )
    state = workload.setup(child)
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and
    # these readings share one clock.
    ready_ns = time.monotonic_ns()
    runs = []
    for index in range(workload.passes if args.role == "measure" else 1):
        child.pass_index = index
        if index:
            # Free the previous pass's outputs (a whole study on
            # corpus-scale) first, so passes do not add up in peak RSS.
            measured = None
            gc.collect()
        start_ns = time.monotonic_ns()
        measured = workload.measure(child, state)
        runs.append(HOST.phase(start_ns, time.monotonic_ns()))
        before = dict(child.digests)
        workload.check(child, measured)
        child.problems += [
            f"digest {key} differs between passes"
            for key in mismatched_digests([before, child.digests])
        ]
    extra_ns = time.monotonic_ns()
    if args.role == "traced" and workload.traced_extra is not None:
        workload.traced_extra(child, measured)
    extra = HOST.phase(extra_ns, time.monotonic_ns())
    HOST.stop()
    # Per-layer times at the nominal host speed too: each span over its
    # own interval, and the seconds the traced extra adds up (the
    # browser split) over the extra's.
    for record in child.spans.records:
        record["scaled_s"] = HOST.phase(record["start_ns"], record["end_ns"]).scaled_s
    for name in child.spans.counts:
        if name.endswith("_s"):
            child.spans.counts[name] *= REFERENCE_S / extra.reference_s
    setup = HOST.phase(args.spawned_ns, ready_ns)
    out = {
        "setup_s": setup.scaled_s,
        "run_s": statistics.fmean(run.scaled_s for run in runs),
        "first_pass_s": runs[0].scaled_s,
        "setup_wall_s": setup.wall_s,
        "run_wall_s": statistics.fmean(run.wall_s for run in runs),
        "reference_ms": statistics.median(run.reference_s for run in runs) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
    }
    out.update(
        ops=child.ops,
        digests=child.digests,
        problems=child.problems,
        store_bytes=child.store_bytes,
        spans=child.spans.records,
        counts=child.spans.counts,
        experiments=list(api.study.list_experiments()),
        mechanisms=list(api.study.list_mechanisms()),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
