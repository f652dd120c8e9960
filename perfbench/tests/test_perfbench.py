"""Self-test for the benchmark, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks that every workload emits every metric BENCHMARK.json names,
with its unit, traced and untraced; that the output checks fail on a
corrupted digest; and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--tiny", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stdout
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_golden_check_names_the_corrupted_experiment():
    golden = {"fig2": "a" * 64, "table2": "b" * 64}
    problems, mismatches = workloads.golden_problems(
        {"fig2": "a" * 64, "table2": "c" * 64}, golden, ["fig2", "table2"]
    )
    assert problems == [] and list(mismatches) == ["table2"]
    problems, mismatches = workloads.golden_problems(
        dict(golden), golden, ["fig2", "table2", "serving"]
    )
    assert problems and mismatches == {}  # a stale experiment set fails the run


def test_cross_run_and_store_checks_catch_corrupted_digests():
    assert workloads.mismatched_digests(
        [{"fleet.crl": "1", "fleet.ocsp": "2"}, {"fleet.crl": "1", "fleet.ocsp": "3"}]
    ) == ["fleet.ocsp"]
    assert workloads.store_problem([], False, "c5464cea", "c5464cea") is None
    assert workloads.store_problem([], False, "c5464cea", "c5464ceb")
    assert workloads.store_problem(["brand GoDaddy digest"], False, "x", "x")
    assert workloads.store_problem([], True, "x", "x")


def test_fleet_check_requires_full_delivery_on_the_clean_pass():
    def report(successes, fetches):
        return SimpleNamespace(fetch=SimpleNamespace(successes=successes, fetches=fetches))

    assert workloads.fleet_problem(report(10, 10), flaky=False) is None
    assert workloads.fleet_problem(report(9, 10), flaky=False)
    assert workloads.fleet_problem(report(9, 10), flaky=True) is None
    assert workloads.fleet_problem(report(10, 10), flaky=True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-sweep", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_shape_check_fails_only_on_unexpected_misses(tmp_path):
    def result(*missed):
        comparisons = [SimpleNamespace(metric=m, shape_holds=False) for m in missed]
        return SimpleNamespace(render=lambda: "report", comparisons=comparisons)

    child = workloads.Child(
        workload="corpus-scale",
        seed=1,
        size=workloads.SIZES["corpus-scale"],
        workdir=tmp_path,
        spans=workloads.Spans(enabled=False),
    )
    expected = sorted(workloads.EXPECTED_MISSES[0.02]["fig11"])
    workloads._check_reports(
        child, {"fig11": result(*expected), "fig5": result("uptake"), "fig7": result()}
    )
    failed = {op["op"]: op for op in child.ops if op["problem"]}
    assert list(failed) == ["fig5"] and not failed["fig5"]["exact"]


def test_host_speed_scaling_removes_samples_and_scales_by_the_mean_speed():
    host = hostspeed.HostSpeed()
    ms = 1_000_000
    host.starts = [10 * ms, 20 * ms, 30 * ms, 200 * ms]
    host.durations = [2 * ms, 4 * ms, 4 * ms, 1 * ms]
    phase = host.phase(0, 100 * ms)
    # speeds 1, 1/2 and 1/2 of nominal: a mean of 2/3, i.e. 3 ms a loop
    assert phase.samples == 3 and phase.reference_s == pytest.approx(0.003)
    assert phase.wall_s == pytest.approx(0.090)
    # so the program's 90 ms of wall time count as 60 ms at nominal speed
    assert phase.scaled_s == pytest.approx(0.060)
    # a phase without a sample of its own falls back to every sample
    assert host.phase(100 * ms, 150 * ms).reference_s == pytest.approx(
        4 / (1 / 2 + 1 / 4 + 1 / 4 + 1) / 1e3
    )
    assert hostspeed.HostSpeed().phase(0, ms).scaled_s == pytest.approx(0.001)


def test_sweep_order_is_a_seeded_permutation():
    ids = [f"e{i}" for i in range(17)]
    assert workloads.sweep_order(ids, 7) == workloads.sweep_order(ids, 7)
    assert sorted(workloads.sweep_order(ids, 7)) == sorted(ids)
    assert workloads.sweep_order(ids, 7) != workloads.sweep_order(ids, 8)


def test_serve_passes_draw_their_own_traffic():
    seeds = [workloads.pass_seed(20151028, index) for index in range(3)]
    assert seeds[0] == 20151028 and len(set(seeds)) == 3
    assert seeds == [workloads.pass_seed(20151028, index) for index in range(3)]
