"""Table 2 bench: the 244-case suite against all 30 browser/OS models.

Times a single browser/OS column over the full suite (the unit of work
the paper parallelised across VMs), then regenerates and prints the full
Table 2 matrix and diffs it against the paper.
"""

from conftest import emit

from repro.api import BrowserTestHarness, InternetExplorer, generate_test_suite
from repro import api


def test_bench_one_browser_full_suite(benchmark):
    suite = generate_test_suite()
    browser = InternetExplorer(version="11.0")

    # A fresh harness per round: a reused one would serve every later
    # round from its warm per-case PKI cache instead of timing a cold
    # column (PKI builds plus validation).
    outcomes = benchmark.pedantic(
        lambda harness: harness.run_suite(browser, suite),
        setup=lambda: ((BrowserTestHarness(),), {}),
        rounds=2,
        iterations=1,
    )
    assert len(outcomes) == 244


def test_bench_full_table2(benchmark, study):
    result = benchmark.pedantic(
        lambda: api.study.run_one("table2", study), rounds=1, iterations=1
    )
    emit(result)
    assert not result.data["mismatches"]
