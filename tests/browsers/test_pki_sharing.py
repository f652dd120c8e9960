"""The harness builds each case's PKI once and shares it across browsers.

The reference harness below is the unshared behaviour: a fresh PKI for
every (browser, case) pair.  Sharing must not change a single outcome,
traffic counters included, and a case's PKI must not depend on which
browser (or which harness) built it.
"""

from __future__ import annotations

import pytest

from repro.browsers.desktop import Chrome, Firefox
from repro.browsers.registry import all_browsers
from repro.browsers.table2 import compute_table2
from repro.browsers.testsuite import BrowserTestHarness, generate_test_suite


class FreshPkiHarness(BrowserTestHarness):
    """Oracle: drops the cached PKI before every run, so each
    (browser, case) pair connects to a PKI built for it alone."""

    def run_case(self, browser, case):
        self._pki_cache.pop(case.test_id, None)
        return super().run_case(browser, case)


class CountingHarness(BrowserTestHarness):
    """Counts calls to the two hooks a subclass may wrap."""

    builds: int = 0
    runs: int = 0

    def build_pki(self, case, browser):
        self.builds += 1
        return super().build_pki(case, browser)

    def run_case(self, browser, case):
        self.runs += 1
        return super().run_case(browser, case)


def _features(case) -> set[tuple]:
    return {
        ("length", case.family, case.n_intermediates),
        ("mode", case.family, case.failure_mode, case.protocols),
        ("target", case.family, case.target_position, case.protocols),
        ("staple", case.staple_status, case.responder_firewalled),
        ("ev", case.family, case.ev),
    }


@pytest.fixture(scope="module")
def suite():
    return generate_test_suite()


@pytest.fixture(scope="module")
def sample(suite):
    """The first case of every feature the suite varies (48 of 244)."""
    seen: set[tuple] = set()
    picked = []
    for case in suite:
        new = _features(case) - seen
        if new:
            picked.append(case)
            seen |= new
    return picked


def test_sample_covers_every_dimension(suite, sample):
    for attribute in (
        "family",
        "n_intermediates",
        "failure_mode",
        "staple_status",
        "protocols",
        "target_position",
        "responder_firewalled",
        "ev",
    ):
        assert {getattr(c, attribute) for c in sample} == {
            getattr(c, attribute) for c in suite
        }, attribute


def test_shared_pki_outcomes_equal_fresh_pki_outcomes(sample):
    shared = BrowserTestHarness()
    fresh = FreshPkiHarness()
    for browser in all_browsers():
        expected = fresh.run_suite(browser, sample)
        assert shared.run_suite(browser, sample) == expected, browser.label
    # A warm cache serves a second pass identically: no browser's run
    # leaves state behind for the next one.
    for browser in all_browsers():
        assert shared.run_suite(browser, sample) == fresh.run_suite(
            browser, sample
        ), browser.label
    assert len(shared._pki_cache) == len(sample)


def test_full_matrix_builds_one_pki_per_case(suite):
    harness = CountingHarness()
    compute_table2(harness=harness, cases=suite)
    assert len(harness._pki_cache) == 244
    assert harness.builds == 244
    assert harness.runs == 30 * 244


def test_pki_bytes_depend_on_the_case_only(suite):
    case = next(c for c in suite if c.family == "stapling" and c.ev)
    first, second = BrowserTestHarness(), BrowserTestHarness()
    first.run_case(Chrome(os="windows"), case)
    second.run_case(Firefox(os="linux"), case)
    pki_a = first._pki_cache[case.test_id]
    pki_b = second._pki_cache[case.test_id]
    assert pki_a is not pki_b
    assert [c.to_der() for c in pki_a.chain] == [c.to_der() for c in pki_b.chain]
    assert pki_a.handshake(True)[1].to_der() == pki_b.handshake(True)[1].to_der()
    assert pki_a.test_id == case.test_id
