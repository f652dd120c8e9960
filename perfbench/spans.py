"""Host-time spans recorded from outside the program, for traced runs.

The benchmark wraps its own calls into each layer in :meth:`Spans.span`;
nothing inside ``repro`` is instrumented.  Spans are kept in memory and
handed to the parent process when the child ends.  A disabled recorder
(the untraced runs) records nothing and costs one branch per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.browsers.testsuite import BrowserTestHarness


class Spans:
    """In-memory span and counter recorder for one child process."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.monotonic_ns()  # the clock hostspeed samples on
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._open.pop()
            self.records.append(
                {"name": name, "parent": parent, "start_ns": start, "end_ns": end}
            )

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name`` (a count or seconds)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value


def span_seconds(records: list[dict]) -> dict[str, float]:
    """Total duration per span name, in seconds at the nominal host
    speed (``scaled_s``, which the child adds to each record)."""
    totals: dict[str, float] = {}
    for record in records:
        totals[record["name"]] = totals.get(record["name"], 0.0) + record["scaled_s"]
    return totals


@dataclass
class TimedHarness(BrowserTestHarness):
    """Splits each browser test case into test-PKI build and validation.

    ``run_case`` builds the case's PKI (timed here through ``build_pki``)
    and then validates the handshake; validation time is the rest of
    ``run_case``.
    """

    pki_build_ns: int = 0
    pki_builds: int = 0
    case_ns: int = 0
    validations: int = 0

    def build_pki(self, case, browser):
        start = time.perf_counter_ns()
        pki = super().build_pki(case, browser)
        self.pki_build_ns += time.perf_counter_ns() - start
        self.pki_builds += 1
        return pki

    def run_case(self, browser, case):
        start = time.perf_counter_ns()
        outcome = super().run_case(browser, case)
        self.case_ns += time.perf_counter_ns() - start
        self.validations += 1
        return outcome

    @property
    def validate_ns(self) -> int:
        return self.case_ns - self.pki_build_ns
