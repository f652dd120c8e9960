"""The 244-case browser test suite (§6.1).

The paper's suite covers four dimensions -- chain length, revocation
protocol, Extended Validation, and unavailable-revocation-information
failure modes -- for 244 distinct certificate configurations.  The
enumeration here reproduces that count exactly:

* 24  baseline valid chains        (4 lengths x {crl, ocsp, both} x EV)
* 60  revoked-element chains       (10 positions x {crl, ocsp, both} x EV)
* 60  CRL unavailable              (10 positions x 3 failure modes x EV)
* 80  OCSP unavailable             (10 positions x 4 failure modes x EV)
* 4   OCSP-fails-CRL-works         ({leaf, int1} x EV)
* 4   both protocols unavailable   ({leaf, int1} x EV)
* 12  OCSP stapling                (3 staple statuses x firewalled x EV)

("10 positions" = for 0..3 intermediates, every chain element that can be
revoked: 1 + 2 + 3 + 4.)
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.browsers.certgen import TestPki
from repro.browsers.policy import BrowserModel, ChainContext, ValidationResult
from repro.revocation.ocsp import CertStatus

__all__ = [
    "BrowserTestHarness",
    "TestCase",
    "TestOutcome",
    "generate_test_suite",
]

_CRL_FAILURES = ("nxdomain", "http404", "no_response")
_OCSP_FAILURES = ("nxdomain", "http404", "no_response", "unknown")


@dataclass(frozen=True)
class TestCase:
    """One certificate configuration of the suite."""

    __test__ = False  # domain naming, not a pytest class

    test_id: str
    family: str  # baseline | revoked | unavailable | fallback | both_unavailable | stapling
    n_intermediates: int
    protocols: frozenset[str]
    ev: bool
    #: chain index the scenario manipulates (0 = leaf, 1 = int1, ...).
    target_index: int | None = None
    #: failure mode for `unavailable` cases.
    failure_mode: str | None = None
    #: staple status for `stapling` cases.
    staple_status: str | None = None
    responder_firewalled: bool = False

    @property
    def target_position(self) -> str | None:
        if self.target_index is None:
            return None
        if self.target_index == 0:
            return "leaf"
        if self.target_index == 1:
            return "int1"
        return "int2plus"

    @property
    def expected_reject(self) -> bool:
        """The maximally secure behaviour (§2.3): reject on revocation and
        hard-fail when revocation information is unavailable."""
        if self.family == "baseline":
            return False
        if self.family == "stapling":
            return self.staple_status == "revoked"
        return True

    def describe(self) -> str:
        bits = [
            self.family,
            f"{self.n_intermediates} ints",
            "+".join(sorted(self.protocols)),
            "EV" if self.ev else "DV",
        ]
        if self.target_position:
            bits.append(f"target={self.target_position}")
        if self.failure_mode:
            bits.append(f"mode={self.failure_mode}")
        if self.staple_status:
            bits.append(f"staple={self.staple_status}")
            if self.responder_firewalled:
                bits.append("firewalled")
        return ", ".join(bits)


def generate_test_suite() -> list[TestCase]:
    """The paper's 244 test configurations."""
    cases: list[TestCase] = []
    counter = 0

    def add(**kwargs) -> None:
        nonlocal counter
        cases.append(TestCase(test_id=f"t{counter:03d}", **kwargs))
        counter += 1

    evs = (False, True)
    lengths = (0, 1, 2, 3)

    # 1. Baseline valid chains.
    for length in lengths:
        for protocols in ({"crl"}, {"ocsp"}, {"crl", "ocsp"}):
            for ev in evs:
                add(
                    family="baseline",
                    n_intermediates=length,
                    protocols=frozenset(protocols),
                    ev=ev,
                )

    # 2. Revoked elements.
    for length in lengths:
        for target in range(length + 1):
            for protocols in ({"crl"}, {"ocsp"}, {"crl", "ocsp"}):
                for ev in evs:
                    add(
                        family="revoked",
                        n_intermediates=length,
                        protocols=frozenset(protocols),
                        ev=ev,
                        target_index=target,
                    )

    # 3. Unavailable revocation information.
    for protocol, modes in (("crl", _CRL_FAILURES), ("ocsp", _OCSP_FAILURES)):
        for length in lengths:
            for target in range(length + 1):
                for mode in modes:
                    for ev in evs:
                        add(
                            family="unavailable",
                            n_intermediates=length,
                            protocols=frozenset({protocol}),
                            ev=ev,
                            target_index=target,
                            failure_mode=mode,
                        )

    # 4. OCSP responder down but the CRL still answers (fallback probes).
    for target in (0, 1):
        for ev in evs:
            add(
                family="fallback",
                n_intermediates=1,
                protocols=frozenset({"crl", "ocsp"}),
                ev=ev,
                target_index=target,
                failure_mode="no_response",
            )

    # 5. Both protocols unavailable.
    for target in (0, 1):
        for ev in evs:
            add(
                family="both_unavailable",
                n_intermediates=1,
                protocols=frozenset({"crl", "ocsp"}),
                ev=ev,
                target_index=target,
                failure_mode="no_response",
            )

    # 6. OCSP stapling.  OCSP-only chains: when the responder is
    # firewalled (paper footnote 15) the staple is the *only* way to
    # learn the revocation status.
    for staple_status in ("good", "revoked", "unknown"):
        for firewalled in (False, True):
            for ev in evs:
                add(
                    family="stapling",
                    n_intermediates=1,
                    protocols=frozenset({"ocsp"}),
                    ev=ev,
                    staple_status=staple_status,
                    responder_firewalled=firewalled,
                )

    assert len(cases) == 244, f"expected 244 tests, generated {len(cases)}"
    return cases


@dataclass(frozen=True)
class TestOutcome:
    """One (browser, test case) execution."""

    __test__ = False

    case: TestCase
    browser_label: str
    rejected: bool
    warned: bool
    staple_requested: bool
    staple_used: bool
    performed_any_check: bool
    checked_unknown: bool
    #: network-trace capture (§6.2): revocation bytes/fetches this
    #: browser generated while validating the connection.
    bytes_downloaded: int = 0
    revocation_fetches: int = 0

    @property
    def passed(self) -> bool:
        """Did the browser exhibit the maximally secure behaviour?"""
        if self.case.expected_reject:
            return self.rejected
        return not self.rejected


@dataclass
class BrowserTestHarness:
    """Runs browser models against the suite's test PKIs.

    A case's PKI does not depend on the browser, so the harness builds it
    once per ``case.test_id`` (in ``_pki_cache``) and every browser
    connects to that one PKI.  Caching is still defeated where the paper
    cared (§6.1): each :meth:`run_case` connects through a fresh
    :meth:`TestPki.checker` -- its own fetcher and cold client cache --
    and a built PKI holds nothing a client can change, so no browser sees
    another's cached state.  The cache is keyed on the case alone; the
    harness's ``now`` is fixed for its lifetime.
    """

    now: datetime.datetime = datetime.datetime(
        2015, 3, 31, 12, 0, tzinfo=datetime.timezone.utc
    )
    _pki_cache: dict[str, TestPki] = field(default_factory=dict)

    def build_pki(self, case: TestCase, browser: BrowserModel) -> TestPki:
        """Build ``case``'s PKI afresh.

        Its names and key seeds derive from ``case.test_id`` only, so two
        builds of a case are byte-identical.  ``browser`` is not used; the
        parameter keeps the hook's signature for subclasses that wrap it.
        """
        pki = TestPki(
            test_id=case.test_id,
            n_intermediates=case.n_intermediates,
            protocols=case.protocols,
            ev=case.ev,
            now=self.now,
        )
        if case.family == "revoked":
            pki.revoke(case.target_index)
        elif case.family == "unavailable":
            protocol = next(iter(case.protocols))
            pki.make_unavailable(case.target_index, protocol, case.failure_mode)
        elif case.family == "fallback":
            pki.revoke(case.target_index)
            pki.make_unavailable(case.target_index, "ocsp", case.failure_mode)
        elif case.family == "both_unavailable":
            pki.make_unavailable(case.target_index, "crl", case.failure_mode)
            pki.make_unavailable(case.target_index, "ocsp", case.failure_mode)
        elif case.family == "stapling":
            status = CertStatus(case.staple_status)
            if status is CertStatus.REVOKED:
                pki.revoke(0)
            pki.set_staple(status, firewall_responder=case.responder_firewalled)
        return pki

    def run_case(self, browser: BrowserModel, case: TestCase) -> TestOutcome:
        pki = self._pki_cache.get(case.test_id)
        if pki is None:
            pki = self._pki_cache[case.test_id] = self.build_pki(case, browser)
        chain, staple = pki.handshake(status_request=browser.requests_staple())
        checker = pki.checker()
        ctx = ChainContext(chain=chain, staple=staple, checker=checker, at=self.now)
        result: ValidationResult = browser.validate(ctx)
        checked_unknown = any(
            record.outcome.value == "unknown" for record in result.checks
        )
        fetcher = checker.fetcher
        return TestOutcome(
            case=case,
            browser_label=browser.label,
            rejected=not result.accepted,
            warned=result.warned,
            staple_requested=result.staple_requested,
            staple_used=result.staple_used,
            performed_any_check=result.performed_any_check,
            checked_unknown=checked_unknown,
            bytes_downloaded=fetcher.bytes_downloaded,
            revocation_fetches=fetcher.fetches,
        )

    def run_suite(
        self, browser: BrowserModel, cases: list[TestCase] | None = None
    ) -> list[TestOutcome]:
        cases = cases if cases is not None else generate_test_suite()
        return [self.run_case(browser, case) for case in cases]
