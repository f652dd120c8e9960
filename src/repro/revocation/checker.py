"""Client-side revocation checking.

:class:`RevocationChecker` implements the mechanics every browser model
shares -- fetch a CRL or query an OCSP responder for one certificate,
classify the outcome -- while the *policy* (which certificates to check,
what to do on failure) lives in :mod:`repro.browsers.policy`.

The checker talks to the network through the :class:`RevocationFetcher`
protocol, implemented by the simulated network (:mod:`repro.net`), so the
same checker code runs in unit tests with a stub fetcher.  Fetchers that
also implement the richer ``fetch_crl_result`` / ``fetch_ocsp_result``
methods (:class:`repro.net.fetcher.NetworkFetcher`) get their failures
classified into :class:`FailureClass` instead of collapsed into ``None``,
so callers can distinguish a soft-failable outage from a hard parse
error and account retries/latency per check.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, replace
from typing import Protocol

from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList
from repro.revocation.ocsp import CertStatus, OcspResponse

__all__ = [
    "CheckOutcome",
    "CheckResult",
    "FAILURE_CATEGORY",
    "FailureClass",
    "RevocationChecker",
    "RevocationFetcher",
]


class RevocationFetcher(Protocol):
    """What the checker needs from the network layer."""

    def fetch_crl(self, url: str) -> CertificateRevocationList | None:
        """Download and parse a CRL; ``None`` on any failure."""

    def fetch_ocsp(
        self, url: str, issuer_key_hash: bytes, serial_number: int, use_get: bool = True
    ) -> OcspResponse | None:
        """Query an OCSP responder; ``None`` on transport failure."""


class CheckOutcome(enum.Enum):
    """Result of one revocation check for one certificate."""

    GOOD = "good"
    REVOKED = "revoked"
    #: responder answered `unknown` (OCSP only).
    UNKNOWN = "unknown"
    #: revocation information could not be obtained at all.
    UNAVAILABLE = "unavailable"
    #: certificate carries no revocation pointers (never revocable).
    NO_INFO = "no_info"


class FailureClass(enum.Enum):
    """Why a check came back non-definitive (§6.1's unavailability modes
    plus the fault-injection layer's, docs/ROBUSTNESS.md)."""

    NONE = "none"
    #: timeout / no response from the endpoint.
    TIMEOUT = "timeout"
    #: the revocation server's domain name does not resolve.
    DNS = "dns"
    #: HTTP-level error (404 and friends).
    HTTP = "http"
    #: body received but undecodable (truncated/corrupted DER).
    MALFORMED = "malformed"
    #: payload decoded but its nextUpdate window has closed.
    STALE = "stale"
    #: the client's circuit breaker refused to try.
    BREAKER_OPEN = "breaker_open"
    #: a previous failure was negatively cached.
    NEGATIVE_CACHED = "negative_cached"
    #: the certificate carries no pointer for this protocol.
    NO_POINTER = "no_pointer"
    #: transport-less fetcher returned None without classification.
    UNCLASSIFIED = "unclassified"


#: Which layer each failure class blames: "transport" never reached the
#: endpoint, "endpoint" answered but unhelpfully, "content" delivered an
#: unusable payload, "client" refused locally (breaker/negative cache),
#: "pointer" had nowhere to go.  The static-analysis gate (RPR005,
#: docs/STATIC_ANALYSIS.md) verifies this dispatch stays exhaustive, so
#: adding a FailureClass member breaks the build until it is placed here.
# repro: exhaustive(FailureClass)
FAILURE_CATEGORY: dict[FailureClass, str] = {
    FailureClass.NONE: "ok",
    FailureClass.TIMEOUT: "transport",
    FailureClass.DNS: "transport",
    FailureClass.HTTP: "endpoint",
    FailureClass.MALFORMED: "content",
    FailureClass.STALE: "content",
    FailureClass.BREAKER_OPEN: "client",
    FailureClass.NEGATIVE_CACHED: "client",
    FailureClass.NO_POINTER: "pointer",
    FailureClass.UNCLASSIFIED: "unknown",
}


@dataclass(frozen=True)
class CheckResult:
    outcome: CheckOutcome
    protocol: str = ""  # "crl", "ocsp", or "staple"
    bytes_downloaded: int = 0
    latency: datetime.timedelta = datetime.timedelta(0)
    #: set when the outcome is UNKNOWN/UNAVAILABLE/NO_INFO.
    failure: FailureClass = FailureClass.NONE
    #: request attempts made across every URL tried (retries included).
    attempts: int = 0

    @property
    def is_definitive(self) -> bool:
        return self.outcome in (CheckOutcome.GOOD, CheckOutcome.REVOKED)

    @property
    def is_soft_failure(self) -> bool:
        """A failure a soft-fail browser silently accepts (§6.1): the
        information was unavailable, so no definitive answer exists."""
        return self.outcome in (CheckOutcome.UNAVAILABLE, CheckOutcome.UNKNOWN)

    @property
    def is_hard_failure(self) -> bool:
        """Unavailable in a way no fallback can fix for this protocol."""
        return self.outcome is CheckOutcome.UNAVAILABLE

    @property
    def failure_category(self) -> str:
        """The blamed layer for this result's failure class."""
        return FAILURE_CATEGORY[self.failure]


_FETCH_FAILURE_CLASSES = {
    "timeout": FailureClass.TIMEOUT,
    "dns_failure": FailureClass.DNS,
    "http_error": FailureClass.HTTP,
    "parse_error": FailureClass.MALFORMED,
    "breaker_open": FailureClass.BREAKER_OPEN,
    "negative_cached": FailureClass.NEGATIVE_CACHED,
}


class RevocationChecker:
    """Fetch-and-classify revocation status for a single certificate."""

    def __init__(self, fetcher: RevocationFetcher) -> None:
        self._fetcher = fetcher

    @property
    def fetcher(self) -> RevocationFetcher:
        """The fetcher every check goes through (and whose counters a
        caller reads back as the connection's network trace)."""
        return self._fetcher

    # -- fetch adapters ----------------------------------------------------

    def _fetch_crl(self, url: str):
        """Returns (crl | None, FailureClass, attempts, latency, bytes)."""
        rich = getattr(self._fetcher, "fetch_crl_result", None)
        if rich is None:
            crl = self._fetcher.fetch_crl(url)
            failure = FailureClass.NONE if crl is not None else FailureClass.UNCLASSIFIED
            return crl, failure, 0, datetime.timedelta(0), 0
        result = rich(url)
        return self._unpack(result)

    def _fetch_ocsp(self, url, issuer_key_hash, serial_number, use_get):
        rich = getattr(self._fetcher, "fetch_ocsp_result", None)
        if rich is None:
            response = self._fetcher.fetch_ocsp(
                url, issuer_key_hash, serial_number, use_get=use_get
            )
            failure = (
                FailureClass.NONE if response is not None else FailureClass.UNCLASSIFIED
            )
            return response, failure, 0, datetime.timedelta(0), 0
        result = rich(url, issuer_key_hash, serial_number, use_get=use_get)
        return self._unpack(result)

    @staticmethod
    def _unpack(result):
        failure = (
            FailureClass.NONE
            if result.ok
            else _FETCH_FAILURE_CLASSES.get(
                result.outcome.value, FailureClass.UNCLASSIFIED
            )
        )
        return (
            result.value,
            failure,
            result.attempts,
            result.latency,
            result.bytes_downloaded,
        )

    # -- checks ------------------------------------------------------------

    def check_crl(
        self, certificate: Certificate, at: datetime.datetime
    ) -> CheckResult:
        """Check via the certificate's CRL distribution points."""
        urls = certificate.crl_urls
        if not urls:
            return CheckResult(
                CheckOutcome.NO_INFO, protocol="crl", failure=FailureClass.NO_POINTER
            )
        attempts = 0
        latency = datetime.timedelta(0)
        nbytes = 0
        last_failure = FailureClass.UNCLASSIFIED
        for url in urls:
            crl, failure, tries, cost, down = self._fetch_crl(url)
            attempts += tries
            latency += cost
            nbytes += down
            if crl is None:
                last_failure = failure
                continue
            if crl.is_expired(at):
                last_failure = FailureClass.STALE
                continue
            size = crl.encoded_size
            outcome = (
                CheckOutcome.REVOKED
                if crl.is_revoked(certificate.serial_number)
                else CheckOutcome.GOOD
            )
            return CheckResult(
                outcome,
                protocol="crl",
                bytes_downloaded=max(nbytes, size),
                latency=latency,
                attempts=attempts,
            )
        return CheckResult(
            CheckOutcome.UNAVAILABLE,
            protocol="crl",
            bytes_downloaded=nbytes,
            latency=latency,
            failure=last_failure,
            attempts=attempts,
        )

    def check_ocsp(
        self,
        certificate: Certificate,
        issuer_key_hash: bytes,
        at: datetime.datetime,
        use_get: bool = True,
    ) -> CheckResult:
        """Check via the certificate's OCSP responders."""
        urls = certificate.ocsp_urls
        if not urls:
            return CheckResult(
                CheckOutcome.NO_INFO, protocol="ocsp", failure=FailureClass.NO_POINTER
            )
        attempts = 0
        latency = datetime.timedelta(0)
        nbytes = 0
        last_failure = FailureClass.UNCLASSIFIED
        for url in urls:
            response, failure, tries, cost, down = self._fetch_ocsp(
                url, issuer_key_hash, certificate.serial_number, use_get
            )
            attempts += tries
            latency += cost
            nbytes += down
            if response is None:
                last_failure = failure
                continue
            if not response.is_successful:
                last_failure = FailureClass.HTTP
                continue
            if response.is_expired(at):
                last_failure = FailureClass.STALE
                continue
            return CheckResult(
                self._classify(response),
                protocol="ocsp",
                bytes_downloaded=max(nbytes, response.encoded_size),
                latency=latency,
                attempts=attempts,
            )
        return CheckResult(
            CheckOutcome.UNAVAILABLE,
            protocol="ocsp",
            bytes_downloaded=nbytes,
            latency=latency,
            failure=last_failure,
            attempts=attempts,
        )

    def check_staple(
        self, staple: OcspResponse | None, at: datetime.datetime
    ) -> CheckResult:
        """Classify a stapled OCSP response delivered in the handshake."""
        if staple is None:
            return CheckResult(
                CheckOutcome.UNAVAILABLE,
                protocol="staple",
                failure=FailureClass.NO_POINTER,
            )
        if not staple.is_successful:
            return CheckResult(
                CheckOutcome.UNAVAILABLE,
                protocol="staple",
                failure=FailureClass.MALFORMED,
            )
        if staple.is_expired(at):
            return CheckResult(
                CheckOutcome.UNAVAILABLE,
                protocol="staple",
                failure=FailureClass.STALE,
            )
        result = CheckResult(self._classify(staple), protocol="staple")
        if result.outcome is CheckOutcome.UNKNOWN:
            result = replace(result, failure=FailureClass.UNCLASSIFIED)
        return result

    @staticmethod
    def _classify(response: OcspResponse) -> CheckOutcome:
        if response.cert_status is CertStatus.REVOKED:
            return CheckOutcome.REVOKED
        if response.cert_status is CertStatus.GOOD:
            return CheckOutcome.GOOD
        return CheckOutcome.UNKNOWN
