"""OCSP Stapling as a pluggable mechanism (paper §2.2, §4.3, §8).

The server fetches its own OCSP response and staples it into the TLS
handshake: zero extra client fetches when every server for the site
staples, an ordinary OCSP pull otherwise.

Plain stapling only covers the leaf certificate: "the protocol does not
allow the server to include cached OCSP responses for intermediate
certificates" (§2.2).  A client that wants intermediate status must
still contact the CA -- which is exactly the latency the staple was
meant to remove.  The Multiple Certificate Status Request extension
(RFC 6961 [37]) lets the server staple a response for *every* chain
element: :class:`MultiStapleServer` extends the simulation's TLS server
with a per-chain-element staple cache, and :func:`chain_check_cost`
quantifies the §2.2 claim by counting the network fetches a strict
client still needs under each stapling mode.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Callable

from repro.mechanisms.base import (
    OCSP_RESPONSE_BYTES,
    CheckCost,
    Delivery,
    RevocationMechanism,
    ServeModel,
    SessionState,
    UpdateModel,
)
from repro.mechanisms.registry import register
from repro.net.tls import TlsServer
from repro.pki.certificate import Certificate
from repro.revocation.checker import CheckOutcome, RevocationChecker
from repro.revocation.ocsp import OcspResponse
from repro.revocation.stapling import StapleCache, StaplePolicy
from repro.scan.records import LeafRecord

__all__ = [
    "MultiStapleResult",
    "MultiStapleServer",
    "StaplingMechanism",
    "chain_check_cost",
]


@register
class StaplingMechanism(RevocationMechanism):
    name = "ocsp-stapling"
    title = "OCSP Stapling (handshake-delivered, OCSP fallback)"
    delivery = Delivery.HANDSHAKE
    uses_network = True  # the fallback pull still reaches the responder

    def covers(self, leaf: LeafRecord) -> bool:
        return leaf.ocsp_url is not None

    @staticmethod
    def is_fully_stapled(leaf: LeafRecord) -> bool:
        """Every server advertising the cert staples (§4.3's bar for a
        site to actually benefit)."""
        return leaf.stapling_servers == leaf.server_count > 0

    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        if not self.covers(leaf):
            return CheckOutcome.NO_INFO
        if leaf.revoked_at is not None and leaf.revoked_at <= at:
            # A revoked-status staple (or the fallback query) says so;
            # the mis-stapling server case is §6.2's browser-policy
            # question, not the mechanism's.
            return CheckOutcome.REVOKED
        if at > leaf.not_after:
            return CheckOutcome.UNKNOWN
        return CheckOutcome.GOOD

    def update_model(self) -> UpdateModel:
        # A staple is an OCSP response: same cacheable validity.
        return UpdateModel(update_interval_days=4.0)

    def serve_model(self) -> ServeModel:
        # Web servers refresh one staple per certificate and reuse it
        # for every handshake until nextUpdate (nginx-style reuse).
        return ServeModel(
            endpoint="staple",
            presign_interval_days=4.0,
            response_bytes=OCSP_RESPONSE_BYTES,
        )

    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        if self.is_fully_stapled(leaf):
            return CheckCost()  # staple arrived in the handshake
        if leaf.ocsp_url is None:
            return CheckCost()
        if leaf.cert_id in session.ocsp_certs:
            return CheckCost(cache_hit=True)
        session.ocsp_certs.add(leaf.cert_id)
        return CheckCost(fetched=(OCSP_RESPONSE_BYTES,))

    def payload_bytes(self, at: datetime.date) -> int:
        """The stapled response rides the handshake, same size."""
        return OCSP_RESPONSE_BYTES


@dataclass(frozen=True)
class MultiStapleResult:
    """A handshake carrying one staple per non-root chain element."""

    chain: tuple[Certificate, ...]
    #: staples[i] covers chain[i]; None where the server had none cached.
    staples: tuple[OcspResponse | None, ...]

    @property
    def leaf_staple(self) -> OcspResponse | None:
        return self.staples[0] if self.staples else None

    @property
    def complete(self) -> bool:
        """True when every non-root element came with a staple."""
        return all(staple is not None for staple in self.staples)


class MultiStapleServer:
    """A TLS server implementing RFC 6961-style whole-chain stapling.

    ``staple_fetchers[i](at)`` obtains a fresh OCSP response for chain
    element ``i`` from its issuer's responder (or ``None`` if down); each
    element has its own nginx-like cache.
    """

    def __init__(
        self,
        chain: list[Certificate] | tuple[Certificate, ...],
        staple_fetchers: list[Callable[[datetime.datetime], OcspResponse | None]],
        policy: StaplePolicy = StaplePolicy.GOOD_ONLY,
    ) -> None:
        if len(staple_fetchers) != len(chain) - 1:
            raise ValueError("need one staple fetcher per non-root element")
        self.chain = tuple(chain)
        self._fetchers = list(staple_fetchers)
        self._caches = [StapleCache(policy=policy) for _ in staple_fetchers]

    def warm_all(self, at: datetime.datetime) -> None:
        """Prime every cache (a long-running server in steady state)."""
        for cache, fetcher in zip(self._caches, self._fetchers):
            response = fetcher(at)
            if response is not None:
                cache.warm(response)

    def handshake(
        self, at: datetime.datetime, status_request_v2: bool
    ) -> MultiStapleResult:
        if not status_request_v2:
            return MultiStapleResult(chain=self.chain, staples=())
        staples = tuple(
            cache.get_staple(at, lambda fetcher=fetcher: fetcher(at))
            for cache, fetcher in zip(self._caches, self._fetchers)
        )
        return MultiStapleResult(chain=self.chain, staples=staples)

    def plain_tls_server(self) -> TlsServer:
        """The same site with classic leaf-only stapling, for comparison."""
        leaf_cache = StapleCache(policy=StaplePolicy.GOOD_ONLY)
        return TlsServer(
            chain=self.chain,
            stapling_enabled=True,
            staple_cache=leaf_cache,
            staple_fetcher=self._fetchers[0],
        )


@dataclass(frozen=True)
class ChainCheckCost:
    """Network fetches a strict client performs to validate one chain."""

    fetches: int
    outcomes: tuple[CheckOutcome, ...]

    @property
    def definitive(self) -> bool:
        return all(
            outcome in (CheckOutcome.GOOD, CheckOutcome.REVOKED)
            for outcome in self.outcomes
        )


def chain_check_cost(
    chain: tuple[Certificate, ...],
    staples: tuple[OcspResponse | None, ...],
    checker: RevocationChecker,
    at: datetime.datetime,
) -> ChainCheckCost:
    """Validate every non-root element, preferring staples, falling back
    to live OCSP; counts the live fetches the staples failed to avoid."""
    fetches = 0
    outcomes: list[CheckOutcome] = []
    for index in range(len(chain) - 1):
        staple = staples[index] if index < len(staples) else None
        if staple is not None:
            result = checker.check_staple(staple, at)
            if result.outcome is not CheckOutcome.UNAVAILABLE:
                outcomes.append(result.outcome)
                continue
        issuer = chain[min(index + 1, len(chain) - 1)]
        fetches += 1
        outcomes.append(
            checker.check_ocsp(chain[index], issuer.spki_hash, at).outcome
        )
    return ChainCheckCost(fetches=fetches, outcomes=tuple(outcomes))
