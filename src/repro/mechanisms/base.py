"""The pluggable revocation-mechanism interface.

The paper's central comparison -- CRLs vs OCSP vs stapling vs CRLSets on
availability, client cost, and vulnerability windows -- used to be
hard-wired into per-mechanism modules.  :class:`RevocationMechanism` is
the single seam every mechanism (the four legacy ones plus the post-2015
scenario pack: CRLite cascades, short-lived certificates, OneCRL,
postcertificates) implements, so every experiment can sweep the registry
(:mod:`repro.mechanisms.registry`) uniformly instead of naming
mechanisms ad hoc.

The contract (docs/MECHANISMS.md, enforced by
``tests/mechanisms/conformance.py``):

* **status lookup** is deterministic and *sound*: a revoked certificate
  is never reported :attr:`~repro.revocation.checker.CheckOutcome.GOOD`
  once the mechanism's staleness window has elapsed;
* **client cost** is honest: every byte and fetch a client pays shows up
  in :class:`CheckCost` / the fetcher's ``FetchStats``, including the
  cost of failed attempts under fault injection;
* **vulnerability windows** are non-negative and shrink monotonically
  as the update interval shrinks;
* **payload sizing** reports the bytes of the published artifact a
  client must hold (CRL corpus, CRLSet blob, filter cascade, ...).
"""

from __future__ import annotations

import abc
import datetime
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.revocation.checker import CheckOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pki.certificate import Certificate
    from repro.revocation.checker import CheckResult, RevocationChecker
    from repro.scan.ecosystem import Ecosystem
    from repro.scan.records import LeafRecord

__all__ = [
    "CheckCost",
    "Delivery",
    "MechanismHost",
    "OCSP_RESPONSE_BYTES",
    "RevocationMechanism",
    "SERVE_ENDPOINTS",
    "ServeModel",
    "SessionState",
    "UpdateModel",
    "attack_window_days",
    "residual_life_days",
    "staleness_window_days",
]

#: typical encoded size of one OCSP response (paper: "typically <1 KB");
#: shared by the OCSP, stapling, and CRL-with-OCSP-fallback cost models.
OCSP_RESPONSE_BYTES = 450


class Delivery(enum.Enum):
    """How revocation information reaches the client."""

    #: client pulls one artifact per issuing CA (CRLs).
    PULL_PER_CA = "pull-per-ca"
    #: client pulls one answer per certificate (OCSP).
    PULL_PER_CERT = "pull-per-cert"
    #: the server delivers the proof inside the TLS handshake
    #: (stapling, postcertificates).
    HANDSHAKE = "handshake"
    #: the vendor pushes an aggregate to every client
    #: (CRLSets, CRLite, OneCRL).
    PUSHED = "pushed"
    #: no revocation channel at all; expiry does the revoking
    #: (short-lived certificates).
    LIFETIME = "lifetime"


def staleness_window_days(
    update_interval_days: float, propagation_lag_days: float = 0.0
) -> float:
    """Worst-case age of the revocation information a client trusts.

    Shared by the short-lived regime study (hard-fail windows) and the
    OneCRL / CRLSet push models: an artifact refreshed every
    ``update_interval_days`` and taking ``propagation_lag_days`` to
    reach clients leaves a client trusting data up to the *sum* old.
    """
    if update_interval_days < 0 or propagation_lag_days < 0:
        raise ValueError("staleness components must be non-negative")
    return update_interval_days + propagation_lag_days


def residual_life_days(
    not_after: datetime.date, since: datetime.date
) -> float:
    """Days a certificate stays valid after ``since`` (compromise or
    revocation date); zero once it has already expired.  The residual
    half of every attack-window computation, shared by the short-lived
    regime study and the OneCRL scope override.
    """
    return max(0.0, float((not_after - since).days))


def attack_window_days(residual_days: float, exposure_days: float) -> float:
    """Clamp an attacker's exposure window to the certificate's life.

    ``residual_days`` is how long the certificate stays valid after the
    compromise; ``exposure_days`` is how long the mechanism leaves
    clients unprotected (reaction + staleness).  The window can never be
    negative, and can never outlive the certificate itself.
    """
    return max(0.0, min(residual_days, exposure_days))


@dataclass(frozen=True)
class UpdateModel:
    """A mechanism's update/propagation cadence."""

    #: days between refreshes of the published artifact.
    update_interval_days: float
    #: days for a refresh to reach the client population.
    propagation_lag_days: float = 0.0

    @property
    def staleness_window_days(self) -> float:
        return staleness_window_days(
            self.update_interval_days, self.propagation_lag_days
        )


#: endpoint classes a mechanism's server side can expose.  ``"none"``
#: marks mechanisms with no distribution channel at all.
SERVE_ENDPOINTS = frozenset(
    {"ocsp", "crl", "staple", "aggregate", "issuance", "none"}
)


@dataclass(frozen=True)
class ServeModel:
    """The server-side serving/distribution model behind a mechanism.

    Where :class:`UpdateModel` describes the cadence a *client* observes,
    ``ServeModel`` describes what the CA/CDN side must run to sustain it:
    which endpoint class answers requests, how often responses are
    re-signed, and how large one response is.  :mod:`repro.serve` builds
    its responder, caches, and fleet traffic from this port alone.
    """

    #: endpoint class served (one of :data:`SERVE_ENDPOINTS`):
    #: ``"ocsp"`` pre-signed per-certificate responses, ``"crl"``
    #: per-CA shards, ``"staple"`` handshake proofs refreshed by the web
    #: server, ``"aggregate"`` pushed blobs (CRLSet/CRLite/OneCRL)
    #: distributed as deltas, ``"issuance"`` re-issuance load with no
    #: online endpoint (short-lived certificates).
    endpoint: str
    #: days one pre-signed response stays valid (its nextUpdate horizon).
    presign_interval_days: float
    #: encoded size of one response; ``None`` means sized per artifact
    #: by the storage adapter (CRL shards, aggregate blobs).
    response_bytes: int | None = None
    #: fraction of the full artifact one periodic delta update carries
    #: (aggregate endpoints only).
    delta_fraction: float = 1.0
    #: days between client pulls of the aggregate delta; ``None`` for
    #: request-driven endpoints.
    pull_interval_days: float | None = None

    def __post_init__(self) -> None:
        if self.endpoint not in SERVE_ENDPOINTS:
            raise ValueError(f"unknown serve endpoint {self.endpoint!r}")
        if self.presign_interval_days <= 0:
            raise ValueError("presign_interval_days must be positive")
        if self.response_bytes is not None and self.response_bytes <= 0:
            raise ValueError("response_bytes must be positive when set")
        if not 0.0 < self.delta_fraction <= 1.0:
            raise ValueError("delta_fraction must be in (0, 1]")
        if self.pull_interval_days is not None and self.pull_interval_days <= 0:
            raise ValueError("pull_interval_days must be positive when set")

    @property
    def serves_online(self) -> bool:
        """Does this mechanism answer live requests at all?"""
        return self.endpoint in ("ocsp", "crl", "staple", "aggregate")


@dataclass(frozen=True)
class CheckCost:
    """What one revocation check costs the client, per site visit."""

    #: byte sizes of the payloads fetched, in fetch order.
    fetched: tuple[int, ...] = ()
    #: the check was answered from the client's session cache.
    cache_hit: bool = False

    @property
    def fetches(self) -> int:
        return len(self.fetched)

    @property
    def bytes_downloaded(self) -> int:
        return sum(self.fetched)


@dataclass
class SessionState:
    """Per-browsing-session client caches, shared across one session's
    checks.  Mechanisms key their private cache state by name."""

    #: CRL URLs already downloaded this session.
    crl_urls: set[str] = field(default_factory=set)
    #: certificate ids with a cached OCSP answer this session.
    ocsp_certs: set[int] = field(default_factory=set)


class MechanismHost(Protocol):
    """What a mechanism needs from its study (duck-typed so the
    conformance suite can substitute a lightweight stand-in)."""

    @property
    def ecosystem(self) -> Ecosystem: ...

    @property
    def calibration(self): ...


class RevocationMechanism(abc.ABC):
    """One way of learning that a certificate has been revoked."""

    #: registry key; lower-case, stable across refactors.
    name: str = "abstract"
    #: human-readable title for reports.
    title: str = "abstract mechanism"
    delivery: Delivery = Delivery.PULL_PER_CA
    #: True when checks reach over the network at connection time.
    uses_network: bool = False
    #: position in the availability experiment's active fallback chain
    #: (lower tries first); ``None`` keeps the mechanism out of it.
    fallback_priority: int | None = None

    def __init__(self, host: MechanismHost) -> None:
        self.host = host

    # -- convenience ------------------------------------------------------

    @property
    def ecosystem(self) -> Ecosystem:
        return self.host.ecosystem

    @property
    def measurement_end(self) -> datetime.date:
        return self.host.calibration.measurement_end

    # -- the contract -----------------------------------------------------

    @abc.abstractmethod
    def covers(self, leaf: LeafRecord) -> bool:
        """Can this mechanism say anything about this certificate?"""

    @abc.abstractmethod
    def lookup(self, leaf: LeafRecord, at: datetime.date) -> CheckOutcome:
        """Status a fully-propagated client sees on ``at``.

        Soundness contract: never ``GOOD`` for a certificate revoked at
        least :meth:`update_model`'s staleness window before ``at``;
        uncovered certificates come back ``NO_INFO``, never ``GOOD``.
        """

    @abc.abstractmethod
    def update_model(self) -> UpdateModel:
        """The mechanism's default update/propagation cadence."""

    @abc.abstractmethod
    def check_cost(self, leaf: LeafRecord, session: SessionState) -> CheckCost:
        """Per-site-visit client cost, mutating the session's caches."""

    @abc.abstractmethod
    def payload_bytes(self, at: datetime.date) -> int:
        """Size of the published artifact(s) behind this mechanism."""

    # -- derived behaviour (shared math; override only with cause) --------

    def serve_model(self) -> ServeModel:
        """The server-side model :mod:`repro.serve` runs this mechanism
        under.  The default derives an endpoint class from
        :attr:`delivery` and the update cadence; concrete mechanisms
        override it with their real response sizing.
        """
        interval = self.update_model().update_interval_days
        if self.delivery is Delivery.PULL_PER_CERT:
            return ServeModel(
                endpoint="ocsp",
                presign_interval_days=interval,
                response_bytes=OCSP_RESPONSE_BYTES,
            )
        if self.delivery is Delivery.PULL_PER_CA:
            return ServeModel(endpoint="crl", presign_interval_days=interval)
        if self.delivery is Delivery.HANDSHAKE:
            return ServeModel(
                endpoint="staple",
                presign_interval_days=interval,
                response_bytes=OCSP_RESPONSE_BYTES,
            )
        if self.delivery is Delivery.PUSHED:
            return ServeModel(
                endpoint="aggregate",
                presign_interval_days=interval,
                delta_fraction=0.1,
                pull_interval_days=interval,
            )
        return ServeModel(endpoint="issuance", presign_interval_days=interval)

    def vulnerability_window_days(
        self,
        leaf: LeafRecord,
        update_interval_days: float | None = None,
    ) -> float:
        """Days a revoked certificate stays accepted by a checking
        client: the staleness window, clamped to the certificate's
        remaining life.  Raises for a certificate that was never
        revoked.  Monotone non-decreasing in ``update_interval_days``.
        """
        if leaf.revoked_at is None:
            raise ValueError(f"certificate {leaf.cert_id} was never revoked")
        model = self.update_model()
        interval = (
            model.update_interval_days
            if update_interval_days is None
            else update_interval_days
        )
        exposure = staleness_window_days(interval, model.propagation_lag_days)
        residual = residual_life_days(leaf.not_after, leaf.revoked_at)
        return attack_window_days(residual, exposure)

    def active_check(
        self,
        checker: RevocationChecker,
        certificate: Certificate,
        at: datetime.datetime,
        issuer_key_hash: bytes | None = None,
    ) -> CheckResult | None:
        """Perform a live network check for one TLS connection.

        Only meaningful for :attr:`uses_network` mechanisms; the default
        (``None``) keeps push/lifetime mechanisms out of the
        availability experiment's fetch path.
        """
        return None
