"""Certificates: the X.509-shaped core object of the study.

A :class:`Certificate` wraps a :class:`TbsCertificate` ("to be signed")
plus a signature.  Encoding follows RFC 5280's Certificate ::= SEQUENCE
{ tbsCertificate, signatureAlgorithm, signatureValue } so that byte sizes
are realistic; decoding round-trips everything the pipeline needs.

Construction goes through :class:`CertificateBuilder`, which is how the
CA machinery (:mod:`repro.ca`) and the browser test suite
(:mod:`repro.browsers.certgen`) mint certificates.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from repro.asn1 import der
from repro.asn1.oid import OID
from repro.pki.extensions import (
    AuthorityInfoAccess,
    BasicConstraints,
    CertificatePolicies,
    CrlDistributionPoints,
    Extension,
)
from repro.pki.keys import KeyPair, SignatureBackend, default_backend
from repro.pki.name import Name

__all__ = ["Certificate", "CertificateBuilder", "TbsCertificate"]

_UTC = datetime.timezone.utc

# RFC 5280 TBSCertificate context tags: version [0], extensions [3].
_CTX_VERSION = 0
_CTX_EXTENSIONS = 3


def _encode_time(when: datetime.datetime) -> bytes:
    """RFC 5280: UTCTime through 2049, GeneralizedTime after."""
    if when.year <= 2049:
        return der.encode_utc_time(when)
    return der.encode_generalized_time(when)


@dataclass(frozen=True)
class TbsCertificate:
    """The signed portion of a certificate."""

    serial_number: int
    issuer: Name
    subject: Name
    not_before: datetime.datetime
    not_after: datetime.datetime
    public_key: bytes
    signature_algorithm_oid: str
    extensions: tuple[Extension, ...] = field(default_factory=tuple)

    def to_der(self) -> bytes:
        version = der.encode_context(_CTX_VERSION, der.encode_integer(2))  # v3
        algorithm = der.encode_sequence(
            der.encode_oid(self.signature_algorithm_oid), der.encode_null()
        )
        validity = der.encode_sequence(
            _encode_time(self.not_before), _encode_time(self.not_after)
        )
        spki = der.encode_sequence(algorithm, der.encode_bit_string(self.public_key))
        parts = [
            version,
            der.encode_integer(self.serial_number),
            algorithm,
            self.issuer.to_der(),
            validity,
            self.subject.to_der(),
            spki,
        ]
        if self.extensions:
            ext_seq = der.encode_sequence(*(ext.to_der() for ext in self.extensions))
            parts.append(der.encode_context(_CTX_EXTENSIONS, ext_seq))
        return der.encode_sequence(*parts)


@dataclass(frozen=True)
class Certificate:
    """A signed certificate plus convenience accessors used by analyses.

    The DER encoding and the accessors derived from it (``fingerprint``,
    ``is_ev``, ``crl_urls``, ``ocsp_urls``) are computed on first use and
    kept on the instance.  The fields are frozen, so the cache cannot go
    stale; ``dataclasses.replace`` builds a new instance with an empty one.
    """

    tbs: TbsCertificate
    signature: bytes

    def to_der(self) -> bytes:
        return self._der

    @cached_property
    def _der(self) -> bytes:
        algorithm = der.encode_sequence(
            der.encode_oid(self.tbs.signature_algorithm_oid), der.encode_null()
        )
        return der.encode_sequence(
            self.tbs.to_der(), algorithm, der.encode_bit_string(self.signature)
        )

    @classmethod
    def from_der(cls, data: bytes) -> "Certificate":
        try:
            return cls._from_der(data)
        except der.Asn1Error:
            raise
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            raise der.Asn1Error(f"malformed certificate: {exc}") from exc

    @classmethod
    def _from_der(cls, data: bytes) -> "Certificate":
        node = der.decode_all(data)
        tbs_node, _algorithm, signature_node = node.children
        children = tbs_node.children
        index = 0
        if children[index].context_number == 0:
            index += 1  # version
        serial = children[index].as_integer()
        index += 1
        algorithm_oid = children[index].children[0].as_oid()
        index += 1
        issuer = Name.from_der_node(children[index])
        index += 1
        validity = children[index]
        not_before = validity.children[0].as_datetime()
        not_after = validity.children[1].as_datetime()
        index += 1
        subject = Name.from_der_node(children[index])
        index += 1
        spki = children[index]
        public_key = spki.children[1].as_bit_string()
        index += 1
        extensions: list[Extension] = []
        while index < len(children):
            child = children[index]
            if child.context_number == 3:
                ext_seq = child.children[0]
                extensions = [Extension.from_der_node(e) for e in ext_seq.children]
            index += 1
        tbs = TbsCertificate(
            serial_number=serial,
            issuer=issuer,
            subject=subject,
            not_before=not_before,
            not_after=not_after,
            public_key=public_key,
            signature_algorithm_oid=algorithm_oid,
            extensions=tuple(extensions),
        )
        return cls(tbs=tbs, signature=signature_node.as_bit_string())

    # -- identity ----------------------------------------------------------

    @property
    def serial_number(self) -> int:
        return self.tbs.serial_number

    @property
    def issuer(self) -> Name:
        return self.tbs.issuer

    @property
    def subject(self) -> Name:
        return self.tbs.subject

    @property
    def not_before(self) -> datetime.datetime:
        return self.tbs.not_before

    @property
    def not_after(self) -> datetime.datetime:
        return self.tbs.not_after

    @property
    def public_key(self) -> bytes:
        return self.tbs.public_key

    @cached_property
    def fingerprint(self) -> bytes:
        """SHA-256 over the DER encoding; the unique certificate identity."""
        return hashlib.sha256(self.to_der()).digest()

    @property
    def spki_hash(self) -> bytes:
        """SHA-256 of the public key -- the CRLSet "parent" key (§7.1)."""
        return hashlib.sha256(self.public_key).digest()

    @property
    def is_self_signed(self) -> bool:
        return self.tbs.issuer == self.tbs.subject

    # -- extensions --------------------------------------------------------

    def extension(self, oid: str) -> Extension | None:
        for ext in self.tbs.extensions:
            if ext.oid == oid:
                return ext
        return None

    @property
    def basic_constraints(self) -> BasicConstraints:
        ext = self.extension(OID.BASIC_CONSTRAINTS)
        if ext is None:
            return BasicConstraints(is_ca=False)
        return BasicConstraints.from_extension(ext)

    @property
    def is_ca(self) -> bool:
        return self.basic_constraints.is_ca

    @property
    def crl_distribution_points(self) -> CrlDistributionPoints:
        ext = self.extension(OID.CRL_DISTRIBUTION_POINTS)
        if ext is None:
            return CrlDistributionPoints()
        return CrlDistributionPoints.from_extension(ext)

    @property
    def authority_info_access(self) -> AuthorityInfoAccess:
        ext = self.extension(OID.AUTHORITY_INFO_ACCESS)
        if ext is None:
            return AuthorityInfoAccess()
        return AuthorityInfoAccess.from_extension(ext)

    @property
    def certificate_policies(self) -> CertificatePolicies:
        ext = self.extension(OID.CERTIFICATE_POLICIES)
        if ext is None:
            return CertificatePolicies()
        return CertificatePolicies.from_extension(ext)

    @cached_property
    def is_ev(self) -> bool:
        return self.certificate_policies.is_ev

    @cached_property
    def crl_urls(self) -> tuple[str, ...]:
        """Potentially reachable (http[s]) CRL distribution points."""
        return self.crl_distribution_points.reachable_urls

    @cached_property
    def ocsp_urls(self) -> tuple[str, ...]:
        """Potentially reachable OCSP responder URLs."""
        return self.authority_info_access.reachable_ocsp_urls

    @property
    def has_revocation_info(self) -> bool:
        """False for the 0.09% of leaves the paper calls "never revocable"."""
        return bool(self.crl_urls or self.ocsp_urls)

    def is_fresh(self, when: datetime.datetime) -> bool:
        """Paper §3.3: within [notBefore, notAfter]."""
        return self.not_before <= when <= self.not_after

    def verify_signature(
        self, issuer_public_key: bytes, backend: SignatureBackend | None = None
    ) -> bool:
        backend = backend or default_backend()
        return backend.verify(issuer_public_key, self.tbs.to_der(), self.signature)

    def __hash__(self) -> int:
        return hash((self.tbs.serial_number, self.tbs.issuer, self.tbs.subject,
                     self.tbs.not_before, self.tbs.not_after, self.tbs.public_key))


class CertificateBuilder:
    """Fluent builder; ``sign`` with the issuer's key pair produces the cert.

    Example::

        cert = (CertificateBuilder()
                .subject(Name.make("example.com"))
                .issuer(ca_name)
                .serial_number(42)
                .public_key(leaf_keys.public_key)
                .validity(start, end)
                .crl_urls(["http://crl.ca.example/r0.crl"])
                .sign(ca_keys))
    """

    def __init__(self) -> None:
        self._subject: Name | None = None
        self._issuer: Name | None = None
        self._serial: int | None = None
        self._public_key: bytes | None = None
        self._not_before: datetime.datetime | None = None
        self._not_after: datetime.datetime | None = None
        self._extensions: list[Extension] = []

    def subject(self, name: Name) -> "CertificateBuilder":
        self._subject = name
        return self

    def issuer(self, name: Name) -> "CertificateBuilder":
        self._issuer = name
        return self

    def serial_number(self, serial: int) -> "CertificateBuilder":
        if serial < 0:
            raise ValueError("serial numbers must be non-negative")
        self._serial = serial
        return self

    def public_key(self, key: bytes) -> "CertificateBuilder":
        self._public_key = key
        return self

    def validity(
        self, not_before: datetime.datetime, not_after: datetime.datetime
    ) -> "CertificateBuilder":
        if not_after <= not_before:
            raise ValueError("notAfter must follow notBefore")
        self._not_before = not_before.astimezone(_UTC)
        self._not_after = not_after.astimezone(_UTC)
        return self

    def add_extension(self, extension: Extension) -> "CertificateBuilder":
        self._extensions.append(extension)
        return self

    def ca(self, path_length: int | None = None) -> "CertificateBuilder":
        return self.add_extension(
            BasicConstraints(is_ca=True, path_length=path_length).to_extension()
        )

    def crl_urls(self, urls: list[str]) -> "CertificateBuilder":
        if urls:
            self.add_extension(CrlDistributionPoints(tuple(urls)).to_extension())
        return self

    def ocsp_urls(self, urls: list[str]) -> "CertificateBuilder":
        if urls:
            self.add_extension(AuthorityInfoAccess(ocsp_urls=tuple(urls)).to_extension())
        return self

    def policies(self, policy_oids: list[str]) -> "CertificateBuilder":
        if policy_oids:
            self.add_extension(CertificatePolicies(tuple(policy_oids)).to_extension())
        return self

    def ev(self, policy_oid: str = OID.EV_VERISIGN) -> "CertificateBuilder":
        return self.policies([policy_oid])

    def sign(self, issuer_keys: KeyPair) -> Certificate:
        missing = [
            name
            for name, value in (
                ("subject", self._subject),
                ("issuer", self._issuer),
                ("serial_number", self._serial),
                ("public_key", self._public_key),
                ("validity", self._not_before),
            )
            if value is None
        ]
        if missing:
            raise ValueError(f"builder is missing: {', '.join(missing)}")
        tbs = TbsCertificate(
            serial_number=self._serial,
            issuer=self._issuer,
            subject=self._subject,
            not_before=self._not_before,
            not_after=self._not_after,
            public_key=self._public_key,
            signature_algorithm_oid=issuer_keys.backend.algorithm_oid,
            extensions=tuple(self._extensions),
        )
        return Certificate(tbs=tbs, signature=issuer_keys.sign(tbs.to_der()))
