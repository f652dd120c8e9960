"""Fuzz tests: the wire-format parsers must fail closed.

A client parsing attacker-supplied bytes (a certificate chain, a CRL, an
OCSP response) must either produce a structured object or raise
``Asn1Error`` -- never crash with an internal exception.  Hypothesis
feeds each parser random bytes and structured mutations of valid
encodings.

The encoder fast paths are guarded here too: a certificate's cached DER
(and the accessors derived from it) must equal a fresh encode and never
be shared with a modified copy, and the memoised ``encode_oid`` must stay
byte-identical to an unmemoised encoder.
"""

from __future__ import annotations

import dataclasses
import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1.der import Asn1Error, decode_all, encode_oid
from repro.asn1.oid import OID
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.ocsp import CertStatus, OcspResponse

UTC = datetime.timezone.utc
NB = datetime.datetime(2014, 1, 1, tzinfo=UTC)
NA = datetime.datetime(2016, 1, 1, tzinfo=UTC)


@pytest.fixture(scope="module")
def valid_cert_der() -> bytes:
    keys = KeyPair.generate("fuzz-ca")
    return (
        CertificateBuilder()
        .subject(Name.make("fuzz.example"))
        .issuer(Name.make("Fuzz CA"))
        .serial_number(7)
        .public_key(keys.public_key)
        .validity(NB, NA)
        .crl_urls(["http://crl.fuzz.example/0.crl"])
        .sign(keys)
    ).to_der()


@pytest.fixture(scope="module")
def valid_crl_der() -> bytes:
    keys = KeyPair.generate("fuzz-crl")
    return CertificateRevocationList.build(
        issuer=Name.make("Fuzz CA"),
        issuer_keys=keys,
        entries=[RevokedEntry(5, NB)],
        this_update=NB,
        next_update=NB + datetime.timedelta(days=1),
    ).to_der()


@pytest.fixture(scope="module")
def valid_ocsp_der() -> bytes:
    keys = KeyPair.generate("fuzz-ocsp")
    return OcspResponse.build(
        responder_keys=keys,
        cert_status=CertStatus.GOOD,
        issuer_key_hash=keys.key_id,
        serial_number=5,
        this_update=NB,
        next_update=NB + datetime.timedelta(days=1),
    ).to_der()


class TestRandomBytes:
    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_certificate_parser_fails_closed(self, blob):
        try:
            Certificate.from_der(blob)
        except Asn1Error:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_crl_parser_fails_closed(self, blob):
        try:
            CertificateRevocationList.from_der(blob)
        except Asn1Error:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_ocsp_parser_fails_closed(self, blob):
        try:
            OcspResponse.from_der(blob)
        except Asn1Error:
            pass


class TestMutatedValidEncodings:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_certificate_bitflips(self, valid_cert_der, data):
        blob = bytearray(valid_cert_der)
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        try:
            parsed = Certificate.from_der(bytes(blob))
        except Asn1Error:
            return
        # If it still parses, it must re-encode without crashing.
        parsed.to_der()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_crl_truncations(self, valid_crl_der, data):
        cut = data.draw(st.integers(0, len(valid_crl_der) - 1))
        try:
            CertificateRevocationList.from_der(valid_crl_der[:cut])
        except Asn1Error:
            return

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ocsp_bitflips(self, valid_ocsp_der, data):
        blob = bytearray(valid_ocsp_der)
        position = data.draw(st.integers(0, len(blob) - 1))
        blob[position] ^= data.draw(st.integers(1, 255))
        try:
            OcspResponse.from_der(bytes(blob))
        except Asn1Error:
            return

    def test_tampered_cert_fails_signature(self, valid_cert_der):
        """A parse-surviving mutation must still fail verification."""
        keys = KeyPair.generate("fuzz-ca")
        original = Certificate.from_der(valid_cert_der)
        assert original.verify_signature(keys.public_key)
        blob = bytearray(valid_cert_der)
        # Flip the serial-number content byte (INTEGER 7 in the TBS).
        serial_offset = valid_cert_der.index(b"\x02\x01\x07") + 2
        blob[serial_offset] ^= 0x01
        tampered = Certificate.from_der(bytes(blob))
        assert tampered.serial_number != original.serial_number
        assert not tampered.verify_signature(keys.public_key)


_KEYS = KeyPair.generate("fuzz-cache-ca")
_LABELS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20)


@st.composite
def certificates(draw) -> Certificate:
    label = draw(_LABELS)
    builder = (
        CertificateBuilder()
        .subject(Name.make(f"{label}.example"))
        .issuer(Name.make("Cache CA"))
        .serial_number(draw(st.integers(0, 2**160)))
        .public_key(draw(st.binary(min_size=1, max_size=64)))
        .validity(NB, NA)
        .crl_urls(draw(st.lists(_LABELS.map("http://crl.{}.example/0.crl".format), max_size=2)))
        .ocsp_urls(draw(st.lists(_LABELS.map("http://ocsp.{}.example".format), max_size=2)))
    )
    if draw(st.booleans()):
        builder.ev()
    return builder.sign(_KEYS)


def _derived(cert: Certificate) -> tuple:
    return (cert.to_der(), cert.fingerprint, cert.is_ev, cert.crl_urls, cert.ocsp_urls)


class TestCertificateCache:
    @given(certificates())
    @settings(max_examples=60, deadline=None)
    def test_cached_der_equals_fresh_encode(self, cert):
        cached = _derived(cert)
        assert _derived(cert) == cached  # second read: served from the cache
        copy = dataclasses.replace(cert)
        assert "_der" not in vars(copy)  # a new instance starts uncached
        assert _derived(copy) == cached

    @given(certificates(), st.integers(1, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_changed_copy_gets_its_own_encoding(self, cert, bump):
        der, fingerprint = cert.to_der(), cert.fingerprint
        changed = dataclasses.replace(
            cert,
            tbs=dataclasses.replace(cert.tbs, serial_number=cert.serial_number + bump),
        )
        assert changed.to_der() != der
        assert changed.fingerprint != fingerprint
        assert (cert.to_der(), cert.fingerprint) == (der, fingerprint)

    @given(certificates())
    @settings(max_examples=60, deadline=None)
    def test_changed_extensions_change_derived_accessors(self, cert):
        _derived(cert)
        bare = dataclasses.replace(cert, tbs=dataclasses.replace(cert.tbs, extensions=()))
        assert (bare.is_ev, bare.crl_urls, bare.ocsp_urls) == (False, (), ())
        if cert.tbs.extensions:
            assert bare.to_der() != cert.to_der()

    @given(certificates())
    @settings(max_examples=60, deadline=None)
    def test_der_round_trip(self, cert):
        parsed = Certificate.from_der(cert.to_der())
        assert parsed.to_der() == cert.to_der()
        assert _derived(parsed) == _derived(cert)


def _reference_encode_oid(dotted: str) -> bytes:
    """X.690 8.19 spelled out, with no memo (the encoder under test's oracle)."""
    arcs = [int(part) for part in dotted.split(".")]
    body = []
    for arc in (40 * arcs[0] + arcs[1], *arcs[2:]):
        groups = [arc & 0x7F]
        while arc > 0x7F:
            arc >>= 7
            groups.append(0x80 | (arc & 0x7F))
        body.extend(reversed(groups))
    assert len(body) < 0x80  # short-form length is all these OIDs need
    return bytes([0x06, len(body)]) + bytes(body)


_VALID_OIDS = st.one_of(
    st.sampled_from(
        [OID.COMMON_NAME, OID.CRL_DISTRIBUTION_POINTS, OID.EV_COMODO, OID.OCSP_BASIC]
    ),
    st.tuples(
        st.integers(0, 1), st.integers(0, 39), st.lists(st.integers(0, 2**40), max_size=8)
    ).map(lambda t: ".".join(map(str, (t[0], t[1], *t[2])))),
    st.tuples(st.integers(0, 2**20), st.lists(st.integers(0, 2**40), max_size=8)).map(
        lambda t: ".".join(map(str, (2, t[0], *t[1])))
    ),
)

_INVALID_OIDS = st.one_of(
    st.integers(0, 2**20).map(str),  # a single arc
    st.tuples(st.integers(3, 99), st.integers(0, 9)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.tuples(st.integers(0, 1), st.integers(40, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.integers(1, 2**20).map(lambda n: f"1.2.-{n}"),
    st.integers(1, 2**20).map(lambda n: f"1.-{n}"),
    _LABELS.filter(lambda x: not x.isdigit()).map(lambda x: f"1.2.{x}"),
)


class TestEncodeOidMemo:
    @given(_VALID_OIDS)
    @settings(max_examples=200)
    def test_memoised_matches_reference(self, dotted):
        expected = _reference_encode_oid(dotted)
        assert encode_oid(dotted) == expected
        assert encode_oid(dotted) == expected  # the cached answer too
        assert encode_oid.__wrapped__(dotted) == expected
        assert decode_all(expected).as_oid() == dotted

    @given(_INVALID_OIDS)
    @settings(max_examples=100)
    def test_invalid_oids_raise_every_time(self, dotted):
        for _ in range(2):  # failures are never cached as answers
            with pytest.raises(Asn1Error):
                encode_oid(dotted)
