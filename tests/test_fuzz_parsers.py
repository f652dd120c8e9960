"""Fuzz tests: the wire-format parsers must fail closed.

A client parsing attacker-supplied bytes (a certificate chain, a CRL, an
OCSP response) must either produce a structured object or raise
``Asn1Error`` -- never crash with an internal exception.  Hypothesis
feeds each parser random bytes and structured mutations of valid
encodings.

The encoder fast paths are guarded here too: a certificate's cached DER
(and the accessors derived from it) must equal a fresh encode and never
be shared with a modified copy, an OCSP response's cached size must
equal the length of a fresh encode, the memoised ``encode_oid`` must
stay byte-identical to an unmemoised encoder, and the sliced
UTCTime/GeneralizedTime decoder must accept nothing its ``strptime``
predecessor rejected.
"""

from __future__ import annotations

import dataclasses
import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1.der import (
    Asn1Error,
    DecodedValue,
    Tag,
    decode_all,
    encode_generalized_time,
    encode_oid,
    encode_utc_time,
)
from repro.asn1.oid import OID
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.crl import CertificateRevocationList, RevokedEntry
from repro.revocation.ocsp import CertStatus, OcspResponse
from repro.revocation.reason import ReasonCode

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


@st.composite
def ocsp_responses(draw) -> OcspResponse:
    status = draw(st.sampled_from(CertStatus))
    this_update = NB + datetime.timedelta(seconds=draw(st.integers(0, 10**8)))
    revoked = status is CertStatus.REVOKED
    return OcspResponse.build(
        responder_keys=_KEYS,
        cert_status=status,
        issuer_key_hash=draw(st.binary(min_size=1, max_size=32)),
        serial_number=draw(st.integers(0, 2**160)),
        this_update=this_update,
        next_update=this_update + datetime.timedelta(days=draw(st.integers(1, 30))),
        revocation_time=this_update if revoked else None,
        revocation_reason=(
            draw(st.sampled_from(ReasonCode)) if revoked and draw(st.booleans()) else None
        ),
    )


class TestOcspResponseSize:
    @given(ocsp_responses())
    @settings(max_examples=60, deadline=None)
    def test_cached_size_equals_fresh_encode(self, response):
        fresh = dataclasses.replace(response)
        assert "_der" not in vars(fresh)  # a new instance starts uncached
        assert response.encoded_size == len(response.to_der()) == len(fresh.to_der())

    @given(ocsp_responses())
    @settings(max_examples=60, deadline=None)
    def test_decoded_response_keeps_its_bytes(self, response):
        wire = response.to_der()
        parsed = OcspResponse.from_der(wire)
        assert vars(parsed)["_der"] == wire  # sized without a re-encode
        assert parsed.encoded_size == len(parsed.to_der())
        assert dataclasses.replace(parsed).to_der() == wire


def _strptime_time(tag: int, text: bytes) -> datetime.datetime:
    """The ``datetime.strptime`` decoder ``as_datetime`` replaced, kept
    as its oracle (RFC 5280 two-digit-year pivot at 50)."""
    decoded = text.decode("ascii")
    if tag == Tag.UTC_TIME:
        two_digit = int(decoded[:2])
        century = 2000 if two_digit < 50 else 1900
        decoded = f"{century + two_digit:04d}{decoded[2:]}"
    return datetime.datetime.strptime(decoded, "%Y%m%d%H%M%SZ").replace(tzinfo=UTC)


_UTC_RANGE = st.datetimes(datetime.datetime(1950, 1, 1), datetime.datetime(2049, 12, 31, 23, 59, 59))
_TIME_TAGS = st.sampled_from([Tag.UTC_TIME, Tag.GENERALIZED_TIME])


@st.composite
def _time_texts(draw) -> tuple[int, bytes]:
    """Encoded times, single-character mutations of them, and arbitrary
    near-length strings over digits, ``Z`` and the characters ``int``
    or ``strptime`` might tolerate."""
    tag = draw(_TIME_TAGS)
    when = draw(_UTC_RANGE if tag == Tag.UTC_TIME else st.datetimes())
    encode = encode_utc_time if tag == Tag.UTC_TIME else encode_generalized_time
    text = encode(when)[2:]
    kind = draw(st.sampled_from(["valid", "mutated", "arbitrary"]))
    if kind == "mutated":
        index = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(b"0123456789Zz +-_.\x00\xff"))
        text = text[:index] + bytes([char]) + text[index + 1 :]
    elif kind == "arbitrary":
        text = draw(st.binary(min_size=0, max_size=17) | st.text("0123456789Zz +-", max_size=17).map(str.encode))
    return tag, text


class TestTimeDecoding:
    @given(_TIME_TAGS, _UTC_RANGE)
    @settings(max_examples=200)
    def test_encoded_times_round_trip(self, tag, when):
        when = when.replace(microsecond=0, tzinfo=UTC)
        encode = encode_utc_time if tag == Tag.UTC_TIME else encode_generalized_time
        text = encode(when)[2:]
        assert DecodedValue(tag, text).as_datetime() == when == _strptime_time(tag, text)

    @given(_time_texts())
    @settings(max_examples=400)
    def test_accepts_nothing_strptime_rejects(self, case):
        tag, text = case
        try:
            expected = _strptime_time(tag, text)
        except ValueError:  # UnicodeDecodeError included
            expected = None
        try:
            got = DecodedValue(tag, text).as_datetime()
        except Asn1Error:
            got = None
        if expected is None:
            assert got is None, (tag, text)
        elif got is not None:
            assert got == expected, (tag, text)
