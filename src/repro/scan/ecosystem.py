"""The synthetic Web-PKI ecosystem.

:class:`Ecosystem` generates, deterministically from a seed, everything
the paper's scans observed: a root store, an Intermediate Set of real CA
certificates, a Leaf Set of certificate lifecycle records, per-CA CRLs
(with realistic sharding, entry populations, and byte sizes), revocation
events including the Heartbleed burst of April 2014, hosting/stapling
deployment, and Alexa popularity ranks.

Generation is *sharded* (docs/PERFORMANCE.md): every brand is built from
its own seed-stable RNG substreams by :mod:`repro.scan.shardgen`, so the
corpus is byte-identical whether it is built here in one pass, assembled
from shard parts built by supervised worker processes
(:meth:`from_parts`, :mod:`repro.exec.corpusbuild`), or read back out of
the on-disk corpus store (:meth:`from_corpus`).

Calibration targets come from :class:`~repro.scan.calibration.Calibration`
and the per-CA profiles in :mod:`repro.ca.profiles`; DESIGN.md §2 explains
why this substitution preserves the behaviour the paper measures.
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.ca.profiles import PAPER_CA_PROFILES, CaProfile
from repro.pki.certificate import Certificate, CertificateBuilder
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.scan import shardgen
from repro.scan.calibration import Calibration
from repro.scan.crl_model import EcosystemCrl
from repro.scan.records import IntermediateRecord, LeafRecord
from repro.scan.shardgen import BrandState

__all__ = ["Ecosystem", "LeafIndex"]

_UTC = datetime.timezone.utc

#: far-future ordinal standing in for "never revoked" in the index.
_NEVER = datetime.date(9999, 1, 1).toordinal()


def _dt(day: datetime.date) -> datetime.datetime:
    return datetime.datetime(day.year, day.month, day.day, tzinfo=_UTC)


class LeafIndex:
    """Columnar view of the Leaf Set for the per-scan hot loops.

    Built once per ecosystem (lazily); fresh/alive sweeps over a
    scale-0.5 corpus drop from ~0.2 s of per-record predicate calls to a
    couple of numpy mask operations.  The Leaf Set is immutable after
    generation, so the index is never invalidated.
    """

    def __init__(self, leaves: list[LeafRecord]) -> None:
        n = len(leaves)
        self.not_before = np.empty(n, np.int64)
        self.not_after = np.empty(n, np.int64)
        self.birth = np.empty(n, np.int64)
        self.death = np.empty(n, np.int64)
        self.revoked = np.empty(n, np.int64)
        self.is_ev = np.empty(n, bool)
        for i, leaf in enumerate(leaves):
            self.not_before[i] = leaf.not_before.toordinal()
            self.not_after[i] = leaf.not_after.toordinal()
            self.birth[i] = leaf.birth.toordinal()
            self.death[i] = leaf.death.toordinal()
            self.revoked[i] = (
                leaf.revoked_at.toordinal() if leaf.revoked_at else _NEVER
            )
            self.is_ev[i] = leaf.is_ev

    def fresh_mask(self, on: datetime.date) -> np.ndarray:
        ordinal = on.toordinal()
        return (self.not_before <= ordinal) & (ordinal <= self.not_after)

    def alive_mask(self, on: datetime.date) -> np.ndarray:
        ordinal = on.toordinal()
        return (self.birth <= ordinal) & (ordinal <= self.death)

    def revoked_mask(self, on: datetime.date) -> np.ndarray:
        return self.revoked <= on.toordinal()

    def timeline_arrays(self):
        """The array tuple :func:`repro.core.timelines.revocation_series`
        consumes, in its declaration order."""
        return (
            self.not_before,
            self.not_after,
            self.birth,
            self.death,
            self.revoked,
            self.is_ev,
        )


class Ecosystem:
    """Deterministic synthetic PKI ecosystem (see module docstring)."""

    def __init__(
        self,
        calibration: Calibration | None = None,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> None:
        self.calibration = calibration or Calibration()
        self.profiles = profiles
        self._scaffold()
        self._build_in_process()
        self._finalize(assign_alexa=True)

    @classmethod
    def from_corpus(
        cls,
        calibration: Calibration,
        arrays: dict,
        meta: dict,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> Ecosystem:
        """Rebuild an ecosystem from stored corpus columns.

        The deterministic scaffold (roots, intermediates, CRL shards,
        URL tables) is regenerated from the calibration; only the
        generated randomness is decoded from ``arrays``.  Raises
        ``ValueError`` on a format/seed/scale mismatch.
        """
        from repro.scan import corpus

        if meta.get("format") != corpus.CORPUS_FORMAT:
            raise ValueError(f"unsupported corpus format {meta.get('format')!r}")
        if meta.get("seed") != calibration.seed or meta.get("scale") != repr(
            calibration.scale
        ):
            raise ValueError("corpus was generated under a different calibration")

        self = cls.__new__(cls)
        self.calibration = calibration
        self.profiles = profiles
        self._scaffold()
        if meta.get("leaf_count") != sum(
            layout.cert_count for layout in self._layouts
        ):
            raise ValueError("corpus leaf count does not match the calibration")
        self.leaves = []
        for profile, layout in zip(profiles, self._layouts):
            state = self.brands[profile.name]
            self.leaves.extend(
                corpus.decode_brand_leaves(
                    arrays, state, self.crls, offset=layout.cert_base
                )
            )
        corpus.decode_crl_population(arrays, self.crls, calibration)
        self._finalize(assign_alexa=False)  # ranks came out of the columns
        return self

    @classmethod
    def from_parts(
        cls,
        calibration: Calibration,
        parts_by_brand: dict,
        profiles: tuple[CaProfile, ...] = PAPER_CA_PROFILES,
    ) -> Ecosystem:
        """Assemble an ecosystem from pre-built columnar brand parts.

        The supervised corpus builder checkpoints each shard's parts as
        it completes; a resumed build merges checkpointed and freshly
        generated parts through this one path, so interrupted and
        uninterrupted builds converge on the same ecosystem (the parts
        are keyed on brand substreams, not on which run produced them).
        """
        self = cls.__new__(cls)
        self.calibration = calibration
        self.profiles = profiles
        self._scaffold()
        missing = [
            profile.name
            for profile in profiles
            if profile.name not in parts_by_brand
        ]
        if missing:
            raise ValueError(f"missing brand parts: {', '.join(missing)}")
        self._build_from_parts(parts_by_brand)
        self._finalize(assign_alexa=True)
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _scaffold(self) -> None:
        """Roots, brand states, CRL shards: cheap, fully deterministic."""
        calibration = self.calibration
        self._layouts = shardgen.layout_brands(calibration, self.profiles)
        self._root_cas, self.roots = shardgen.build_roots(
            calibration, self.profiles
        )
        self.root_store: frozenset[bytes] = frozenset(
            cert.fingerprint for cert in self.roots
        )
        self.brands: dict[str, BrandState] = {}
        self.intermediates: list[IntermediateRecord] = []
        self.crls: list[EcosystemCrl] = []
        self._crl_by_url: dict[str, EcosystemCrl] = {}
        for profile, layout in zip(self.profiles, self._layouts):
            state = shardgen.build_brand_scaffold(
                calibration, profile, layout, self._root_cas[profile.name]
            )
            self.brands[profile.name] = state
            self.intermediates.extend(state.intermediate_records)
            self.crls.extend(state.crls)
            self._crl_by_url.update(state.crl_by_url)

    def _build_in_process(self) -> None:
        """Generate every brand here, in profile order (each brand only
        reads its own substreams, so order is pure bookkeeping)."""
        calibration = self.calibration
        self.leaves = []
        for profile in self.profiles:
            state = self.brands[profile.name]
            # Scaffold already built; run the remaining brand chain.
            brand_leaves = shardgen.build_brand_leaves(calibration, state)
            shardgen.assign_brand_revocations(calibration, state, brand_leaves)
            shardgen.populate_brand_synthetic(calibration, state)
            self.leaves.extend(brand_leaves)

    def _build_from_parts(self, parts_by_brand: dict) -> None:
        """Decode shard-built columnar parts into this scaffold.

        Fresh brand states generated in the workers carry entries and
        counters; our own states only have the scaffold.  Decoding per
        brand attaches both and rebuilds the leaf records.
        """
        from repro.scan import corpus

        calibration = self.calibration
        self.leaves = []
        for profile, layout in zip(self.profiles, self._layouts):
            state = self.brands[profile.name]
            arrays = parts_by_brand[profile.name]
            self.leaves.extend(
                corpus.decode_brand_leaves(arrays, state, self.crls, offset=0)
            )
            corpus.decode_crl_population(arrays, state.crls, calibration)

    def _finalize(self, assign_alexa: bool) -> None:
        """Merge-time global stages + derived counts."""
        if assign_alexa:
            shardgen.assign_alexa_ranks(self.calibration, self.leaves)
        #: count of scan-visible but invalid certificates (self-signed
        #: router certs etc.); tracked as a count, per §3.1.
        targets = self.calibration.targets
        ratio = targets.unique_certs_seen / targets.leaf_set_size
        self.invalid_cert_count = int(len(self.leaves) * (ratio - 1.0))
        self._leaf_index: LeafIndex | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def leaf(self, cert_id: int) -> LeafRecord:
        leaf = self.leaves[cert_id]
        assert leaf.cert_id == cert_id
        return leaf

    def crl_for_url(self, url: str) -> EcosystemCrl:
        return self._crl_by_url[url]

    def brand_state(self, name: str) -> BrandState:
        return self.brands[name]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def leaf_index(self) -> LeafIndex:
        if self._leaf_index is None:
            self._leaf_index = LeafIndex(self.leaves)
        return self._leaf_index

    def fresh_leaves(self, on: datetime.date) -> list[LeafRecord]:
        leaves = self.leaves
        return [leaves[i] for i in np.nonzero(self.leaf_index.fresh_mask(on))[0]]

    def alive_leaves(self, on: datetime.date) -> list[LeafRecord]:
        leaves = self.leaves
        return [leaves[i] for i in np.nonzero(self.leaf_index.alive_mask(on))[0]]

    def alive_ids(self, on: datetime.date) -> list[int]:
        """cert_ids advertised on ``on`` (cert_id == index invariant)."""
        return np.nonzero(self.leaf_index.alive_mask(on))[0].tolist()

    def total_crl_entries(self, on: datetime.date) -> int:
        return sum(crl.entry_count(on) for crl in self.crls)

    # -- materialisation -----------------------------------------------

    def materialize(self, leaf: LeafRecord) -> Certificate:
        """Build the real, signed certificate for a leaf record."""
        state = self.brands[leaf.brand]
        index = next(
            i
            for i, rec in enumerate(state.intermediate_records)
            if rec.intermediate_id == leaf.intermediate_id
        )
        issuer_ca = state.intermediate_cas[index]
        keys = KeyPair.generate(f"leaf/{leaf.cert_id}/{self.calibration.seed}")
        builder = (
            CertificateBuilder()
            .subject(Name.make(f"site{leaf.cert_id}.example"))
            .issuer(issuer_ca.name)
            .serial_number(leaf.serial_number)
            .public_key(keys.public_key)
            .validity(_dt(leaf.not_before), _dt(leaf.not_after))
        )
        if leaf.crl_url:
            builder.crl_urls([leaf.crl_url])
        if leaf.ocsp_url:
            builder.ocsp_urls([leaf.ocsp_url])
        if leaf.is_ev:
            builder.ev()
        return builder.sign(issuer_ca.keys)

    def chain_for(self, leaf: LeafRecord) -> list[Certificate]:
        """[leaf certificate, intermediate, root] for chain verification."""
        state = self.brands[leaf.brand]
        index = next(
            i
            for i, rec in enumerate(state.intermediate_records)
            if rec.intermediate_id == leaf.intermediate_id
        )
        issuer_ca = state.intermediate_cas[index]
        root_ca = self._root_cas[leaf.brand]
        return [self.materialize(leaf), issuer_ca.certificate, root_ca.certificate]
