"""Shard-determinism lockdown for the sharded ecosystem generator.

The contract (docs/PERFORMANCE.md): partitioning brands into shards is a
scheduling decision, never a semantic one.  For a fixed calibration the
corpus -- every leaf, CRL entry, serial, and Alexa rank -- is
byte-identical whether it was generated in one in-process pass or
assembled from ``plan_shards`` groups (:meth:`Ecosystem.from_parts`),
whether those groups were built here or by supervised worker processes
(:func:`repro.exec.corpusbuild.build_corpus_supervised`).
:func:`repro.scan.corpus.corpus_digest` hashes every column, so digest
equality is corpus equality.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ca.profiles import PAPER_CA_PROFILES
from repro.exec.corpusbuild import build_corpus_supervised
from repro.exec.supervisor import SupervisorConfig
from repro.scan import shardgen
from repro.scan.calibration import Calibration
from repro.scan.corpus import corpus_digest, encode_corpus
from repro.scan.ecosystem import Ecosystem

SCALE = 0.0005


def _digest(ecosystem: Ecosystem) -> str:
    arrays, _ = encode_corpus(ecosystem)
    return corpus_digest(arrays)


def _sharded(calibration: Calibration, shards: int) -> Ecosystem:
    """The sharded build, in-process: plan, build each group's parts,
    merge -- what the supervised corpus build's workers do."""
    parts: dict[str, dict] = {}
    for group in shardgen.plan_shards(calibration, PAPER_CA_PROFILES, shards):
        parts.update(shardgen.build_shard_parts(calibration, group))
    return Ecosystem.from_parts(calibration, parts)


@pytest.fixture(scope="module")
def reference() -> str:
    return _digest(Ecosystem(Calibration(scale=SCALE)))


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [2, 4, 13, 64])
    def test_shard_count_never_changes_the_corpus(self, reference, shards):
        eco = _sharded(Calibration(scale=SCALE), shards)
        assert _digest(eco) == reference

    def test_worker_processes_never_change_the_corpus(self, reference, tmp_path):
        info = build_corpus_supervised(
            tmp_path,
            calibration=Calibration(scale=SCALE),
            shards=4,
            config=SupervisorConfig(workers=2),
        )
        assert info["built_shards"] == 4
        assert info["corpus_digest"] == reference

    def test_different_seed_changes_the_corpus(self, reference):
        eco = Ecosystem(Calibration(scale=SCALE, seed=7))
        assert _digest(eco) != reference

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=2**31),
        shards=st.integers(min_value=1, max_value=8),
    )
    def test_property_shards_invariant_per_seed(self, seed, shards):
        cal = Calibration(scale=SCALE, seed=seed)
        assert _digest(_sharded(cal, shards)) == _digest(Ecosystem(cal))


class TestShardPlan:
    @pytest.mark.parametrize("shards", [1, 2, 4, 13, 100])
    def test_plan_partitions_every_brand_exactly_once(self, shards):
        cal = Calibration(scale=SCALE)
        plan = shardgen.plan_shards(cal, PAPER_CA_PROFILES, shards)
        assert len(plan) == min(shards, len(PAPER_CA_PROFILES))
        names = [name for group in plan for name in group]
        assert sorted(names) == sorted(p.name for p in PAPER_CA_PROFILES)

    def test_plan_is_deterministic(self):
        cal = Calibration(scale=SCALE)
        assert shardgen.plan_shards(
            cal, PAPER_CA_PROFILES, 4
        ) == shardgen.plan_shards(cal, PAPER_CA_PROFILES, 4)

    def test_plan_balances_by_cert_count(self):
        """Greedy bin-packing: no shard holds everything when 4 are asked
        for and there are plenty of brands to spread."""
        cal = Calibration(scale=SCALE)
        plan = shardgen.plan_shards(cal, PAPER_CA_PROFILES, 4)
        assert all(group for group in plan)


class TestLayoutInvariants:
    def test_cert_ids_are_positional(self):
        eco = _sharded(Calibration(scale=SCALE), 4)
        for i, leaf in enumerate(eco.leaves):
            assert leaf.cert_id == i

    def test_layouts_cover_the_id_space(self):
        cal = Calibration(scale=SCALE)
        layouts = shardgen.layout_brands(cal, PAPER_CA_PROFILES)
        next_cert = next_crl = 0
        for layout in layouts:
            assert layout.cert_base == next_cert
            assert layout.crl_base == next_crl
            next_cert += layout.cert_count
            next_crl += layout.crl_count
