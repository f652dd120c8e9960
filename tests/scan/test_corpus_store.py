"""Out-of-core corpus store round-trip lockdown.

Generate -> persist (SQLite columnar store) -> reload must reproduce the
corpus byte-for-byte: same corpus digest, same report bytes.  Unreadable
or mismatched stores are cache misses, never crashes -- ``run_all``
workers depend on that.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import api
from repro.core.pipeline import MeasurementStudy
from repro.scan import corpus, corpus_store
from repro.scan.calibration import Calibration
from repro.scan.datastore import ArtifactCache
from repro.scan.ecosystem import Ecosystem

SCALE = 0.0005


@pytest.fixture(scope="module")
def calibration() -> Calibration:
    return Calibration(scale=SCALE)


@pytest.fixture(scope="module")
def generated(calibration) -> Ecosystem:
    return Ecosystem(calibration)


@pytest.fixture(scope="module")
def store_path(calibration, generated, tmp_path_factory):
    cache = ArtifactCache(tmp_path_factory.mktemp("store"))
    return cache.store_ecosystem(calibration, generated)


@pytest.fixture(scope="module")
def reloaded(calibration, store_path) -> Ecosystem:
    arrays, meta = corpus_store.read_corpus(store_path)
    return Ecosystem.from_corpus(calibration, arrays, meta)


class TestRoundTrip:
    def test_corpus_digest_survives_the_store(self, generated, reloaded):
        original = corpus.corpus_digest(corpus.encode_corpus(generated)[0])
        restored = corpus.corpus_digest(corpus.encode_corpus(reloaded)[0])
        assert restored == original

    def test_leaf_records_are_equal(self, generated, reloaded):
        assert len(reloaded.leaves) == len(generated.leaves)
        stride = max(1, len(generated.leaves) // 200)
        for a, b in zip(
            generated.leaves[::stride], reloaded.leaves[::stride]
        ):
            assert a == b

    def test_crl_population_is_equal(self, calibration, generated, reloaded):
        end = calibration.measurement_end
        assert len(reloaded.crls) == len(generated.crls)
        for a, b in zip(generated.crls, reloaded.crls):
            assert a.url == b.url
            assert a.assigned_cert_count == b.assigned_cert_count
            assert len(a.entries) == len(b.entries)
            assert a.series.entry_count(end) == b.series.entry_count(end)

    def test_meta_describes_the_corpus(self, store_path, generated):
        meta = corpus_store.read_meta(store_path)
        assert meta["format"] == corpus.CORPUS_FORMAT
        assert meta["leaf_count"] == len(generated.leaves)
        assert meta["scale"] == repr(SCALE)

    def test_no_temp_files_left_behind(self, store_path):
        leftovers = [
            p for p in store_path.parent.iterdir() if p.name != store_path.name
        ]
        assert leftovers == []


class TestReportBytesUnchanged:
    """In-memory vs store-backed study: identical report bytes."""

    @pytest.fixture(scope="class")
    def in_memory(self, calibration) -> MeasurementStudy:
        return MeasurementStudy(calibration=calibration)

    @pytest.fixture(scope="class")
    def store_backed(self, calibration, tmp_path_factory) -> MeasurementStudy:
        cache_dir = tmp_path_factory.mktemp("warm")
        # First study populates the store; the one under test only reads.
        MeasurementStudy(calibration=calibration, cache_dir=cache_dir).ecosystem
        return MeasurementStudy(calibration=calibration, cache_dir=cache_dir)

    @pytest.mark.parametrize("experiment_id", ["section3", "fig2", "fig7"])
    def test_report_render_is_byte_identical(
        self, in_memory, store_backed, experiment_id
    ):
        a = api.study.run_one(experiment_id, in_memory).render()
        b = api.study.run_one(experiment_id, store_backed).render()
        assert a == b

    def test_scans_are_identical(self, in_memory, store_backed):
        assert in_memory.scans == store_backed.scans


class TestMissSemantics:
    def test_missing_store_is_a_miss(self, calibration, tmp_path):
        assert ArtifactCache(tmp_path).load_ecosystem(calibration) is None

    def test_garbage_store_is_a_miss(self, calibration, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.ecosystem_path(calibration).write_bytes(b"not a sqlite file")
        assert cache.load_ecosystem(calibration) is None
        assert not cache.has_ecosystem(calibration)

    def test_schema_mismatch_is_a_miss(self, calibration, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.ecosystem_path(calibration)
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE wrong (x)")
        connection.commit()
        connection.close()
        assert cache.load_ecosystem(calibration) is None

    def test_other_calibration_never_hits(
        self, calibration, generated, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cache.store_ecosystem(calibration, generated)
        other = Calibration(scale=SCALE, seed=calibration.seed + 1)
        assert cache.load_ecosystem(other) is None
        assert cache.has_ecosystem(calibration)
        assert not cache.has_ecosystem(other)


class TestCorruptionSemantics:
    """Damaged stores are cache misses and verify findings -- never
    exceptions (truncation, bit rot, tampered digests, torn writes)."""

    @pytest.fixture()
    def cache(self, calibration, store_path, tmp_path):
        """A private ArtifactCache seeded with a pristine copy of the
        module's store file (each test corrupts its own copy)."""
        cache = ArtifactCache(tmp_path)
        target = cache.ecosystem_path(calibration)
        target.write_bytes(store_path.read_bytes())
        return cache

    def _path(self, cache, calibration):
        return cache.ecosystem_path(calibration)

    def test_pristine_copy_hits_and_verifies(self, calibration, cache):
        assert cache.load_ecosystem(calibration) is not None
        assert corpus_store.verify_store(self._path(cache, calibration)) == []

    def test_truncated_store_is_a_miss(self, calibration, cache):
        path = self._path(cache, calibration)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        assert cache.load_ecosystem(calibration) is None
        assert corpus_store.verify_store(path)

    def test_flipped_byte_is_a_miss(self, calibration, cache):
        path = self._path(cache, calibration)
        size = path.stat().st_size
        index = size // 2 + size // 4  # land in the column blobs
        with open(path, "r+b") as handle:
            handle.seek(index)
            original = handle.read(1)
            handle.seek(index)
            handle.write(bytes([original[0] ^ 0x01]))
        assert cache.load_ecosystem(calibration) is None
        assert corpus_store.verify_store(path)

    def test_tampered_brand_digest_is_a_miss(self, calibration, cache):
        path = self._path(cache, calibration)
        arrays, meta = corpus_store.read_corpus(path)
        brand = meta["brand_layouts"][0][0]
        meta["brand_digests"][brand] = "0" * 40
        corpus_store.write_corpus(path, arrays, meta)
        assert cache.load_ecosystem(calibration) is None
        problems = corpus_store.verify_store(path)
        assert any(
            f"brand {brand}: slice digest mismatch" in p for p in problems
        )

    def test_crash_mid_write_is_a_miss(self, calibration, cache):
        path = self._path(cache, calibration)
        partial = path.read_bytes()
        path.write_bytes(partial[: len(partial) // 3])
        assert cache.load_ecosystem(calibration) is None
        problems = corpus_store.verify_store(path)
        assert problems and "unreadable" in problems[0]

    def test_injected_write_faults_are_misses(self, calibration, cache):
        from repro.exec.faults import plan_from_exec_profile

        path = self._path(cache, calibration)
        arrays, meta = corpus_store.read_corpus(path)
        fault = plan_from_exec_profile("torn-write", seed=5).decide_write(
            "corpus", 0
        )
        corpus_store.write_corpus(path, arrays, meta, fault=fault)
        assert cache.load_ecosystem(calibration) is None
        assert corpus_store.verify_store(path)

    def test_quarantine_moves_the_store_aside(self, calibration, cache):
        path = self._path(cache, calibration)
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        target = corpus_store.quarantine_store(path)
        assert not path.exists()
        assert target.name == path.name + ".quarantined"
        assert cache.load_ecosystem(calibration) is None  # just a miss


class TestApiSurface:
    def test_build_corpus_builds_then_reuses(self, tmp_path):
        first = api.corpus.build(tmp_path, scale=SCALE, shards=2)
        assert first["rebuilt"] is True
        second = api.corpus.build(tmp_path, scale=SCALE)
        assert second["rebuilt"] is False
        assert second["corpus_digest"] == first["corpus_digest"]
        assert api.corpus.info(first["path"])["leaf_count"] == first["leaf_count"]
        listed = api.corpus.list(tmp_path)
        assert [info["path"] for info in listed] == [first["path"]]
