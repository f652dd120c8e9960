"""The headline robustness invariant: interrupt + resume == uninterrupted.

A run killed partway by injected worker/process faults and resumed from
its checkpoint journal must produce *byte-identical* reports (and for
corpus builds an identical ``corpus_digest``) to a run that was never
interrupted; and with the fault profile ``none``, supervision itself
must not change a single output byte.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.pipeline import MeasurementStudy
from repro.exec.corpusbuild import build_corpus_supervised
from repro.exec.supervisor import RunInterrupted, SupervisorConfig
from repro.experiments.runner import run_all, run_supervised
from repro.scan.calibration import Calibration

SCALE = 0.0005
SEED = 3
#: seed 1 kills five of the fifteen experiment legs on their first
#: attempt under ``kill-worker`` -- the pinned CI chaos seed.
KILL_SEED = 1


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("warm-store"))


def _study(cache_dir, **kwargs) -> MeasurementStudy:
    return MeasurementStudy(
        calibration=Calibration(scale=SCALE, seed=SEED),
        cache_dir=cache_dir,
        exec_fault_profile=kwargs.pop("exec_fault_profile", "none"),
        **kwargs,
    )


@pytest.fixture(scope="module")
def baseline_renders(cache_dir) -> list[str]:
    """Unsupervised ``run_all`` output: the bytes every supervised
    variant must reproduce exactly."""
    results = run_all(_study(cache_dir), parallel=2)
    return [result.render() for result in results]


class TestRunAllInvariant:
    def test_supervision_alone_changes_no_bytes(
        self, cache_dir, baseline_renders, tmp_path
    ):
        results = run_supervised(
            _study(cache_dir), parallel=2, checkpoint_dir=tmp_path
        )
        assert [r.render() for r in results] == baseline_renders

    def test_kill_worker_interrupt_then_resume_is_byte_identical(
        self, cache_dir, baseline_renders, tmp_path
    ):
        chaos = _study(
            cache_dir,
            exec_fault_profile="kill-worker",
            exec_fault_seed=KILL_SEED,
        )
        with pytest.raises(RunInterrupted) as info:
            run_supervised(chaos, parallel=2, checkpoint_dir=tmp_path)
        assert info.value.completed >= 6  # the profile aborts after 6
        assert info.value.remaining

        # Resume under a different profile: exec faults never change
        # results, so the journal is valid across profiles -- and the
        # abort mark keeps the resumed run from aborting again.
        results = run_supervised(
            _study(cache_dir),
            parallel=2,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert [r.render() for r in results] == baseline_renders

    def test_run_key_separates_calibrations_and_net_faults(self, cache_dir):
        """The journal key covers everything the results depend on (and
        nothing else): calibration + network faults, never exec faults."""
        from repro.experiments.runner import _run_key

        # Explicit "none": under the CI fault matrix the default profile
        # comes from REPRO_FAULT_PROFILE and may itself be "chaos".
        base = _run_key(_study(cache_dir, fault_profile="none"))
        other_seed = MeasurementStudy(
            calibration=Calibration(scale=SCALE, seed=SEED + 1)
        )
        net_faults = MeasurementStudy(
            calibration=Calibration(scale=SCALE, seed=SEED),
            fault_profile="chaos",
        )
        exec_faults = _study(
            cache_dir,
            fault_profile="none",
            exec_fault_profile="kill-worker",
            exec_fault_seed=KILL_SEED,
        )
        assert _run_key(other_seed) != base
        assert _run_key(net_faults) != base
        assert _run_key(exec_faults) == base


class TestCorpusBuildInvariant:
    def test_chaos_interrupt_then_resume_matches_clean_build(
        self, tmp_path
    ):
        calibration = Calibration(scale=SCALE, seed=SEED)
        config = SupervisorConfig(workers=2, backoff_base=0.01)

        clean = build_corpus_supervised(
            tmp_path / "clean",
            calibration=calibration,
            shards=6,
            config=config,
        )
        assert clean["reused"] is False

        chaos_dir = tmp_path / "chaos"
        # Six shard tasks, so the chaos-proc ABORT (after 4) leaves
        # real work for the resumed run.
        faults_kwargs = dict(
            calibration=calibration, shards=6, config=config
        )
        from repro.exec.faults import plan_from_exec_profile

        with pytest.raises(RunInterrupted):
            build_corpus_supervised(
                chaos_dir,
                faults=plan_from_exec_profile("chaos-proc", seed=1),
                **faults_kwargs,
            )
        resumed = build_corpus_supervised(
            chaos_dir,
            resume=True,
            faults=plan_from_exec_profile("chaos-proc", seed=1),
            **faults_kwargs,
        )
        assert resumed["corpus_digest"] == clean["corpus_digest"]
        assert resumed["resumed_shards"] >= 1

        # And the store verifies + reuses cleanly afterwards.
        assert api.corpus.verify(resumed["path"]) == []
        again = build_corpus_supervised(chaos_dir, **faults_kwargs)
        assert again["reused"] is True
        assert again["corpus_digest"] == clean["corpus_digest"]

    def test_supervised_build_matches_unsupervised_api_build(self, tmp_path):
        calibration = Calibration(scale=SCALE, seed=SEED)
        supervised = build_corpus_supervised(
            tmp_path / "sup",
            calibration=calibration,
            shards=3,
            config=SupervisorConfig(workers=2),
        )
        plain = api.corpus.build(
            tmp_path / "plain", scale=SCALE, seed=SEED, shards=1
        )
        assert supervised["corpus_digest"] == plain["corpus_digest"]
