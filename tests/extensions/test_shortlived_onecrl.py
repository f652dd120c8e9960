"""Short-lived certificate and OneCRL extension tests."""

from __future__ import annotations

import datetime

import pytest

from repro.mechanisms.onecrl import OneCrl, blast_radius, build_onecrl
from repro.mechanisms.shortlived import (
    RevocationRegime,
    attack_window_study,
)


class TestShortLived:
    @pytest.fixture(scope="class")
    def report(self, ecosystem):
        return attack_window_study(ecosystem, sample=800)

    def test_regime_ordering(self, report):
        """Soft-fail >> hard-fail ~ short-lived: the [46] argument."""
        soft = report.mean(RevocationRegime.SOFT_FAIL)
        hard = report.mean(RevocationRegime.HARD_FAIL)
        short = report.mean(RevocationRegime.SHORT_LIVED)
        assert soft > 5 * hard
        assert soft > 5 * short

    def test_soft_fail_window_is_months(self, report):
        # With ~1y validities, an unnoticed revocation leaves months.
        assert report.mean(RevocationRegime.SOFT_FAIL) > 60

    def test_short_lived_bounded_by_lifetime(self, report):
        ceiling = report.short_lived_days + 3.0 + 0.001  # + reaction time
        assert max(report.windows[RevocationRegime.SHORT_LIVED]) <= ceiling

    def test_improvement_factor(self, report):
        assert report.improvement_factor() > 5

    def test_windows_never_negative(self, report):
        for values in report.windows.values():
            assert all(v >= 0 for v in values)

    def test_shorter_lifetime_shrinks_window(self, ecosystem):
        long_report = attack_window_study(ecosystem, short_lived_days=30, sample=500)
        short_report = attack_window_study(ecosystem, short_lived_days=2, sample=500)
        assert short_report.mean(RevocationRegime.SHORT_LIVED) < long_report.mean(
            RevocationRegime.SHORT_LIVED
        )

    def test_empty_ecosystem_rejected(self, ecosystem):
        import copy

        class Fake:
            leaves = [l for l in ecosystem.leaves[:5] if False]

        with pytest.raises(ValueError):
            attack_window_study(Fake())


class TestOneCrl:
    def test_build_from_ecosystem(self, ecosystem, measurement_end):
        onecrl = build_onecrl(ecosystem, measurement_end)
        # The generator revokes a small number of intermediates (paper:
        # OneCRL held 8 certificates).
        assert 1 <= len(onecrl) <= 10

    def test_respects_revocation_dates(self, ecosystem):
        early = build_onecrl(ecosystem, datetime.date(2013, 6, 1))
        late = build_onecrl(ecosystem, datetime.date(2015, 3, 31))
        assert len(early) < len(late)

    def test_tiny_size(self, ecosystem, measurement_end):
        """The whole point: complete intermediate coverage in <1 KB,
        vs 250 KB for a 0.x%-coverage CRLSet."""
        onecrl = build_onecrl(ecosystem, measurement_end)
        assert onecrl.size_bytes < 1024

    def test_blocks_chain(self, ecosystem, measurement_end):
        onecrl = build_onecrl(ecosystem, measurement_end)
        revoked_spki = next(iter(onecrl.revoked_spkis))
        assert onecrl.is_revoked(revoked_spki)
        assert onecrl.blocks_chain([b"\x00" * 32, revoked_spki])
        assert not onecrl.blocks_chain([b"\x00" * 32])

    def test_blast_radius(self, ecosystem, measurement_end):
        """One intermediate endangers its whole leaf population."""
        onecrl = build_onecrl(ecosystem, measurement_end)
        revoked_record = next(
            record
            for record in ecosystem.intermediates
            if record.revoked_at is not None
        )
        radius = blast_radius(ecosystem, revoked_record.intermediate_id)
        assert radius > 0
        # Blocking one 32-byte entry protects every one of those leaves.
        assert radius * 32 > OneCrl(measurement_end, frozenset()).size_bytes
