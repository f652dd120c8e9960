"""The end-to-end measurement study.

:class:`MeasurementStudy` is the public façade: it owns one ecosystem and
lazily builds each measurement artefact (scans, CRL crawl, handshake scan,
CRLSet history and analyses) exactly once.  The experiment modules and the
examples all drive it.

Typical use::

    from repro import MeasurementStudy
    study = MeasurementStudy(scale=0.002)
    series = study.revocation_series()     # Figure 2
    report = study.crlset_coverage()       # §7.2
"""

from __future__ import annotations

import datetime
import os
from functools import cached_property
from pathlib import Path

from repro.core.timelines import RevocationSeries, revocation_series
from repro.crlset.builder import CrlSetBuilder, CrlSetHistory
from repro.crlset.coverage import CoverageReport, analyze_coverage
from repro.crlset.dynamics import DynamicsReport, analyze_dynamics
from repro.obs import Observability, obs_from_env
from repro.scan.calibration import Calibration, PaperTargets
from repro.scan.crawl_index import CrawlIndex
from repro.scan.crawler import CrlCrawler
from repro.scan.ecosystem import Ecosystem
from repro.scan.scanner import Rapid7Scanner, ScanSnapshot
from repro.scan.tls_scanner import (
    StaplingProbeResult,
    StaplingSummary,
    TlsHandshakeScanner,
)

__all__ = ["MeasurementStudy"]


class MeasurementStudy:
    """Reproduces the paper's measurements over a synthetic ecosystem.

    ``cache_dir`` opts into the on-disk corpus store: the generated
    ecosystem is persisted keyed on the calibration digest, so repeated
    runs with the same scale/seed/calibration load out-of-core instead of
    regenerating.  Generation runs in-process; a parallel, checkpointed
    build is ``repro.api.corpus.build(..., workers=N)`` into the same
    ``cache_dir``.
    """

    def __init__(
        self,
        scale: float = 0.002,
        seed: int = 20151028,
        calibration: Calibration | None = None,
        cache_dir: str | Path | None = None,
        fault_profile: str | None = None,
        fault_seed: int | None = None,
        obs: Observability | None = None,
        exec_fault_profile: str | None = None,
        exec_fault_seed: int | None = None,
        mechanisms: tuple[str, ...] | list[str] | None = None,
    ) -> None:
        self.calibration = calibration or Calibration(scale=scale, seed=seed)
        self.targets: PaperTargets = self.calibration.targets
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        # Observability (docs/OBSERVABILITY.md).  Defaults to the shared
        # disabled instance unless REPRO_TRACE is set; like fault settings
        # it never enters the calibration digest -- tracing must not change
        # a single report byte.
        self.obs = obs if obs is not None else obs_from_env()
        # Fault injection (docs/ROBUSTNESS.md).  The profile names an
        # entry in repro.net.faults.PROFILES; REPRO_FAULT_PROFILE lets CI
        # run the whole suite degraded without touching call sites.  The
        # settings deliberately do not enter the calibration digest: the
        # generated ecosystem is identical, only the simulated clients'
        # network weather changes.
        if fault_profile is None:
            fault_profile = os.environ.get("REPRO_FAULT_PROFILE", "none")
        self.fault_profile = fault_profile
        self.fault_seed = (
            fault_seed if fault_seed is not None else self.calibration.seed
        )
        # Process/storage fault injection (repro.exec.faults): worker
        # kills, hangs, parent aborts, corrupt store writes.  Honoured
        # only by the supervised execution paths (run_supervised and the
        # supervised corpus build); like the network-fault settings it
        # stays out of the calibration digest -- and unlike them it never
        # changes results at all, only how the run executes.
        if exec_fault_profile is None:
            exec_fault_profile = os.environ.get(
                "REPRO_EXEC_FAULT_PROFILE", "none"
            )
        self.exec_fault_profile = exec_fault_profile
        self.exec_fault_seed = (
            exec_fault_seed
            if exec_fault_seed is not None
            else self.calibration.seed
        )
        # Restricts (and re-orders) the revocation-mechanism sweep
        # (repro.mechanisms); None sweeps the whole registry.  Like the
        # fault settings this never enters the calibration digest -- the
        # substrate is identical, only which mechanisms get measured
        # changes.
        self.mechanism_names = tuple(mechanisms) if mechanisms else None

    # -- substrate ----------------------------------------------------------

    @cached_property
    def ecosystem(self) -> Ecosystem:
        with self.obs.tracer.span("substrate.ecosystem") as span:
            if self.cache_dir is not None:
                from repro.scan.datastore import ArtifactCache

                cache = ArtifactCache(self.cache_dir, obs=self.obs)
                cached = cache.load_ecosystem(self.calibration)
                if cached is not None:
                    span.set("source", "store")
                    return cached
                ecosystem = Ecosystem(self.calibration)
                cache.store_ecosystem(self.calibration, ecosystem)
                span.set("source", "generated")
                return ecosystem
            span.set("source", "generated")
            return Ecosystem(self.calibration)

    @cached_property
    def crawl_index(self) -> CrawlIndex:
        """One set of per-CRL event timelines, shared by the crawler, the
        CRLSet builder, and the dynamics analysis."""
        return CrawlIndex(self.ecosystem)

    @cached_property
    def scanner(self) -> Rapid7Scanner:
        return Rapid7Scanner(self.ecosystem, obs=self.obs)

    @cached_property
    def crawler(self) -> CrlCrawler:
        return CrlCrawler(self.ecosystem, index=self.crawl_index)

    @cached_property
    def tls_scanner(self) -> TlsHandshakeScanner:
        return TlsHandshakeScanner(self.ecosystem, obs=self.obs)

    # -- §3: dataset --------------------------------------------------------

    @cached_property
    def scans(self) -> list[ScanSnapshot]:
        return self.scanner.run_all()

    def dataset_summary(self) -> dict[str, float]:
        """§3's composition statistics (scaled counts and fractions)."""
        eco = self.ecosystem
        leaves = eco.leaves
        last_scan = self.scans[-1]
        n = len(leaves)
        with_crl = sum(1 for leaf in leaves if leaf.has_crl)
        with_ocsp = sum(1 for leaf in leaves if leaf.has_ocsp)
        neither = sum(1 for leaf in leaves if not leaf.has_revocation_info)
        int_crl = sum(1 for rec in eco.intermediates if rec.has_crl)
        int_ocsp = sum(1 for rec in eco.intermediates if rec.has_ocsp)
        int_neither = sum(
            1 for rec in eco.intermediates if not rec.has_revocation_info
        )
        ocsp_urls = {leaf.ocsp_url for leaf in leaves if leaf.ocsp_url}
        return {
            "leaf_set_size": n,
            "unique_certs_seen": n + eco.invalid_cert_count,
            "alive_in_last_scan": len(last_scan),
            "alive_in_last_scan_fraction": len(last_scan) / n,
            "intermediate_set_size": len(eco.intermediates),
            "root_store_size": len(eco.roots),
            "leaf_with_crl": with_crl / n,
            "leaf_with_ocsp": with_ocsp / n,
            "leaf_with_neither": neither / n,
            "intermediate_with_crl": int_crl / len(eco.intermediates),
            "intermediate_with_ocsp": int_ocsp / len(eco.intermediates),
            "intermediate_with_neither": int_neither / len(eco.intermediates),
            "unique_crls": len(eco.crls),
            "unique_ocsp_responders": len(ocsp_urls),
        }

    # -- §4: website administrators ------------------------------------------

    def revocation_series(
        self,
        start: datetime.date = datetime.date(2014, 1, 1),
        end: datetime.date | None = None,
        step_days: int = 7,
    ) -> RevocationSeries:
        """Figure 2."""
        end = end or self.calibration.measurement_end
        eco = self.ecosystem
        return revocation_series(
            eco.leaves,
            start,
            end,
            step_days,
            arrays=eco.leaf_index.timeline_arrays(),
        )

    @cached_property
    def stapling_summary(self) -> StaplingSummary:
        """§4.3's deployment statistics."""
        return self.tls_scanner.summary()

    def stapling_probes(
        self, server_sample: int = 20_000, probes: int = 10
    ) -> StaplingProbeResult:
        """Figure 3."""
        return self.tls_scanner.probe_experiment(server_sample, probes)

    def revocation_info_by_issue_month(self) -> dict[datetime.date, dict[str, float]]:
        """Figure 4: fraction of new certs with CRL / OCSP pointers."""
        buckets: dict[datetime.date, list] = {}
        for leaf in self.ecosystem.leaves:
            month = leaf.not_before.replace(day=1)
            buckets.setdefault(month, []).append(leaf)
        series: dict[datetime.date, dict[str, float]] = {}
        for month in sorted(buckets):
            leaves = buckets[month]
            series[month] = {
                "crl": sum(1 for l in leaves if l.has_crl) / len(leaves),
                "ocsp": sum(1 for l in leaves if l.has_ocsp) / len(leaves),
                "count": len(leaves),
            }
        return series

    # -- §5: CAs --------------------------------------------------------------

    def crl_sizes(self, at: datetime.date | None = None) -> dict[str, int]:
        at = at or self.calibration.measurement_end
        return self.crawler.sizes_at(at)

    def crl_entry_counts(self, at: datetime.date | None = None) -> dict[str, int]:
        at = at or self.calibration.measurement_end
        return self.crawler.entry_counts_at(at)

    # -- revocation mechanisms (docs/MECHANISMS.md) ---------------------------

    @cached_property
    def mechanism_suite(self):
        """Registered revocation mechanisms bound to this study, in
        sweep order (restricted by the ``mechanisms`` constructor
        argument).  The study satisfies
        :class:`repro.mechanisms.MechanismHost`."""
        from repro.mechanisms import create_suite

        return create_suite(self, names=self.mechanism_names)

    # -- §7: CRLSets ------------------------------------------------------------

    @cached_property
    def crlset_history(self) -> CrlSetHistory:
        return CrlSetBuilder(self.ecosystem, index=self.crawl_index).run()

    def crlset_coverage(self) -> CoverageReport:
        return analyze_coverage(self.ecosystem, self.crlset_history)

    def crlset_dynamics(self) -> DynamicsReport:
        return analyze_dynamics(
            self.ecosystem, self.crlset_history, crawler=self.crawler
        )
