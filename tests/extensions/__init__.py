"""Tests for the fixes the paper proposes (§2.2, §7, §8): RFC 6961
multi-stapling, short-lived certificates and OneCRL, which live in
:mod:`repro.mechanisms`."""
