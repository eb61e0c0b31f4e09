"""Calibration regression guards.

EXPERIMENTS.md documents the bands the workload library is calibrated to
(trace bandwidths, branch densities, syscall rates).  These tests pin
those bands so an innocent-looking profile tweak can't silently invalidate
the reproduced figures.
"""

import pytest

from repro.hwtrace.cost import CostModel
from repro.hwtrace.tracer import VolumeModel
from repro.program.workloads import (
    WORKLOADS,
    WorkloadKind,
    realworld_workloads,
)

VOLUME = VolumeModel()
COSTS = CostModel()


def _of_kind(kind):
    return [p for p in WORKLOADS.values() if p.kind is kind]


def bandwidth_mb_s(profile) -> float:
    path = profile.path_model()
    return VOLUME.bytes_per_second(
        profile.branch_per_instr, profile.nominal_ips, path.indirect_fraction
    ) / 1e6


class TestTraceBandwidthBands:
    @pytest.mark.slow
    def test_single_thread_compute_band(self):
        """Per-core bandwidths land 0.5 s traces in Table 4's tens-of-MB."""
        for profile in _of_kind(WorkloadKind.COMPUTE):
            if profile.name == "xz":
                continue
            bandwidth = bandwidth_mb_s(profile)
            assert 60 < bandwidth < 260, (profile.name, bandwidth)

    @pytest.mark.slow
    def test_xz_is_the_heaviest_compute_tracer(self):
        xz = bandwidth_mb_s(WORKLOADS["xz"])
        others = [
            bandwidth_mb_s(p) for p in _of_kind(WorkloadKind.COMPUTE) if p.name != "xz"
        ]
        assert xz > max(others)

    def test_exist_pt_tax_band(self):
        """The Figure 13 EXIST band: 0.3-1.6% across the whole library."""
        for profile in WORKLOADS.values():
            tax = COSTS.pt_tax(profile.branch_per_instr, profile.nominal_ips)
            assert 0.003 < tax < 0.016, (profile.name, tax)

    def test_nht_dominated_by_drain(self):
        """Drain cost (not control) dominates NHT on solo compute —
        the calibration EXPERIMENTS.md documents."""
        from repro.util.units import MIB

        for profile in _of_kind(WorkloadKind.COMPUTE):
            bandwidth = bandwidth_mb_s(profile) * 1e6  # bytes/s
            drain_tax = bandwidth / 1e9 * (COSTS.drain_per_mib_ns / MIB)
            pt_tax = COSTS.pt_tax(profile.branch_per_instr, profile.nominal_ips)
            assert drain_tax > 1.5 * pt_tax, profile.name


class TestRateBands:
    def test_compute_syscall_rates_low(self):
        """Compute jobs syscall at ~0.5-3k/s (eBPF barely sees them)."""
        for profile in _of_kind(WorkloadKind.COMPUTE):
            rate = profile.nominal_ips * 1e9 / profile.syscall_interval
            assert 300 < rate < 5_000, (profile.name, rate)

    def test_online_request_sizes(self):
        """Online request bursts: 10-150 us of work (per-switch control
        costs land in the paper's 6-13% NHT band)."""
        for profile in _of_kind(WorkloadKind.ONLINE):
            work_us = profile.request_instr_mean / profile.nominal_ips / 1e3
            assert 8 < work_us < 160, (profile.name, work_us)

    def test_service_priorities_ordered(self):
        """RCO inputs: latency-sensitive search outranks best-effort cache."""
        assert WORKLOADS["Search1"].priority > WORKLOADS["Cache"].priority
        assert WORKLOADS["Search1"].cpu_weight > WORKLOADS["Cache"].cpu_weight

    def test_provisioning_split_exists(self):
        modes = {p.provisioning.value for p in realworld_workloads()}
        assert modes == {"cpu-set", "cpu-share"}


class TestIndirectFractions:
    def test_walk_indirect_fractions_plausible(self):
        """TIP-class branches stay a small minority (real programs: 2-15%),
        keeping byte volumes in the calibrated band."""
        for profile in WORKLOADS.values():
            fraction = profile.path_model().indirect_fraction
            assert 0.01 < fraction < 0.25, (profile.name, fraction)
