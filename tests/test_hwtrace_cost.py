"""Unit tests for the cost model and ledger."""

import pytest

from repro.hwtrace.cost import CostModel


class TestCostModel:

    def test_pt_tax_scales_with_branch_density(self):
        model = CostModel()
        low = model.pt_tax(branch_per_instr=0.1, nominal_ips=3.0)
        high = model.pt_tax(branch_per_instr=0.2, nominal_ips=3.0)
        assert high == pytest.approx(2 * low)

    def test_pt_tax_per_mille_scale(self):
        """The headline: packet generation alone is sub-1.5% for the
        Table 1 workload envelope."""
        model = CostModel()
        for bpi, ips in [(0.09, 3.6), (0.13, 3.0), (0.17, 3.1)]:
            assert 0.002 < model.pt_tax(bpi, ips) < 0.015


class TestCostLedger:
    def test_charges_accumulate(self, ledger):
        ledger.charge_wrmsr(3)
        ledger.charge_wrmsr()
        assert ledger.count("wrmsr") == 4
        assert ledger.total_ns["wrmsr"] == 4 * ledger.model.wrmsr_ns

    def test_charge_returns_cost(self, ledger):
        assert ledger.charge_hook() == ledger.model.hook_ns
        assert ledger.charge_sidecar() == ledger.model.sidecar_record_ns
        assert ledger.charge_hrt() == ledger.model.hrt_ns

    def test_grand_total(self, ledger):
        ledger.charge_wrmsr(2)
        ledger.charge_mode_switch()
        expected = 2 * ledger.model.wrmsr_ns + ledger.model.mode_switch_ns
        assert ledger.grand_total_ns == expected

    def test_custom_category(self, ledger):
        ledger.charge("drain", 12345, count=3)
        assert ledger.count("drain") == 3
        assert ledger.total_ns["drain"] == 12345

    def test_snapshot_is_copy(self, ledger):
        ledger.charge_wrmsr()
        snap = ledger.snapshot()
        ledger.charge_wrmsr()
        assert snap["wrmsr"] == 1
        assert ledger.count("wrmsr") == 2

    def test_unknown_category_count_zero(self, ledger):
        assert ledger.count("nothing") == 0
