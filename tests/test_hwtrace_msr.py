"""Unit tests for the RTIT MSR model (the hardware control rules)."""

import pytest

from repro.core.otc import OperationAwareTracingController
from repro.hwtrace.msr import (
    RTIT_CR3_MATCH,
    RTIT_CTL,
    RTIT_OUTPUT_BASE,
    CtlBits,
    RtitMsrFile,
    TraceEnabledError,
)

#: the §4 configuration EXIST's controller programs
TRACE_FLAGS = OperationAwareTracingController.TRACE_FLAGS


@pytest.fixture
def msr(ledger):
    return RtitMsrFile(core_id=0, ledger=ledger)


class TestBasicAccess:
    def test_initial_state_disabled(self, msr):
        assert not msr.trace_enabled
        assert msr.ctl == CtlBits(0)

    def test_write_read_roundtrip(self, msr):
        msr.write(RTIT_CR3_MATCH, 0x12345000)
        assert msr.cr3_match == 0x12345000

    def test_unknown_msr_rejected(self, msr):
        with pytest.raises(ValueError):
            msr.write(0x999, 1)

    def test_operations_charged_to_ledger(self, msr, ledger):
        msr.write(RTIT_CR3_MATCH, 1)
        assert ledger.count("wrmsr") == 1
        assert msr.write_count == 1


class TestHardwareRules:
    """The disable/modify/enable constraint the paper's §2.3 hinges on."""

    def test_config_while_enabled_rejected(self, msr):
        msr.configure(CtlBits.BRANCH_EN)
        msr.enable()
        with pytest.raises(TraceEnabledError):
            msr.write(RTIT_CR3_MATCH, 0x1000)
        with pytest.raises(TraceEnabledError):
            msr.write(RTIT_OUTPUT_BASE, 0x2000)

    def test_ctl_reconfig_while_enabled_rejected(self, msr):
        msr.configure(CtlBits.BRANCH_EN)
        msr.enable()
        with pytest.raises(TraceEnabledError):
            msr.write(RTIT_CTL, int(CtlBits.BRANCH_EN | CtlBits.CYC_EN | CtlBits.TRACE_EN))

    def test_disable_while_enabled_allowed(self, msr):
        msr.configure(CtlBits.BRANCH_EN)
        msr.enable()
        msr.disable()
        assert not msr.trace_enabled
        assert msr.ctl & CtlBits.BRANCH_EN  # other bits preserved

    def test_disable_modify_enable_sequence(self, msr):
        msr.configure(CtlBits.BRANCH_EN)
        msr.enable()
        msr.disable()
        msr.write(RTIT_CR3_MATCH, 0xABC000)  # legal now
        msr.enable()
        assert msr.trace_enabled
        assert msr.cr3_match == 0xABC000


class TestTypedHelpers:
    def test_configure_rejects_trace_en(self, msr):
        with pytest.raises(ValueError):
            msr.configure(CtlBits.TRACE_EN | CtlBits.BRANCH_EN)

    def test_configure_sets_all(self, msr):
        msr.configure(
            TRACE_FLAGS, cr3_match=0x5000, output_base=0x9000
        )
        assert msr.cr3_match == 0x5000
        assert msr.output_base == 0x9000
        assert msr.ctl == TRACE_FLAGS

    def test_configure_wrmsr_count(self, msr, ledger):
        msr.configure(CtlBits.BRANCH_EN, cr3_match=1, output_base=2)
        assert ledger.count("wrmsr") == 3  # cr3 + base + ctl

    def test_enable_costs_one_wrmsr(self, msr, ledger):
        msr.configure(CtlBits.BRANCH_EN)
        before = ledger.count("wrmsr")
        msr.enable()
        assert ledger.count("wrmsr") == before + 1

    def test_redundant_disable_free(self, msr, ledger):
        before = ledger.count("wrmsr")
        msr.disable()  # already disabled: driver checks first
        assert ledger.count("wrmsr") == before

    def test_exist_default_flags(self):
        flags = TRACE_FLAGS
        # the §4 configuration: COFI + cycle-accurate + CR3 filter + ToPA
        for bit in (CtlBits.BRANCH_EN, CtlBits.CYC_EN, CtlBits.CR3_FILTER, CtlBits.TOPA):
            assert flags & bit
        assert not flags & CtlBits.TRACE_EN
