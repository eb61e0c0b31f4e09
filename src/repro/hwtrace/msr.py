"""RTIT model-specific registers.

Models the Intel PT register interface (SDM Vol 3, ch. 33) at the level
the paper's argument needs: the ``IA32_RTIT_CTL`` bit layout, the output
base/mask pair, the CR3 match register — and crucially the hardware rule
that **configuration may only change while TraceEn is clear**.  Violating
it raises :class:`TraceEnabledError`, which is why every conventional
controller pays a disable/modify/enable WRMSR triplet per adjustment
(§2.3) and why frequent unsafe MSR writes are a cluster stability risk.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.hwtrace.cost import CostLedger

# MSR addresses (Intel SDM)
RTIT_OUTPUT_BASE = 0x560
RTIT_OUTPUT_MASK_PTRS = 0x561
RTIT_CTL = 0x570
RTIT_STATUS = 0x571
RTIT_CR3_MATCH = 0x572

_RTIT_ADDRESSES = {
    RTIT_OUTPUT_BASE,
    RTIT_OUTPUT_MASK_PTRS,
    RTIT_CTL,
    RTIT_STATUS,
    RTIT_CR3_MATCH,
}


class CtlBits(enum.IntFlag):
    """IA32_RTIT_CTL bit fields (subset used by EXIST, §4)."""

    TRACE_EN = 1 << 0
    CYC_EN = 1 << 1
    OS = 1 << 2
    USER = 1 << 3
    CR3_FILTER = 1 << 7
    TOPA = 1 << 8
    MTC_EN = 1 << 9
    TSC_EN = 1 << 10
    DIS_RETC = 1 << 11
    BRANCH_EN = 1 << 13

#: plain-int masks of the bits read on every slice; testing an int
#: against an ``IntFlag`` member would build a flag object per test
TRACE_EN_MASK = int(CtlBits.TRACE_EN)
CR3_FILTER_MASK = int(CtlBits.CR3_FILTER)


class TraceEnabledError(RuntimeError):
    """Raised when software modifies trace configuration with TraceEn set."""


class RtitMsrFile:
    """Per-core RTIT register file with hardware write rules.

    Every read/write is charged to the supplied :class:`CostLedger`, so
    operation counts fall out of simply *using* the registers the way a
    driver would.

    ``hot_switching`` models the §6.1 hardware enhancement the paper
    proposes: configuration changes allowed while TraceEn is set, which
    would spare conventional controllers the disable/modify/enable
    triplet.  Off by default (today's hardware).
    """

    def __init__(self, core_id: int, ledger: CostLedger, hot_switching: bool = False):
        self.core_id = core_id
        self._ledger = ledger
        self.hot_switching = hot_switching
        self._values: Dict[int, int] = {addr: 0 for addr in _RTIT_ADDRESSES}
        self.write_count = 0

    # -- raw access ----------------------------------------------------------

    def write(self, address: int, value: int) -> None:
        """WRMSR: write a register, enforcing the TraceEn rules."""
        if address not in _RTIT_ADDRESSES:
            raise ValueError(f"unknown RTIT MSR {address:#x}")
        value = int(value)
        if self._values[RTIT_CTL] & TRACE_EN_MASK and not self.hot_switching:
            if address != RTIT_CTL:
                raise TraceEnabledError(
                    f"write to MSR {address:#x} requires TraceEn=0"
                )
            # the only legal enabled-state change is clearing TraceEn
            # without touching other CTL bits
            if (value | TRACE_EN_MASK) != self._values[RTIT_CTL]:
                raise TraceEnabledError(
                    "CTL reconfiguration requires TraceEn=0 "
                    "(disable tracing first)"
                )
        self.write_count += 1
        self._ledger.charge_wrmsr()
        self._values[address] = value

    # -- typed helpers ---------------------------------------------------------

    @property
    def ctl(self) -> CtlBits:
        """The CTL register as flags (values are stored as plain ints)."""
        return CtlBits(self._values[RTIT_CTL])

    @property
    def ctl_value(self) -> int:
        """The raw CTL register value."""
        return self._values[RTIT_CTL]

    @property
    def trace_enabled(self) -> bool:
        return bool(self._values[RTIT_CTL] & TRACE_EN_MASK)

    @property
    def cr3_match(self) -> int:
        return self._values[RTIT_CR3_MATCH]

    @property
    def output_base(self) -> int:
        return self._values[RTIT_OUTPUT_BASE]

    def configure(
        self,
        flags: CtlBits,
        cr3_match: Optional[int] = None,
        output_base: Optional[int] = None,
    ) -> None:
        """Program configuration registers (requires tracing disabled).

        Each touched register is one WRMSR; ``flags`` must not include
        TRACE_EN — enabling is a separate, deliberate step.
        """
        if flags & CtlBits.TRACE_EN:
            raise ValueError("use enable() to set TraceEn")
        if cr3_match is not None:
            self.write(RTIT_CR3_MATCH, cr3_match)
        if output_base is not None:
            self.write(RTIT_OUTPUT_BASE, output_base)
        self.write(RTIT_CTL, int(flags))

    def enable(self) -> None:
        """Set TraceEn (one WRMSR); idempotent enables still pay the op."""
        self.write(RTIT_CTL, self._values[RTIT_CTL] | TRACE_EN_MASK)

    def disable(self) -> None:
        """Clear TraceEn (one WRMSR)."""
        current = self._values[RTIT_CTL]
        if not current & TRACE_EN_MASK:
            # still a WRMSR on real hardware if software writes anyway;
            # model drivers as checking first, so this is free
            return
        self.write(RTIT_CTL, current & ~TRACE_EN_MASK)
