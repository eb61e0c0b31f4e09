"""Case-study analyses (paper §5.4).

Turns reconstructed traces into the paper's three case-study products:

* :func:`function_category_report` — Figure 21: execution-weighted shares
  of costly functions within the memory / synchronization / kernel
  families;
* :func:`memory_width_report` — Figure 22: access-width mix (1/2/4/8
  bytes) for read-only / write-only / read-write accesses, exposing the
  ML applications' quad-width signature;
* :func:`find_blocking_anomalies` — the Recommend diagnosis: locating
  syscalls whose off-CPU time blocked the application, from the eBPF-
  style syscall log combined with EXIST's five-tuple scheduling records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.hwtrace.decoder import DecodedTrace
from repro.program.binary import ACCESS_WIDTHS, Binary, FunctionCategory


def _function_instruction_mass(decoded: DecodedTrace, binary: Binary) -> np.ndarray:
    """Executed-instruction mass per function id, one weighted bincount."""
    if len(decoded) == 0:
        return np.zeros(binary.n_functions, dtype=np.float64)
    return np.bincount(
        decoded.function_ids,
        weights=binary.block_instructions[decoded.block_ids].astype(np.float64),
        minlength=binary.n_functions,
    )


@dataclass
class CategoryReport:
    """Execution-weighted function-category shares for one application."""

    app: str
    #: family ('memory'|'sync'|'kernel'|'app') -> share of all instructions
    family_shares: Dict[str, float] = field(default_factory=dict)
    #: family -> {category -> share within the family}
    within_family: Dict[str, Dict[FunctionCategory, float]] = field(
        default_factory=dict
    )

    def family_share(self, family: str) -> float:
        """Share of all instructions spent in ``family`` functions."""
        return self.family_shares.get(family, 0.0)

    def category_share(self, category: FunctionCategory) -> float:
        """Share of the category within its family (a Figure 21 bar)."""
        return self.within_family.get(category.family, {}).get(category, 0.0)


def function_category_report(
    app: str, decoded: DecodedTrace, binary: Binary
) -> CategoryReport:
    """Aggregate a decoded trace into Figure 21's category shares."""
    function_mass = _function_instruction_mass(decoded, binary)
    weights: Dict[FunctionCategory, float] = defaultdict(float)
    for function_id in np.flatnonzero(function_mass):
        category = binary.functions[int(function_id)].category
        weights[category] += float(function_mass[function_id])
    total = sum(weights.values())
    report = CategoryReport(app=app)
    if total <= 0:
        return report
    family_totals: Dict[str, float] = defaultdict(float)
    for category, weight in weights.items():
        family_totals[category.family] += weight
    report.family_shares = {
        family: weight / total for family, weight in family_totals.items()
    }
    for category, weight in weights.items():
        family = category.family
        family_weight = family_totals[family]
        if family_weight > 0:
            report.within_family.setdefault(family, {})[category] = (
                weight / family_weight
            )
    return report


@dataclass
class WidthReport:
    """Access-width mix per access class (Figure 22)."""

    app: str
    #: class ('read_only'|'write_only'|'read_write') -> {width -> share}
    mixes: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def share(self, access_class: str, width: int) -> float:
        """Share of ``access_class`` accesses that are ``width`` bytes."""
        return self.mixes.get(access_class, {}).get(width, 0.0)


def memory_width_report(
    app: str, decoded: DecodedTrace, binary: Binary
) -> WidthReport:
    """Weight each function's access-width mix by its executed instructions."""
    function_mass = _function_instruction_mass(decoded, binary)
    accesses: Dict[str, Dict[int, float]] = {
        "read_only": defaultdict(float),
        "write_only": defaultdict(float),
        "read_write": defaultdict(float),
    }
    # per-record work collapses to one pass over the (few) functions with
    # nonzero executed-instruction mass
    for function_id in np.flatnonzero(function_mass):
        function = binary.functions[int(function_id)]
        volume = float(function_mass[function_id]) * (
            function.memory.accesses_per_instruction
        )
        for class_name, mix in (
            ("read_only", function.memory.read_only),
            ("write_only", function.memory.write_only),
            ("read_write", function.memory.read_write),
        ):
            for width, share in mix.items():
                accesses[class_name][width] += volume * share
    report = WidthReport(app=app)
    for class_name, width_mass in accesses.items():
        total = sum(width_mass.values())
        if total > 0:
            report.mixes[class_name] = {
                width: width_mass.get(width, 0.0) / total
                for width in ACCESS_WIDTHS
            }
    return report


@dataclass(frozen=True)
class BlockingAnomaly:
    """A syscall whose off-CPU block stalled the application."""

    timestamp: int
    pid: int
    tid: int
    syscall: str
    blocked_ns: int


def find_blocking_anomalies(
    syscall_log: Sequence[Tuple[int, int, int, str]],
    sched_records: Sequence[Tuple[int, int, int, int, str]],
    min_block_ns: int,
) -> List[BlockingAnomaly]:
    """Correlate syscalls with scheduling gaps to find blocking culprits.

    ``syscall_log`` holds (timestamp, pid, tid, name); ``sched_records``
    holds EXIST's five-tuples [timestamp, cpu, pid, tid, operation].  A
    syscall is anomalous when the issuing thread does not get scheduled
    in again for at least ``min_block_ns`` — the Recommend case study's
    synchronous ``file_write`` stuck behind disk I/O shows up exactly
    this way.
    """
    sched_in: Dict[int, List[int]] = defaultdict(list)
    for timestamp, _cpu, _pid, tid, operation in sched_records:
        if operation == "sched_in":
            sched_in[tid].append(timestamp)
    for times in sched_in.values():
        times.sort()

    anomalies: List[BlockingAnomaly] = []
    import bisect

    for timestamp, pid, tid, name in syscall_log:
        times = sched_in.get(tid)
        if not times:
            continue
        index = bisect.bisect_right(times, timestamp)
        if index >= len(times):
            continue  # never came back inside the observation window
        gap = times[index] - timestamp
        if gap >= min_block_ns:
            anomalies.append(
                BlockingAnomaly(
                    timestamp=timestamp,
                    pid=pid,
                    tid=tid,
                    syscall=name,
                    blocked_ns=gap,
                )
            )
    anomalies.sort(key=lambda a: a.blocked_ns, reverse=True)
    return anomalies
