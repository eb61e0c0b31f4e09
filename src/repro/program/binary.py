"""Binary images: functions, basic blocks, and symbol information.

A :class:`Binary` is the static artifact both sides of the tracing
pipeline share: the execution engine walks its control-flow graph, the
hardware tracer encodes block transitions as TIP/TNT packets against its
addresses, and the software decoder maps decoded addresses back to blocks
and functions (exactly the role the program binary plays for libipt).

Functions carry a :class:`FunctionCategory` and a :class:`MemoryProfile`
so the Section 5.4 case-study analyses (memory/synchronization/kernel
function ratios, access-width mix) can be *measured back* from decoded
traces instead of being asserted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: load address of every generated image (functions are laid out from it)
BASE_ADDRESS = 0x400000


class FunctionCategory(enum.Enum):
    """Costly-function taxonomy of the paper's Figure 21.

    Three families (memory, synchronization, kernel) matching the
    categorization of Accelerometer/WSC profiling studies, plus APP for
    business logic that belongs to none of them.
    """

    MEM_JE = "MEM_JE"
    MEM_TC = "MEM_TC"
    MEM_ALLOC = "MEM_ALLOC"
    MEM_FREE = "MEM_FREE"
    MEM_COPY = "MEM_COPY"
    MEM_SET = "MEM_SET"
    MEM_CMP = "MEM_CMP"
    MEM_MOVE = "MEM_MOVE"
    SYNC_ATOMIC = "SYNC_ATOMIC"
    SYNC_SPINLOCK = "SYNC_SPINLOCK"
    SYNC_MUTEX = "SYNC_MUTEX"
    SYNC_CAS = "SYNC_CAS"
    KERNEL_SCHE = "KERNEL_SCHE"
    KERNEL_IRQ = "KERNEL_IRQ"
    KERNEL_NET = "KERNEL_NET"
    APP = "APP"

    @property
    def family(self) -> str:
        """'memory', 'sync', 'kernel', or 'app'."""
        prefix = self.value.split("_", 1)[0]
        return {"MEM": "memory", "SYNC": "sync", "KERNEL": "kernel"}.get(
            prefix, "app"
        )


#: access widths in bytes the Figure 22 analysis distinguishes
ACCESS_WIDTHS = (1, 2, 4, 8)


@dataclass(frozen=True)
class MemoryProfile:
    """Memory-access behaviour of one function.

    ``read_only`` / ``write_only`` / ``read_write`` each map access width
    (bytes) to its share of that access class; shares sum to 1 per class.
    ``accesses_per_instruction`` scales how many accesses the function
    issues.
    """

    read_only: Dict[int, float] = field(default_factory=dict)
    write_only: Dict[int, float] = field(default_factory=dict)
    read_write: Dict[int, float] = field(default_factory=dict)
    accesses_per_instruction: float = 0.35

    def validate(self) -> None:
        """Check each width mix sums to 1 over supported widths."""
        for label, mix in (
            ("read_only", self.read_only),
            ("write_only", self.write_only),
            ("read_write", self.read_write),
        ):
            if not mix:
                continue
            if abs(sum(mix.values()) - 1.0) > 1e-6:
                raise ValueError(f"{label} width mix must sum to 1, got {mix}")
            for width in mix:
                if width not in ACCESS_WIDTHS:
                    raise ValueError(f"unsupported access width {width}")


@dataclass
class BasicBlock:
    """A straight-line code region ending in exactly one branch.

    ``terminator`` is one of:

    * ``cond`` — conditional branch (TNT packet);
    * ``indirect`` — indirect jump (TIP packet);
    * ``call`` — direct call: control moves to a callee entry in
      ``successors`` and returns later to ``return_site`` (direct calls
      emit no IPT packet themselves);
    * ``ret`` — function return: the walk pops the call stack (with full
      RET compression this costs a TNT bit, not a TIP).

    ``successors`` lists reachable block ids with walk probabilities;
    ``ret`` blocks have none (the stack decides).
    """

    block_id: int
    function_id: int
    address: int
    size_bytes: int
    n_instructions: int
    terminator: str
    successors: Tuple[Tuple[int, float], ...] = ()
    #: for ``call`` blocks: where execution resumes after the callee returns
    return_site: Optional[int] = None

    @property
    def end_address(self) -> int:
        return self.address + self.size_bytes


@dataclass
class Function:
    """A named function covering a contiguous range of blocks.

    ``weight`` is the function's share of execution time (set by the
    generator from the category weights); the path model's walk visits
    functions proportionally to it.
    """

    function_id: int
    name: str
    category: FunctionCategory
    entry_block: int
    block_ids: Tuple[int, ...]
    memory: MemoryProfile
    weight: float = 1.0

    @property
    def n_blocks(self) -> int:
        return len(self.block_ids)


class Binary:
    """A synthetic program image with symbol and CFG lookup tables."""

    def __init__(
        self,
        name: str,
        functions: Sequence[Function],
        blocks: Sequence[BasicBlock],
    ):
        self.name = name
        self.functions: List[Function] = list(functions)
        self.blocks: List[BasicBlock] = list(blocks)
        self.base_address = BASE_ADDRESS
        if len({block.address for block in self.blocks}) != len(self.blocks):
            raise ValueError("duplicate block addresses in binary")
        for block in self.blocks:
            if block.block_id != self.blocks[block.block_id].block_id:
                raise ValueError("block ids must be dense and ordered")
        self.size_bytes = (
            max((b.end_address for b in self.blocks), default=BASE_ADDRESS)
            - BASE_ADDRESS
        )
        self._block_addresses: Optional[np.ndarray] = None
        self._block_function_ids: Optional[np.ndarray] = None
        self._block_instructions: Optional[np.ndarray] = None

    # -- columnar lookup tables (cached; the codec hot path) ----------------

    @property
    def block_addresses(self) -> np.ndarray:
        """Block start address per block id (int64, index == block_id)."""
        if self._block_addresses is None:
            self._block_addresses = np.fromiter(
                (b.address for b in self.blocks), np.int64, len(self.blocks)
            )
        return self._block_addresses

    @property
    def block_function_ids(self) -> np.ndarray:
        """Owning function id per block id (int64)."""
        if self._block_function_ids is None:
            self._block_function_ids = np.fromiter(
                (b.function_id for b in self.blocks), np.int64, len(self.blocks)
            )
        return self._block_function_ids

    @property
    def block_instructions(self) -> np.ndarray:
        """Instruction count per block id (int64)."""
        if self._block_instructions is None:
            self._block_instructions = np.fromiter(
                (b.n_instructions for b in self.blocks), np.int64, len(self.blocks)
            )
        return self._block_instructions

    # -- lookups -----------------------------------------------------------

    def block(self, block_id: int) -> BasicBlock:
        """The basic block with id ``block_id``."""
        return self.blocks[block_id]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Binary({self.name}, funcs={self.n_functions}, "
            f"blocks={self.n_blocks}, {self.size_bytes} bytes)"
        )
