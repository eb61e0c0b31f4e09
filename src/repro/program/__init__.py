"""Synthetic program substrate.

The paper traces SPEC CPU 2017, memcached/nginx/mysql, and five Alibaba
production services.  None of those binaries (nor an x86 CPU to run them)
is available here, so this package provides the closest synthetic
equivalent: generated binaries with functions, basic blocks, and a control
flow graph (:mod:`repro.program.binary`, :mod:`repro.program.generator`);
a deterministic Markov path model over the CFG
(:mod:`repro.program.path`); an execution engine that converts CPU-time
budgets into retired work, branches, syscalls, and symbolic path chunks
(:mod:`repro.program.execution`); and the calibrated workload library
matching the paper's Table 1 (:mod:`repro.program.workloads`).
"""

from repro.program.binary import BasicBlock, Binary, Function, FunctionCategory, MemoryProfile
from repro.program.execution import ProgramExecution, ServerLoopExecution
from repro.program.generator import BinaryShape, generate_binary
from repro.program.path import PathModel
from repro.program.workloads import (
    WORKLOADS,
    WorkloadKind,
    WorkloadProfile,
    get_workload,
    realworld_workloads,
)

__all__ = [
    "BasicBlock",
    "Binary",
    "Function",
    "FunctionCategory",
    "MemoryProfile",
    "BinaryShape",
    "generate_binary",
    "PathModel",
    "ProgramExecution",
    "ServerLoopExecution",
    "WorkloadProfile",
    "WorkloadKind",
    "WORKLOADS",
    "get_workload",
    "realworld_workloads",
]
