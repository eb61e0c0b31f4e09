"""Trace analysis: reconstruction, accuracy metrics, and case studies.

The downstream half of the pipeline: captured segments are serialized and
decoded back through the software decoder
(:mod:`repro.analysis.reconstruct`), compared against the exhaustive NHT
reference with the paper's two accuracy metrics
(:mod:`repro.analysis.accuracy`), and summarized into the §5.4 case-study
reports (:mod:`repro.analysis.casestudy`).  :mod:`repro.analysis.tables`
renders the paper-style text tables the benchmarks print.
"""

from repro.analysis.accuracy import (
    direct_path_accuracy,
    function_histogram_from_segments,
    pairwise_trace_similarity,
    weight_matching_accuracy,
)
from repro.analysis.casestudy import (
    BlockingAnomaly,
    CategoryReport,
    WidthReport,
    find_blocking_anomalies,
    function_category_report,
    memory_width_report,
)
from repro.analysis.metrics import IpcSample, detect_ipc_anomalies, ipc_timeline
from repro.analysis.reconstruct import (
    ReconstructionResult,
    coverage_by_thread,
    reconstruct,
    thread_labels,
)
from repro.analysis.report import build_session_report
from repro.analysis.tables import format_table

__all__ = [
    "reconstruct",
    "ReconstructionResult",
    "thread_labels",
    "coverage_by_thread",
    "direct_path_accuracy",
    "weight_matching_accuracy",
    "function_histogram_from_segments",
    "pairwise_trace_similarity",
    "function_category_report",
    "memory_width_report",
    "find_blocking_anomalies",
    "CategoryReport",
    "WidthReport",
    "BlockingAnomaly",
    "format_table",
    "IpcSample",
    "detect_ipc_anomalies",
    "ipc_timeline",
    "build_session_report",
]
