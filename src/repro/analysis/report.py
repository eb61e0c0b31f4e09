"""Human-readable session reports.

The paper's pipeline ends with "human-readable application traces ...
returned to users for anomaly analysis" (§3.1).  This module renders one
tracing session's artifacts into a markdown report an on-call engineer
reads: capture summary, hottest functions, costly-function categories,
access-width mix, and IPC timeline.
"""

from __future__ import annotations

from repro.analysis.casestudy import function_category_report, memory_width_report
from repro.analysis.metrics import detect_ipc_anomalies, ipc_timeline
from repro.analysis.reconstruct import reconstruct
from repro.analysis.tables import format_table
from repro.kernel.task import Process
from repro.program.binary import ACCESS_WIDTHS
from repro.tracing.base import SchemeArtifacts
from repro.util.units import fmt_bytes, fmt_time

#: rows of the "Hottest functions" table
TOP_FUNCTIONS = 8


def build_session_report(artifacts: SchemeArtifacts, target: Process) -> str:
    """Render one session's artifacts as a markdown report."""
    binary = target.binary
    profile = getattr(target, "profile", None)
    sections = []

    sections.append(f"# Tracing report: {target.name}")

    # -- capture summary -----------------------------------------------------
    segments = artifacts.segments
    if segments:
        span = max(s.t_end for s in segments) - min(s.t_start for s in segments)
    else:
        span = 0
    truncated = sum(1 for s in segments if s.truncated)
    sections.append(
        "\n## Capture\n\n"
        f"- scheme: {artifacts.scheme}\n"
        f"- segments: {len(segments)} ({truncated} truncated by buffer stop)\n"
        f"- trace volume: {fmt_bytes(int(artifacts.space_bytes))}\n"
        f"- wall span: {fmt_time(span)}\n"
        f"- sched five-tuples: {len(artifacts.sched_records)}"
    )

    if not segments:
        sections.append("\n*(no trace data captured)*")
        return "\n".join(sections) + "\n"

    result = reconstruct(segments, [target])
    decoded = result.decoded

    # -- hottest functions ----------------------------------------------------
    histogram = result.function_histogram(binary)
    hot = sorted(histogram.items(), key=lambda kv: -kv[1])[:TOP_FUNCTIONS]
    sections.append("\n## Hottest functions\n")
    sections.append(format_table(
        [[name, count] for name, count in hot],
        headers=["function", "occurrences"],
    ))

    # -- costly-function categories (Fig 21 view) -------------------------------
    categories = function_category_report(target.name, decoded, binary)
    family_rows = [
        [family, f"{categories.family_share(family):.1%}"]
        for family in ("memory", "sync", "kernel", "app")
    ]
    sections.append("\n## Costly-function families\n")
    sections.append(format_table(family_rows, headers=["family", "share"]))

    # -- access widths (Fig 22 view) ----------------------------------------------
    widths = memory_width_report(target.name, decoded, binary)
    if widths.mixes:
        width_rows = [
            [access_class] + [
                f"{widths.share(access_class, w):.0%}" for w in ACCESS_WIDTHS
            ]
            for access_class in widths.mixes
        ]
        sections.append("\n## Memory access widths\n")
        sections.append(format_table(
            width_rows, headers=["class"] + [f"{w}B" for w in ACCESS_WIDTHS]
        ))

    # -- IPC timeline -----------------------------------------------------------
    if profile is not None:
        samples = ipc_timeline(segments, profile.branch_per_instr)
        if samples:
            mean_ipc = sum(s.ipc for s in samples) / len(samples)
            dips = detect_ipc_anomalies(samples)
            sections.append(
                f"\n## IPC\n\n- mean IPC: {mean_ipc:.2f} over "
                f"{len(samples)} buckets\n- anomalous buckets: {len(dips)}"
            )
            for dip in dips[:3]:
                sections.append(
                    f"  - {fmt_time(dip.t_start)}..{fmt_time(dip.t_end)}: "
                    f"IPC {dip.ipc:.2f}"
                )

    return "\n".join(sections) + "\n"
