"""Accuracy-measurement harnesses (the §5.3 pipelines, reusable).

Two standardized pipelines against the exhaustive NHT reference:

* :func:`direct_accuracy_vs_nht` — benchmarks: identical executions, the
  captured-path fraction (exact, per-thread, interval-based);
* :func:`weight_accuracy_vs_nht` — long-running services: Wall-style
  weight matching of function histograms over a bounded window.

Both run the reference and the tested scheme on fresh, identically-seeded
systems, so they are safe to call from anywhere (benchmarks, tests, user
scripts) without shared state.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.analysis.accuracy import (
    direct_path_accuracy,
    function_histogram_from_segments,
    weight_matching_accuracy,
)
from repro.analysis.reconstruct import coverage_by_thread, thread_labels
from repro.core.exist import ExistScheme
from repro.experiments.scenarios import make_scheme, run_traced_execution
from repro.kernel.system import KernelSystem, SystemConfig
from repro.program.workloads import ProvisioningMode, get_workload
from repro.tracing.base import TracingScheme
from repro.util.units import MSEC

#: node size and service warmup of the weight-matching pipeline
WEIGHT_NODE_CORES = 8
WEIGHT_WARMUP_MS = 40


def direct_accuracy_vs_nht(
    workload: str,
    scheme: Optional[TracingScheme | str] = None,
    cpuset: Optional[Sequence[int]] = (0, 1, 2, 3),
    seed: int = 31,
) -> float:
    """Captured-path fraction of ``scheme`` (default EXIST) vs NHT.

    Valid for workloads whose execution is identical run-to-run
    (compute jobs, and server loops under identical seeds).
    """
    reference = run_traced_execution(workload, "NHT", cpuset=cpuset, seed=seed)
    tested_scheme = scheme if scheme is not None else make_scheme("EXIST")
    tested = run_traced_execution(workload, tested_scheme, cpuset=cpuset, seed=seed)
    return direct_path_accuracy(
        coverage_by_thread(
            reference.artifacts.segments, thread_labels(reference.target)
        ),
        coverage_by_thread(
            tested.artifacts.segments, thread_labels(tested.target)
        ),
    )


def weight_accuracy_vs_nht(
    workload: str,
    period_ms: int = 500,
    scheme_factory: Optional[Callable[[], TracingScheme]] = None,
    seed: int = 31,
) -> float:
    """Weight-matching accuracy of a bounded tracing window vs NHT.

    The real-world-app pipeline of Figure 18: the service warms up, each
    scheme traces a ``period_ms`` window on its own identically-seeded
    system, and the function histograms are compared.
    """
    profile = get_workload(workload)
    cpuset = (
        [0, 1, 2, 3] if profile.provisioning is ProvisioningMode.CPU_SET else None
    )
    window_ms = period_ms + 60

    def capture(factory: Callable[[], TracingScheme]):
        system = KernelSystem(SystemConfig.small_node(WEIGHT_NODE_CORES, seed=seed))
        target = profile.spawn(system, cpuset=cpuset, seed=seed)
        system.run_for(WEIGHT_WARMUP_MS * MSEC)
        scheme = factory()
        scheme.install(system, [target])
        system.run_for(window_ms * MSEC)
        return function_histogram_from_segments(scheme.artifacts().segments)

    reference = capture(lambda: make_scheme("NHT"))
    tested = capture(
        scheme_factory
        if scheme_factory is not None
        else (lambda: ExistScheme(period_ns=period_ms * MSEC, continuous=False))
    )
    return weight_matching_accuracy(reference, tested)
