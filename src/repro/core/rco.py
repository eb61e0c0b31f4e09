"""RCO — Repetition-aware Coverage Optimizer (paper §3.4).

Cluster-level orchestration of intra-service tracing:

* :class:`TemporalDecider` — picks each application's tracing period from
  a weighted complexity score (manager-defined priority, binary size,
  past stability issues);
* :class:`SpatialSampler` — picks which repetitions (replicas) to trace:
  all of them for anomalies, a density/priority-weighted sample for
  profiling, never below the deployment threshold;
* :func:`augment_traces` — merges traces from multiple workers: removes
  redundancy (overlapping coverage) and complements missing ranges,
  yielding the coverage gains of Figure 20.

Coverage is expressed in symbolic path-event index ranges over the
application's canonical :class:`~repro.program.path.PathModel` — what a
repetition captured of the program's behaviour cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExistConfig, TraceReason, TracingRequest
from repro.program.workloads import WorkloadProfile
from repro.util.rng import derive_seed

Interval = Tuple[int, int]


# ---------------------------------------------------------------------------
# interval algebra (coverage bookkeeping)
# ---------------------------------------------------------------------------

_EMPTY_IVALS = np.empty((0, 2), dtype=np.int64)


def _interval_array(intervals: Iterable[Interval]) -> np.ndarray:
    """Half-open intervals as an ``(n, 2)`` int64 array, empties dropped."""
    if isinstance(intervals, np.ndarray):
        arr = intervals.astype(np.int64, copy=False).reshape(-1, 2)
    else:
        items = list(intervals)
        if not items:
            return _EMPTY_IVALS
        arr = np.asarray(items, dtype=np.int64).reshape(-1, 2)
    return arr[arr[:, 1] > arr[:, 0]]


def _merge_array(arr: np.ndarray) -> np.ndarray:
    """Union of an ``(n, 2)`` interval array, sorted and coalesced.

    Sort by start, running-max the ends, and break runs where a start
    exceeds the furthest end seen so far — no per-interval Python loop.
    """
    if arr.shape[0] <= 1:
        return arr
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    starts = arr[order, 0]
    ends = np.maximum.accumulate(arr[order, 1])
    breaks = np.flatnonzero(starts[1:] > ends[:-1]) + 1
    group_starts = np.concatenate(([0], breaks))
    group_ends = np.concatenate((breaks - 1, [starts.size - 1]))
    return np.column_stack((starts[group_starts], ends[group_ends]))


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of half-open intervals, sorted and coalesced."""
    merged = _merge_array(_interval_array(intervals))
    return [(int(a), int(b)) for a, b in merged.tolist()]


def interval_length(intervals: Iterable[Interval]) -> int:
    """Total covered length of an interval union."""
    merged = _merge_array(_interval_array(intervals))
    return int((merged[:, 1] - merged[:, 0]).sum()) if merged.size else 0


def interval_intersection(
    left: Sequence[Interval], right: Sequence[Interval]
) -> List[Interval]:
    """Intersection of two interval unions."""
    out: List[Interval] = []
    li = ri = 0
    lm, rm = merge_intervals(left), merge_intervals(right)
    while li < len(lm) and ri < len(rm):
        a = max(lm[li][0], rm[ri][0])
        b = min(lm[li][1], rm[ri][1])
        if a < b:
            out.append((a, b))
        if lm[li][1] < rm[ri][1]:
            li += 1
        else:
            ri += 1
    return out


# ---------------------------------------------------------------------------
# temporal decider
# ---------------------------------------------------------------------------

class TemporalDecider:
    """Chooses tracing periods from application complexity (§3.4)."""

    def __init__(self, config: ExistConfig):
        self.config = config

    def period_for(self, profile: WorkloadProfile) -> int:
        """Tracing period: complex programs need longer coverage windows."""
        score = profile.complexity_score()
        span = self.config.period_max_ns - self.config.period_min_ns
        period = self.config.period_min_ns + int(score * span)
        return self.config.clamp_period(period)


# ---------------------------------------------------------------------------
# spatial sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Repetition:
    """One deployed replica of an application (node + pod identity)."""

    app: str
    node: str
    pod_uid: str
    priority: int = 5


class SpatialSampler:
    """Chooses which repetitions to trace (§3.4)."""

    def __init__(
        self,
        base_fraction: float = 0.3,
        deployment_threshold: int = 1,
        seed: int = 0,
    ):
        if not 0.0 < base_fraction <= 1.0:
            raise ValueError("base fraction must be in (0, 1]")
        self.base_fraction = base_fraction
        self.deployment_threshold = deployment_threshold
        self._rng = np.random.default_rng(derive_seed(seed, "spatial-sampler"))

    def select(
        self, repetitions: Sequence[Repetition], reason: TraceReason
    ) -> List[Repetition]:
        """Pick the repetitions to trace for one request."""
        reps = list(repetitions)
        if not reps:
            return []
        if reason is TraceReason.ANOMALY:
            # abnormal behaviours are distinct: trace everything involved
            return reps
        # profiling: higher priority and broader deployment -> more traced
        priority = reps[0].priority
        fraction = min(1.0, self.base_fraction * (0.5 + priority / 10.0))
        count = max(
            min(len(reps), self.deployment_threshold),
            int(round(fraction * len(reps))),
        )
        picked = self._rng.choice(len(reps), size=count, replace=False)
        return [reps[int(i)] for i in sorted(picked)]

    def resample(
        self,
        repetitions: Sequence[Repetition],
        count: int,
        exclude: Iterable[str] = (),
    ) -> List[Repetition]:
        """Pick replacement replicas after traced replicas died (§3.4).

        ``exclude`` holds pod uids already tried (dead or traced, or on a
        node already traced); replacements come only from untouched repetitions.  The
        selection is deterministic for a given sampler state, so retry
        waves replay identically across runs with the same seed.
        """
        excluded = set(exclude)
        pool = [r for r in repetitions if r.pod_uid not in excluded]
        if count <= 0 or not pool:
            return []
        count = min(count, len(pool))
        picked = self._rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in sorted(picked)]


# ---------------------------------------------------------------------------
# trace augmentation
# ---------------------------------------------------------------------------

@dataclass
class AugmentedCoverage:
    """Result of merging repetition traces."""

    merged: List[Interval]
    per_worker_events: List[int]
    union_events: int
    #: events present in >1 worker (redundancy removed by the merge)
    redundant_events: int
    workers: int
    #: per worker, events only that worker captured (its unique contribution)
    per_worker_unique: List[int] = field(default_factory=list)

    def coverage_of_cycle(self, cycle_length: int) -> float:
        """Fraction of the canonical behaviour cycle covered (0..1).

        Workers capture absolute event indices; behaviour repeats every
        ``cycle_length`` events, so coverage is measured modulo the cycle.
        Computed analytically on interval endpoints — cost is independent
        of ``cycle_length``.
        """
        if cycle_length <= 0:
            raise ValueError("cycle length must be positive")
        arr = _interval_array(self.merged)
        if not arr.size:
            return 0.0
        starts, ends = arr[:, 0], arr[:, 1]
        if int((ends - starts).max()) >= cycle_length:
            return 1.0
        lo = starts % cycle_length
        hi = ends % cycle_length
        # spans shorter than the cycle fold into one piece (lo < hi) or,
        # when they straddle the cycle boundary, two: [lo, c) and [0, hi)
        wrap = hi < lo
        pieces = [np.column_stack((lo[~wrap], hi[~wrap]))]
        if wrap.any():
            pieces.append(
                np.column_stack((lo[wrap], np.full(wrap.sum(), cycle_length)))
            )
            pieces.append(np.column_stack((np.zeros(wrap.sum(), np.int64), hi[wrap])))
        folded = _merge_array(_interval_array(np.concatenate(pieces)))
        covered = int((folded[:, 1] - folded[:, 0]).sum()) if folded.size else 0
        return covered / cycle_length


def _unique_contributions(worker_arrays: Sequence[np.ndarray]) -> List[int]:
    """Events each worker alone captured, via a boundary sweep.

    Between consecutive endpoint values coverage depth is constant, so it
    suffices to count depth per elementary segment (starts-minus-ends at
    the segment's left edge) and attribute depth-1 segments to whichever
    worker's merged intervals contain them.
    """
    non_empty = [arr for arr in worker_arrays if arr.size]
    if not non_empty:
        return [0] * len(worker_arrays)
    stacked = np.concatenate(non_empty)
    points = np.unique(stacked)
    if points.size < 2:
        return [0] * len(worker_arrays)
    seg_lo, seg_hi = points[:-1], points[1:]
    sorted_starts = np.sort(stacked[:, 0])
    sorted_ends = np.sort(stacked[:, 1])
    depth = np.searchsorted(sorted_starts, seg_lo, "right") - np.searchsorted(
        sorted_ends, seg_lo, "right"
    )
    solo = depth == 1
    unique: List[int] = []
    for arr in worker_arrays:
        if not arr.size or not solo.any():
            unique.append(0)
            continue
        idx = np.searchsorted(arr[:, 0], seg_lo, "right") - 1
        inside = (idx >= 0) & (seg_lo < arr[np.maximum(idx, 0), 1])
        unique.append(int((seg_hi - seg_lo)[solo & inside].sum()))
    return unique


def augment_traces(
    worker_coverages: Sequence[Sequence[Interval]],
) -> AugmentedCoverage:
    """Merge per-worker coverage: de-duplicate overlaps, fill gaps (§3.4)."""
    worker_arrays = [
        _merge_array(_interval_array(coverage)) for coverage in worker_coverages
    ]
    per_worker = [
        int((arr[:, 1] - arr[:, 0]).sum()) if arr.size else 0
        for arr in worker_arrays
    ]
    if worker_arrays:
        merged_arr = _merge_array(np.concatenate(worker_arrays))
    else:
        merged_arr = _EMPTY_IVALS
    union = int((merged_arr[:, 1] - merged_arr[:, 0]).sum()) if merged_arr.size else 0
    redundant = sum(per_worker) - union
    return AugmentedCoverage(
        merged=[(int(a), int(b)) for a, b in merged_arr.tolist()],
        per_worker_events=per_worker,
        union_events=union,
        redundant_events=max(0, redundant),
        workers=len(per_worker),
        per_worker_unique=_unique_contributions(worker_arrays),
    )


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageMetric:
    """Spatial-coverage outcome of one orchestrated request.

    ``requested`` is how many repetitions RCO wanted traced; ``achieved``
    how many delivered a full tracing window.  Under faults the two
    diverge — the honest-accounting signal graceful degradation reports
    instead of raising.
    """

    requested: int
    achieved: int

    @property
    def fraction(self) -> float:
        if self.requested <= 0:
            return 1.0
        return self.achieved / self.requested

    @property
    def degraded(self) -> bool:
        return self.achieved < self.requested


@dataclass
class OrchestrationPlan:
    """RCO's decision for one tracing request."""

    request: TracingRequest
    selected: List[Repetition]
    period_ns: int
    #: estimated cluster cost in traced core-seconds
    estimated_cost: float


class RepetitionAwareCoverageOptimizer:
    """Cluster-level orchestration facade."""

    def __init__(self, config: Optional[ExistConfig] = None, seed: int = 0):
        self.config = config or ExistConfig()
        self.temporal = TemporalDecider(self.config)
        self.spatial = SpatialSampler(seed=seed)

    def orchestrate(
        self,
        request: TracingRequest,
        profile: WorkloadProfile,
        repetitions: Sequence[Repetition],
    ) -> OrchestrationPlan:
        """Decide which repetitions to trace and for how long."""
        period = request.resolved_period(
            self.config, self.temporal.period_for(profile)
        )
        selected = self.spatial.select(repetitions, request.reason)
        cores_per_rep = max(1, profile.n_threads)
        cost = len(selected) * cores_per_rep * period / 1e9
        return OrchestrationPlan(
            request=request,
            selected=selected,
            period_ns=period,
            estimated_cost=cost,
        )
