"""The four end-to-end workloads of the benchmark.

Each workload is a closed loop driven by one harness process: ``setup``
builds everything an iteration needs (it can be repeated, which is how
``setup_s`` is measured), and ``iteration`` runs one unit of user-visible
work and returns an :class:`Outcome`.  Inputs derive from the seed only.

``setup(section)`` and ``iteration(section)`` run every call into the
program as ``section(fn, *args)``; the harness passes a timer there, and
the cache resets, digests and checks done between sections stay out of
the timing.
Program functions are called through their modules (``matrix.run_cell``,
``services_workloads.run_campaign``) rather than through names bound at
import time, so the span wrappers of :mod:`spans` see every call.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.crd import TraceTaskSpec
from repro.cluster.master import ClusterMaster, SlotOutcome
from repro.core.config import TraceReason
from repro.experiments.scenarios import SCHEME_ORDER
from repro.faults.plan import FaultPlan
from repro.hwtrace.cache import DecodeCache, process_decode_cache
from repro.hwtrace.decoder import SoftwareDecoder, split_canonical_stream
from repro.parallel import matrix
from repro.parallel.pool import RunPool
from repro.parallel.workers import process_pool, shutdown_process_pool
from repro.program import generator, path
from repro.program.workloads import get_workload
from repro.services import workloads as services_workloads
from repro.streaming import StreamingIngestor
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC

#: the traced service of the cluster workloads, and its tracing period
APP = "Search1"
PERIOD_NS = 100 * MSEC
#: the chaos preset runs at one fixed fault seed; the workload seed
#: varies the cluster instead
FAULT_SEED = 0
#: trace_ingest replicas submitted per timed section
REPLICAS_PER_SECTION = 8


@dataclass
class Outcome:
    """What one iteration produced."""

    #: one digest per operation; ``None`` marks an operation that failed
    ops: List[Optional[str]]
    #: work done, in the unit of the workload's rate metric
    work: float
    #: simulated per-layer values (fixed by the inputs, never by speed)
    sim: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def call(fn, *args, **kwargs):
    """The untimed ``section``."""
    return fn(*args, **kwargs)


def digest(value) -> str:
    """Short content digest of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def reset_program_caches() -> None:
    """Empty the process's memoized binaries, path models and decode cache.

    A repeated set-up must regenerate what the first one built, or every
    repetition after the first would time cache hits.
    """
    generator._BINARY_CACHE.clear()
    path._PATH_CACHE.clear()
    process_decode_cache().clear()


class NodeOverhead:
    """Fig 13/14 scheme matrix on one simulated node, in-process."""

    name = "node_overhead"
    warmups = 0
    jobs = 1
    rate = ("sim_events_per_s", "1/s")

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        apps = ("mc", "de") if quick else ("mc", "xz", "de")
        window_s = 0.01 if quick else 0.03
        self.cells = matrix.grid(
            apps, SCHEME_ORDER, seeds=(seed,), window_s=window_s, warmup_s=0.02
        )

    def setup(self, section=call) -> None:
        reset_program_caches()
        for warm in matrix.warmup_for(self.cells):
            section(warm)

    def iteration(self, section=call) -> Outcome:
        outcome = Outcome(ops=[], work=0)
        results = {}
        for cell in self.cells:
            try:
                result = section(matrix.run_cell, cell)
            except Exception as exc:  # one failed cell is one failed op
                outcome.ops.append(None)
                outcome.errors.append(f"{cell.workload}/{cell.scheme}: {exc!r}")
                continue
            results[(cell.workload, cell.scheme)] = result
            outcome.ops.append(digest(result.to_dict()))
            outcome.work += result.events_fired
        apps = sorted({cell.workload for cell in self.cells})
        if len(results) == len(self.cells):
            exist = [results[(app, "EXIST")] for app in apps]
            outcome.sim = {
                "core.wrmsr_ops": sum(r.wrmsr_ops for r in exist),
                "core.exist_trace_mb": sum(r.space_bytes for r in exist) / 1e6,
                "core.exist_slowdown_pct": _mean_slowdown(results, apps, "EXIST"),
                "tracing.nht_slowdown_pct": _mean_slowdown(results, apps, "NHT"),
            }
        return outcome


def _mean_slowdown(results, apps, scheme: str) -> float:
    """Mean simulated slowdown of ``scheme`` against Oracle, in percent."""
    slowdowns = []
    for app in apps:
        base, run = results[(app, "Oracle")], results[(app, scheme)]
        if run.completion_ns is not None:
            slowdowns.append(run.completion_ns / base.completion_ns - 1)
        else:
            slowdowns.append(1 - run.throughput_rps / base.throughput_rps)
    return 100 * statistics.fmean(slowdowns)


class FleetChaos:
    """Anomaly TraceTasks reconciled under the ``chaos`` preset.

    Every iteration builds a fresh master over lazy nodes (identity
    counters rewound first) and reconciles one task with streaming
    ingest over the persistent worker pool.  A master kept across
    iterations would not do: a node traced through a worker is no longer
    rebuildable, so its next reconcile runs in-process, and each
    iteration's output would depend on the ones before it.
    """

    name = "fleet_chaos"
    warmups = 1
    rate = ("reconciles_per_s", "1/s")

    def __init__(self, seed: int, quick: bool = False, jobs: int = 2):
        self.seed = seed
        self.jobs = jobs
        self.nodes = 4 if quick else 8
        self.plan = FaultPlan.parse("chaos", seed=FAULT_SEED)
        self.pool: Optional[RunPool] = None

    def setup(self, section=call) -> None:
        shutdown_process_pool()
        reset_program_caches()
        # warm the binary and path model before the workers fork, as a
        # long-running master would have them
        section(get_workload(APP).path_model)
        self.pool = section(RunPool, max_workers=self.jobs) if self.jobs > 1 else None

    def _reconcile(self):
        reset_identity_counters()
        master = ClusterMaster(seed=self.seed)
        master.add_nodes(self.nodes, base_seed=self.seed)
        master.deploy(APP, replicas=self.nodes)
        task = master.submit(TraceTaskSpec(
            app=APP, reason=TraceReason.ANOMALY, period_ns=PERIOD_NS
        ))
        master.reconcile(task, pool=self.pool, faults=self.plan, streaming=True)
        return master, task

    def iteration(self, section=call) -> Outcome:
        master, task = section(self._reconcile)
        canonical, errors = reconcile_canonical(master, task)
        report = task.status.degradation
        stream = task.status.stream
        sim = {
            "cluster.retry_waves": report.retry_waves,
            "cluster.coverage_requested": report.coverage_requested,
            "cluster.coverage_achieved": report.coverage_achieved,
            "faults.nodes_crashed": report.nodes_crashed,
            "faults.sessions_abandoned": report.sessions_abandoned,
            "faults.bytes_dropped": report.bytes_dropped,
        }
        sim.update(_stream_sim(stream))
        return Outcome(
            ops=[None if errors else digest(canonical)],
            work=1,
            sim=sim,
            errors=errors,
        )


def reconcile_canonical(master: ClusterMaster, task) -> Tuple[dict, List[str]]:
    """Task-name-free reconcile output, plus accounting violations.

    Decoded record and function counts are left out of the digest: the
    resilient decode of a corrupt upload resolves a PIP packet whose CR3
    byte was flipped onto a sibling pod's CR3 whenever the decoder has
    that sibling's binary registered, and which siblings a pooled
    decoder has seen depends on task placement and on earlier tasks in
    the same worker.  Those counts are checked for consistency instead.
    """
    status = task.status
    report = status.degradation.to_dict()
    report.pop("records_recovered")
    report["events"] = [
        event for event in report["events"] if not event.startswith("recovered ")
    ]
    rows = master.sessions_for(task)
    canonical = {
        "phase": status.phase.value,
        "period_ns": status.period_ns,
        "selected_pods": status.selected_pods,
        "sessions_completed": status.sessions_completed,
        "coverage": [status.coverage_requested, status.coverage_achieved],
        "bytes_captured": status.bytes_captured,
        "report": report,
        "stream": status.stream,
        "rows": [
            {key: row[key] for key in sorted(row)
             if key not in ("task", "records", "functions")}
            for row in rows
        ],
    }
    errors = []
    stream = status.stream
    if status.phase.value not in ("Complete", "Degraded"):
        errors.append(f"phase {status.phase.value}: {status.message}")
    if len(rows) != status.sessions_completed or stream["uploads"] != len(rows):
        errors.append(
            f"{len(rows)} rows, {stream['uploads']} uploads,"
            f" {status.sessions_completed} sessions"
        )
    if stream["dead_letters_replayed"] != stream["dead_letters"]:
        errors.append("dead letters left unreplayed")
    if any(row["records"] <= 0 for row in rows):
        errors.append("a traced session decoded to no records")
    recovered = sum(row["records"] for row in rows if row["degraded"])
    if recovered != status.degradation.records_recovered:
        errors.append(
            f"rows hold {recovered} degraded records, report says"
            f" {status.degradation.records_recovered}"
        )
    return canonical, errors


def _stream_sim(stream: Dict[str, object]) -> Dict[str, float]:
    return {
        "streaming.chunks": stream["chunks"],
        "streaming.uploads": stream["uploads"],
        "streaming.dead_letters": stream["dead_letters"],
        "streaming.p99_lag_ms": stream["p99_lag_ns"] / 1e6,
        "streaming.backpressure_engagements": stream["backpressure_engagements"],
    }


class TraceIngest:
    """The backend ingest path alone, over uploads harvested at set-up.

    Repeated uploads of one binary are what the decode cache exists
    for, so the cache is shared across iterations and mostly hits.
    """

    name = "trace_ingest"
    warmups = 2
    jobs = 1
    rate = ("ingest_mb_s", "MB/s")

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.nodes = 2 if quick else 4
        self.replicas = 2 if quick else 32
        self.uploads: List[Tuple[int, bytes, str]] = []

    def _harvest(self):
        master = ClusterMaster(seed=self.seed, decode_cache=False)
        master.add_nodes(self.nodes, base_seed=self.seed)
        master.deploy(APP, replicas=self.nodes)
        task = master.submit(TraceTaskSpec(
            app=APP, reason=TraceReason.ANOMALY, period_ns=PERIOD_NS
        ))
        master.reconcile(task)
        return master, task

    def setup(self, section=call) -> None:
        reset_program_caches()
        reset_identity_counters()
        master, task = section(self._harvest)
        pods = {pod.uid: pod for pod in master.deployments[APP].pods}
        self.uploads = []
        for key in task.status.trace_keys:
            pod = pods[key.rsplit("/", 1)[1]]
            raw = master.object_store.get(key)
            if split_canonical_stream(raw) is None:
                raise RuntimeError(f"harvested upload {key} is not canonical")
            self.uploads.append((pod.process.cr3, raw, f"{pod.node_name}/{pod.uid}"))
        self.binary = get_workload(APP).binary()
        self.decoders = [
            SoftwareDecoder({cr3: self.binary}) for cr3, _raw, _label in self.uploads
        ]
        self.cache = DecodeCache()

    def _submit(self, ingestor, submitted, replicas: int) -> None:
        for _replica in range(replicas):
            for index, (cr3, raw, label) in enumerate(self.uploads):
                outcome = SlotOutcome(
                    slot=len(submitted), node_name=label, pod_uid=label, app=APP,
                    label=label, completed=True, cr3=cr3, raw=raw,
                )
                ingestor.submit(outcome)
                submitted.append((index, outcome))

    def _decode_each(self):
        references = []
        for decoder, (_cr3, raw, _label) in zip(self.decoders, self.uploads):
            decoded = decoder.decode(raw, resilient=True)
            histogram = decoded.function_histogram()
            session = (len(decoded), len(histogram), decoded.resyncs, decoded.bytes_skipped)
            references.append((session, sorted(histogram.items())))
        return references

    def iteration(self, section=call) -> Outcome:
        ingestor = StreamingIngestor(app=APP, binary=self.binary, decode_cache=self.cache)
        submitted = []
        # one section per group of replicas keeps the timer's host-speed
        # probes close to the work they scale
        for first in range(0, self.replicas, REPLICAS_PER_SECTION):
            group = min(REPLICAS_PER_SECTION, self.replicas - first)
            section(self._submit, ingestor, submitted, group)
        stream = section(ingestor.finish)
        references = section(self._decode_each)
        result = Outcome(
            ops=[],
            work=self.replicas * sum(len(raw) for _cr3, raw, _label in self.uploads) / 1e6,
            sim=_stream_sim(stream.to_dict()),
        )
        for index, outcome in submitted:
            session = (outcome.records, outcome.functions, outcome.resyncs,
                       outcome.bytes_skipped)
            expected, histogram = references[index]
            if session != expected:
                result.ops.append(None)
                result.errors.append(
                    f"slot {outcome.slot}: streamed {session}, resilient decode {expected}"
                )
            else:
                result.ops.append(digest([list(session), histogram]))
        return result


class RpcCampaign:
    """A sharded ``retry-storm`` campaign through the service engine."""

    name = "rpc_campaign"
    warmups = 1
    rate = ("spans_per_s", "1/s")

    def __init__(self, seed: int, quick: bool = False, jobs: int = 2):
        self.jobs = jobs
        # a whole number of 8192-request partitions per worker
        self.spec = services_workloads.CampaignSpec(
            workload="ecommerce",
            n_requests=16_384 if quick else 32_768,
            scenario="retry-storm",
            inflation=1.05,
            seed=seed,
        )

    def setup(self, section=call) -> None:
        shutdown_process_pool()
        if self.jobs > 1:
            section(process_pool, self.jobs, base_seed=self.spec.seed)

    def iteration(self, section=call) -> Outcome:
        # the merged report is what is checked, so the campaign is one
        # operation however many partitions it has
        try:
            report = section(services_workloads.run_campaign, self.spec, jobs=self.jobs)
        except Exception as exc:
            return Outcome(ops=[None], work=0, errors=[f"campaign: {exc!r}"])
        text = services_workloads.campaign_report_json(report)
        errors = []
        if report["spans_simulated"] <= 0 or "traced" not in report["schemes"]:
            errors.append("campaign simulated no traced scheme")
        return Outcome(
            ops=[None if errors else digest(text)],
            work=report["spans_simulated"],
            errors=errors,
        )


WORKLOADS = {
    cls.name: cls for cls in (NodeOverhead, FleetChaos, TraceIngest, RpcCampaign)
}
