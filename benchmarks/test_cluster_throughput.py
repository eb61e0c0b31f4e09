"""Sharded control-plane benchmark (reconcile throughput at scale).

Three measurements, recorded to ``BENCH_cluster.json`` (uniform schema
via :mod:`repro.util.bench`):

* **reconcile throughput at 100 / 1k / 5k nodes** — median wall clock
  of ``RECONCILE_REPEATS`` full ``ClusterMaster.reconcile`` calls
  (:func:`repro.util.bench.measure`), each on a fresh lazily-registered
  fleet with
  two pods per node, the traced repetition count capped so the tracing
  work is constant while the coordinator's per-pod bookkeeping (RCO
  sampling, FleetIndex dedupe/coverage columns, upload merge) scales
  with the fleet.  Gated as ``*_nodes_per_s``; the scaling contract —
  per-node cost at 5k nodes no worse than 1.5x the per-node cost at
  100 nodes — is asserted directly.
* **shard parity** — a chaos-preset reconcile (crashes, pod kills,
  buffer squeezes, corruption) run ``jobs=1`` in-process and ``jobs=2``
  over the persistent pool must produce canonically identical output:
  raw trace bytes, structured rows, degradation events, coverage.
* **churn survival** — seeded node churn (drain + replace) between
  reconciles; the follow-up reconcile on the churned fleet must still
  deliver full coverage.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import emit
from repro.cluster import ChurnModel, ClusterMaster, TraceTaskSpec
from repro.core.config import TraceReason
from repro.faults.plan import FaultPlan
from repro.parallel.pool import RunPool
from repro.parallel.workers import shutdown_process_pool
from repro.util.bench import measure, write_bench
from repro.util.identity import reset_identity_counters
from repro.util.units import MSEC

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALES = (100, 1_000, 5_000)
RECONCILE_REPEATS = 3
PODS_PER_NODE = 2
#: traced repetitions per reconcile — fixed across scales so the wall
#: clock isolates the coordinator's per-pod/per-node bookkeeping
TRACED_REPETITIONS = 8
PERIOD_MS = 40
MAX_PER_NODE_COST_RATIO = 1.5

PARITY_NODES = 12
PARITY_REPLICAS = 10
PARITY_JOBS = 2

CHURN_NODES = 60
CHURN_REPLICAS = 40


def _scale_master(nodes: int) -> ClusterMaster:
    master = ClusterMaster(seed=17)
    master.add_nodes(nodes, base_seed=1_000)
    master.deploy("Search1", replicas=nodes * PODS_PER_NODE)
    return master


def _reconcile_once(master: ClusterMaster) -> object:
    task = master.submit(TraceTaskSpec(
        app="Search1",
        reason=TraceReason.ANOMALY,
        period_ns=PERIOD_MS * MSEC,
        max_repetitions=TRACED_REPETITIONS,
    ))
    return master.reconcile(task)


def _canonical(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _parity_run(jobs: int) -> str:
    """One chaos reconcile; returns its canonical output fingerprint."""
    reset_identity_counters()
    master = ClusterMaster(seed=7)
    master.add_nodes(PARITY_NODES, base_seed=100)
    master.deploy("Search1", replicas=PARITY_REPLICAS)
    task = master.submit(TraceTaskSpec(
        app="Search1",
        reason=TraceReason.ANOMALY,
        period_ns=50 * MSEC,
    ))
    plan = FaultPlan.parse("chaos", seed=42)
    if jobs > 1:
        with RunPool(max_workers=jobs) as pool:
            master.reconcile(task, faults=plan, pool=pool)
    else:
        master.reconcile(task, faults=plan)
    report = task.status.degradation
    return json.dumps(_canonical({
        "phase": task.status.phase.value,
        "selected": task.status.selected_pods,
        "keys": task.status.trace_keys,
        "raws": {k: master.object_store.get(k) for k in task.status.trace_keys},
        "rows": master.sessions_for(task),
        "sessions": task.status.sessions_completed,
        "bytes": task.status.bytes_captured,
        "coverage": (task.status.coverage_requested,
                     task.status.coverage_achieved),
        "report": report.to_json(),
        "task_coverage": master.task_coverage[task.name],
    }), sort_keys=True)


def test_cluster_throughput():
    shutdown_process_pool()

    # -- reconcile throughput across fleet scales ------------------------------
    nodes_per_s = {}
    per_node_cost = {}
    for nodes in SCALES:
        def fresh_master(nodes=nodes):
            reset_identity_counters()
            return _scale_master(nodes)

        timing = measure(
            lambda master: (master, _reconcile_once(master)),
            RECONCILE_REPEATS,
            setup=fresh_master,
        )
        (master, task), elapsed = timing.result, timing.median
        assert task.finished, f"{nodes}-node reconcile did not finish"
        assert task.status.sessions_completed == TRACED_REPETITIONS
        nodes_per_s[nodes] = nodes / elapsed
        per_node_cost[nodes] = elapsed / nodes
        footprint = master.management_footprint()
        emit(
            f"reconcile {nodes:>5} nodes ({nodes * PODS_PER_NODE} pods): "
            f"{elapsed:.2f}s  ({nodes / elapsed:,.0f} nodes/s, "
            f"mgmt {footprint.cpu_cores:.1e} cores / "
            f"{footprint.memory_mb:.0f} MB)"
        )

    ratio = per_node_cost[SCALES[-1]] / per_node_cost[SCALES[0]]
    emit(f"per-node cost ratio {SCALES[-1]}/{SCALES[0]}: {ratio:.2f}x")
    assert ratio <= MAX_PER_NODE_COST_RATIO, (
        f"per-node reconcile cost grew {ratio:.2f}x from {SCALES[0]} to "
        f"{SCALES[-1]} nodes (budget {MAX_PER_NODE_COST_RATIO}x)"
    )

    # -- shard parity under chaos ---------------------------------------------
    serial = _parity_run(jobs=1)
    shutdown_process_pool()
    sharded = _parity_run(jobs=PARITY_JOBS)
    shutdown_process_pool()
    parity = serial == sharded
    assert parity, "jobs=1 and jobs=2 chaos reconciles diverged"
    emit(f"shard parity (chaos, jobs=1 vs jobs={PARITY_JOBS}): identical")

    # -- churn survival --------------------------------------------------------
    reset_identity_counters()
    master = ClusterMaster(seed=23)
    master.add_nodes(CHURN_NODES, base_seed=2_000)
    master.deploy("Search1", replicas=CHURN_REPLICAS)
    churn = ChurnModel(seed=5, kill_fraction=0.05)
    survived = 0
    for _ in range(3):
        killed = churn.step(master)
        assert killed, "churn step removed no nodes"
        task = master.submit(TraceTaskSpec(
            app="Search1",
            reason=TraceReason.ANOMALY,
            period_ns=PERIOD_MS * MSEC,
            max_repetitions=4,
        ))
        master.reconcile(task)
        assert task.finished
        assert task.status.sessions_completed > 0
        survived += 1
    assert len(master.nodes) == CHURN_NODES  # replaced, not shrunk
    emit(
        f"churn survival: {survived} reconciles over "
        f"{len(churn.killed)} node replacements"
    )

    metrics = {
        "pods_per_node": PODS_PER_NODE,
        "traced_repetitions": TRACED_REPETITIONS,
        "reconcile_100_nodes_per_s": round(nodes_per_s[100], 1),
        "reconcile_1k_nodes_per_s": round(nodes_per_s[1_000], 1),
        "reconcile_5k_nodes_per_s": round(nodes_per_s[5_000], 1),
        "per_node_cost_ratio_5k_vs_100": round(ratio, 3),
        "parity_jobs": PARITY_JOBS,
        "parity_identical": parity,
        "churn_reconciles": survived,
        "churn_replacements": len(churn.killed),
        "cpu_count": os.cpu_count(),
    }
    write_bench(REPO_ROOT / "BENCH_cluster.json", "cluster_throughput", metrics)

    emit("Sharded control plane")
