"""Cloud-native cluster substrate (Kubernetes + storage stand-ins).

EXIST deploys cluster-wide: user requests arrive as Custom Resource
Definitions at the master (:mod:`repro.cluster.crd`), controllers
reconcile them into node-level tracing sessions
(:mod:`repro.cluster.master`), traced data is uploaded to object storage
and decoded results land in structured storage
(:mod:`repro.cluster.storage`), mirroring the paper's OSS → decoder →
ODPS data flow (§4).  Nodes wrap a :class:`~repro.kernel.system.
KernelSystem` plus an EXIST facility and host pods
(:mod:`repro.cluster.node`, :mod:`repro.cluster.pod`).
"""

from repro.cluster.autoscale import ChurnModel
from repro.cluster.crd import TaskPhase, TraceTask, TraceTaskSpec, TraceTaskStatus
from repro.cluster.fleet import FleetIndex
from repro.cluster.master import ClusterMaster, Deployment
from repro.cluster.node import ClusterNode, NodeSpec, PodPlacement
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.storage import ObjectStore, StructuredStore

__all__ = [
    "Pod",
    "PodPhase",
    "ClusterNode",
    "NodeSpec",
    "PodPlacement",
    "FleetIndex",
    "ChurnModel",
    "TraceTask",
    "TraceTaskSpec",
    "TraceTaskStatus",
    "TaskPhase",
    "ObjectStore",
    "StructuredStore",
    "ClusterMaster",
    "Deployment",
]
