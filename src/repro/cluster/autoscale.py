"""Seeded node churn between reconciles.

Datacenter fleets are not static: nodes drain for maintenance, crash out
of the pool, and get replaced.  The master tolerates this because nodes
are cheap — a :class:`ClusterNode` builds on first use, so registering
one costs microseconds — so the control-plane question is whether a
reconcile survives the churn happening underneath it.
:class:`ChurnModel` is a seeded perturbation source that removes and
replaces nodes between reconciles, the way maintenance drains and spot
reclaims do.  Same seed, same churn sequence, so churn-survival runs
are reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.master import ClusterMaster


class ChurnModel:
    """Seeded node-replacement churn between reconciles."""

    def __init__(self, seed: int, kill_fraction: float = 0.02):
        self._rngs = RngFactory(seed)
        self.kill_fraction = kill_fraction
        self.epoch = 0
        self.killed: List[str] = []

    def step(self, master: "ClusterMaster") -> List[str]:
        """Remove a seeded random slice of the fleet (and backfill it).

        Victim choice draws from the stream ``("churn", epoch)`` over the
        sorted node names, so a given seed always reclaims the same
        nodes in the same order.  Evicted replicas reschedule onto
        survivors, and the fleet is then topped back up with fresh
        nodes.
        """
        names = sorted(master.nodes)
        count = min(len(names) - 1, max(1, int(len(names) * self.kill_fraction)))
        if count <= 0 or len(names) <= 1:
            return []
        rng = self._rngs.stream("churn", self.epoch)
        picks = sorted(
            names[i] for i in rng.choice(len(names), size=count, replace=False)
        )
        for name in picks:
            master.remove_node(name)
        master.add_nodes(count)
        self.epoch += 1
        self.killed.extend(picks)
        return picks
