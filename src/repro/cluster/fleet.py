"""Vectorized per-pod bookkeeping for one reconcile (the coordinator side).

At datacenter scale the coordinator's per-pod Python loops (dedupe,
refill exclusion, coverage counting) dominate reconcile cost long before
any tracing happens.  :class:`FleetIndex` keeps that state as numpy
columns keyed by *pod index* — one row per pod of the deployment — so
every step is an array operation:

* **dedupe** (one traced pod per node) is a stable argsort + first-
  occurrence mask instead of a sorted Python loop;
* **refill exclusion** is a per-pod ``attempted`` column plus a per-node
  ``node_used`` bitmap;
* **coverage** is a ``sum()`` over the per-pod ``achieved`` column.

Node identity is interned once: nodes are cataloged in lexicographic
order and every pod row carries its node's integer code, which keeps all
downstream comparisons integer-typed (and makes the dedupe order match
the historical ``sorted(selected, key=lambda r: r.node)`` exactly).
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

import numpy as np


class FleetIndex:
    """Columnar reconcile state over one deployment's pods."""

    def __init__(self, uids: Sequence[str], node_names: Sequence[str]):
        if len(uids) != len(node_names):
            raise ValueError("uids/node_names must align")
        self.uids = np.asarray(uids, dtype=object)
        catalog = sorted(set(node_names))
        code_of = {name: code for code, name in enumerate(catalog)}
        self.node_codes = np.fromiter(
            (code_of[name] for name in node_names),
            dtype=np.int32,
            count=len(node_names),
        )
        self._row_of: Dict[str, int] = {
            uid: row for row, uid in enumerate(uids)
        }
        n_pods = len(uids)
        self.attempted = np.zeros(n_pods, dtype=bool)
        #: pods that delivered their full tracing window
        self.achieved_mask = np.zeros(n_pods, dtype=bool)
        #: nodes already traced (or attempted) by this task — refills
        #: must land on fresh nodes so slots stay node-disjoint
        self.node_used = np.zeros(len(catalog), dtype=bool)

    def __len__(self) -> int:
        return len(self.uids)

    # -- lookups ---------------------------------------------------------------

    def row_of(self, uid: str) -> int:
        """Pod row index for one uid."""
        return self._row_of[uid]

    def rows_of(self, uids: Sequence[str]) -> np.ndarray:
        """Pod row indices for a uid sequence (order preserved)."""
        return np.fromiter(
            (self._row_of[uid] for uid in uids), dtype=np.int64, count=len(uids)
        )

    # -- dedupe ------------------------------------------------------------------

    def dedupe_first_per_node(self, rows: np.ndarray) -> np.ndarray:
        """First row per node, in node-name order (vectorized dedupe).

        Matches the historical semantics: sort candidates by node name
        (stable, so earlier candidates win ties) and keep one per node.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return rows
        order = np.argsort(self.node_codes[rows], kind="stable")
        ordered = rows[order]
        codes = self.node_codes[ordered]
        keep = np.ones(len(ordered), dtype=bool)
        keep[1:] = codes[1:] != codes[:-1]
        return ordered[keep]

    # -- transitions -------------------------------------------------------------

    def mark_selected(self, rows: np.ndarray) -> None:
        """Mark rows attempted and claim their nodes."""
        self.attempted[rows] = True
        self.node_used[self.node_codes[rows]] = True

    def mark_achieved(self, row: int) -> None:
        """Record that one pod delivered its full tracing window."""
        self.achieved_mask[row] = True

    # -- rollups -----------------------------------------------------------------

    def achieved(self) -> int:
        """Pods that delivered their full tracing window."""
        return int(self.achieved_mask.sum())

    def exclude_uids(self) -> Set[str]:
        """Pods ineligible for refill: attempted, or on used nodes
        (vectorized mask, materialized once per refill round)."""
        mask = self.attempted | self.node_used[self.node_codes]
        return set(self.uids[mask])
