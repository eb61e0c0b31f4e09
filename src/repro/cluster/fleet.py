"""Vectorized per-pod bookkeeping for one reconcile (the coordinator side).

At datacenter scale the coordinator's per-pod Python loops (dedupe,
phase tracking, retry/quarantine sets, coverage counting) dominate
reconcile cost long before any tracing happens.  :class:`FleetIndex`
keeps that state as numpy columns keyed by *pod index* — one row per pod
of the deployment — so every transition is an array operation:

* slot **phase transitions** are writes into an ``int8`` code column;
* **dedupe** (one traced pod per node) is a stable argsort + first-
  occurrence mask instead of a sorted Python loop;
* **retry/quarantine** state is a pair of per-node bitmaps plus a
  failure-count column;
* **coverage rollups** are ``sum()`` reductions over the phase column.

Node identity is interned once: nodes are cataloged in lexicographic
order and every pod row carries its node's integer code, which keeps all
downstream comparisons integer-typed (and makes the dedupe order match
the historical ``sorted(selected, key=lambda r: r.node)`` exactly).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

# slot phase codes (one byte per pod)
UNSELECTED = 0
SELECTED = 1
TRACING = 2
ACHIEVED = 3
SALVAGED = 4
ABANDONED = 5
START_FAILED = 6


class FleetIndex:
    """Columnar reconcile state over one deployment's pods."""

    def __init__(self, uids: Sequence[str], node_names: Sequence[str],
                 priorities: Sequence[int]):
        if len(uids) != len(node_names) or len(uids) != len(priorities):
            raise ValueError("uids/node_names/priorities must align")
        self.uids = np.asarray(uids, dtype=object)
        self.node_catalog: List[str] = sorted(set(node_names))
        self.code_of: Dict[str, int] = {
            name: code for code, name in enumerate(self.node_catalog)
        }
        self.node_codes = np.fromiter(
            (self.code_of[name] for name in node_names),
            dtype=np.int32,
            count=len(node_names),
        )
        self.priorities = np.asarray(priorities, dtype=np.int32)
        self._row_of: Dict[str, int] = {
            uid: row for row, uid in enumerate(uids)
        }
        n_pods, n_nodes = len(uids), len(self.node_catalog)
        self.phase = np.zeros(n_pods, dtype=np.int8)
        self.attempts = np.zeros(n_pods, dtype=np.int16)
        self.attempted = np.zeros(n_pods, dtype=bool)
        #: per-node retry/quarantine bitmaps + failure counters
        self.node_failures = np.zeros(n_nodes, dtype=np.int16)
        self.node_quarantined = np.zeros(n_nodes, dtype=bool)
        #: nodes already traced (or attempted) by this task — refills
        #: must land on fresh nodes so slots stay node-disjoint
        self.node_used = np.zeros(n_nodes, dtype=bool)

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

    def node_code(self, name: str) -> int:
        """Interned integer code of one node name."""
        return self.code_of[name]

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
        """Transition rows to SELECTED and claim their nodes."""
        self.phase[rows] = SELECTED
        self.attempted[rows] = True
        self.node_used[self.node_codes[rows]] = True

    def mark_tracing(self, rows: np.ndarray) -> None:
        """Transition rows to TRACING (slots dispatched)."""
        self.phase[rows] = TRACING

    def resolve(self, row: int, phase: int, attempts: int) -> None:
        """Record one slot's terminal phase + attempt count."""
        self.phase[row] = phase
        self.attempts[row] = attempts

    def register_node_failures(
        self, codes: Sequence[int], threshold: int
    ) -> List[int]:
        """Fold node failures in; returns codes newly past the threshold."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size == 0:
            return []
        np.add.at(self.node_failures, codes, 1)
        over = (self.node_failures >= max(1, threshold)) & ~self.node_quarantined
        newly = np.flatnonzero(over)
        self.node_quarantined[newly] = True
        return [int(code) for code in newly]

    # -- rollups -----------------------------------------------------------------

    def achieved(self) -> int:
        """Pods that delivered their full tracing window."""
        return int((self.phase == ACHIEVED).sum())

    def quarantined_nodes(self) -> List[str]:
        """Names of nodes quarantined this reconcile (sorted)."""
        return [
            self.node_catalog[code]
            for code in np.flatnonzero(self.node_quarantined)
        ]

    def exclude_uids(self) -> Set[str]:
        """Pods ineligible for refill: attempted, or on used/quarantined
        nodes (vectorized mask, materialized once per refill round)."""
        blocked_nodes = self.node_quarantined | self.node_used
        mask = self.attempted | blocked_nodes[self.node_codes]
        return set(self.uids[mask])
