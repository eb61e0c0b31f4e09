"""Load generators for the queueing simulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_seed
from repro.util.units import SEC


@dataclass
class PoissonArrivals:
    """Open-loop Poisson arrival process at ``rate_rps`` requests/second.

    The paper's load knob ("Load=1e2 ... 1e5" requests) is an open-loop
    arrival rate: clients do not wait for responses, so queueing delay
    compounds — the regime where tracing overhead amplifies into tail
    latency (Figure 3b).
    """

    rate_rps: float
    seed: int = 0

    def arrival_times(self, n_requests: int) -> np.ndarray:
        """Absolute arrival times (ns) of the first ``n_requests``."""
        if self.rate_rps <= 0:
            raise ValueError("arrival rate must be positive")
        # canonicalize the rate before hashing: derive_seed stringifies
        # its labels, so numerically equal but repr-distinct rates
        # (40000 vs 40000.0 vs np.float64(40000)) would otherwise pick
        # different arrival streams
        rate = float(self.rate_rps)
        rng = np.random.default_rng(derive_seed(self.seed, "poisson", rate))
        gaps = rng.exponential(SEC / self.rate_rps, size=n_requests)
        return np.cumsum(gaps).astype(np.int64)

