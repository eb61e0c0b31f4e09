"""Shared utilities: time units, seeded randomness, and statistics helpers.

Everything in the simulator measures virtual time in integer nanoseconds
(see :mod:`repro.util.units`) and derives randomness from explicitly
seeded generators (see :mod:`repro.util.rng`) so that every experiment in
``benchmarks/`` is exactly reproducible.
"""

from repro.util.rng import RngFactory, derive_seed
from repro.util.stats import (
    OnlineStats,
    geometric_mean,
    normalized_l1_distance,
    percentile,
)
from repro.util.units import (
    GIB,
    KIB,
    MIB,
    MSEC,
    NSEC,
    SEC,
    USEC,
    fmt_bytes,
    fmt_time,
)

__all__ = [
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "KIB",
    "MIB",
    "GIB",
    "fmt_bytes",
    "fmt_time",
    "RngFactory",
    "derive_seed",
    "OnlineStats",
    "percentile",
    "geometric_mean",
    "normalized_l1_distance",
]
