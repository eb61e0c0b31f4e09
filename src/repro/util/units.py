"""Time and size units used throughout the simulator.

Virtual time is always an ``int`` number of nanoseconds.  Using integers
(rather than floats) keeps event ordering exact and makes simulations
bit-reproducible across platforms.  Sizes are integer bytes.
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------

NSEC: int = 1
USEC: int = 1_000
MSEC: int = 1_000_000
SEC: int = 1_000_000_000

# --- sizes --------------------------------------------------------------

KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024


def fmt_time(ns: int) -> str:
    """Render a nanosecond duration with a human-friendly unit.

    >>> fmt_time(1_500)
    '1.500us'
    >>> fmt_time(2_000_000_000)
    '2.000s'
    """
    if ns < USEC:
        return f"{ns}ns"
    if ns < MSEC:
        return f"{ns / USEC:.3f}us"
    if ns < SEC:
        return f"{ns / MSEC:.3f}ms"
    return f"{ns / SEC:.3f}s"


def fmt_bytes(n: int) -> str:
    """Render a byte count with a human-friendly unit.

    >>> fmt_bytes(2048)
    '2.0KiB'
    """
    if n < KIB:
        return f"{n}B"
    if n < MIB:
        return f"{n / KIB:.1f}KiB"
    if n < GIB:
        return f"{n / MIB:.1f}MiB"
    return f"{n / GIB:.2f}GiB"
