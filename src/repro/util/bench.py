"""Uniform benchmark-report writer and repeated-timing helper.

Every benchmark that records a perf trajectory (``BENCH_codec.json``,
``BENCH_sim.json``) writes the same schema so regressions can be diffed
mechanically across PRs::

    {
      "name":      "<benchmark name>",
      "metrics":   { ... flat numbers the benchmark measured ... },
      "env":       {"python": ..., "platform": ..., "cpu_count": ...},
      "timestamp": "2026-01-01T00:00:00+00:00"
    }

A gated timing is the median of several runs (:func:`measure`), not one
shot: on a shared host a single run spreads wider than the regression
gate's threshold.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Union

import numpy as np


class Measurement(NamedTuple):
    """Wall-clock seconds of repeated calls, and the last call's result."""

    median: float
    q1: float
    q3: float
    result: object


def measure(
    fn: Callable[..., object],
    repeats: int,
    setup: Optional[Callable[[], object]] = None,
) -> Measurement:
    """Call ``fn`` ``repeats`` times; the median and quartiles of its time.

    With ``setup``, each call is ``fn(setup())`` and only ``fn`` is timed.
    """
    if repeats < 1:
        raise ValueError("measure needs at least one repeat")
    seconds = []
    result = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return Measurement(float(median), float(q1), float(q3), result)


def bench_env() -> Dict[str, object]:
    """The environment fields every benchmark report carries."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def write_bench(
    path: Union[str, Path], name: str, metrics: Mapping[str, object]
) -> Dict[str, object]:
    """Write one benchmark report in the uniform schema; returns it."""
    report = {
        "name": name,
        "metrics": dict(metrics),
        "env": bench_env(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
    return report
