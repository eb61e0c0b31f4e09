"""Online streaming ingestion: bounded queue, backpressure, dead letters.

The batch reconcile decodes uploads wave-by-wave; this package models the
continuous datacenter path instead — finished tracing periods enqueue
canonical PSB chunks into a bounded queue, competing consumers on the
persistent worker pool decode them incrementally, credit-based
backpressure throttles producers when decode lags, and corrupt uploads land
in a dead-letter quarantine with replay support.  The end state is
byte-identical to batch reconcile (see
:class:`~repro.streaming.pipeline.StreamingIngestor`).
"""

from repro.streaming.deadletter import DeadLetter, DeadLetterQueue
from repro.streaming.pipeline import StreamStats, StreamingIngestor
from repro.streaming.queue import VirtualDecodeQueue

__all__ = [
    "DeadLetter",
    "DeadLetterQueue",
    "StreamStats",
    "StreamingIngestor",
    "VirtualDecodeQueue",
]
