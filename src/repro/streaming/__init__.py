"""Online streaming ingestion: bounded queue, backpressure, dead letters.

The batch reconcile reports uploads once all rounds are done; this
package models the continuous datacenter path instead — every slot
decodes its own upload where the bytes are, finished tracing periods
then enqueue their canonical PSB-chunk lengths into a bounded
virtual-time queue, credit-based backpressure throttles producers when
decode lags, and corrupt uploads are counted as dead letters.  Decode
is shared with batch reconcile, so the end state is byte-identical (see :class:`~repro.streaming.pipeline.StreamingIngestor`).
"""

from repro.streaming.pipeline import StreamStats, StreamingIngestor
from repro.streaming.queue import VirtualDecodeQueue

__all__ = [
    "StreamStats",
    "StreamingIngestor",
    "VirtualDecodeQueue",
]
