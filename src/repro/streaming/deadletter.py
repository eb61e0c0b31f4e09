"""Dead-letter quarantine for uploads that fail streaming ingestion.

Instead of failing the pipeline in-band, a corrupt or truncated upload is
parked here with its reason, and can be *replayed* later through
whatever handler the caller supplies — the stats of the resilient
whole-stream decode for trace uploads (the span collector reuses this
queue for malformed trace uploads).  A replay handler that returns
``None`` leaves the entry quarantined with its attempt count bumped, so
poison payloads never loop forever silently: they stay visible in the
queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass
class DeadLetter:
    """One quarantined payload and why it landed here."""

    key: object
    payload: object
    reason: str
    #: replay attempts made so far
    attempts: int = 0
    #: chronological reasons (initial quarantine + failed replays)
    history: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.history:
            self.history.append(self.reason)


class DeadLetterQueue:
    """FIFO quarantine with replay support (insertion-ordered)."""

    def __init__(self) -> None:
        self._entries: List[DeadLetter] = []
        #: total payloads ever quarantined
        self.quarantined_total = 0
        #: payloads successfully replayed out of quarantine
        self.replayed_total = 0

    def quarantine(self, key: object, payload: object, reason: str) -> DeadLetter:
        """Park one payload; returns its entry."""
        entry = DeadLetter(key=key, payload=payload, reason=reason)
        self._entries.append(entry)
        self.quarantined_total += 1
        return entry

    @property
    def entries(self) -> List[DeadLetter]:
        """Current quarantine contents (insertion order, read-only copy)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def replay(
        self, handler: Callable[[DeadLetter], Optional[object]]
    ) -> List[Tuple[DeadLetter, object]]:
        """Re-offer every entry to ``handler`` in quarantine order.

        ``handler`` returns a non-``None`` result to accept the entry
        (it leaves the queue) or ``None`` to reject it (it stays, with
        ``attempts`` bumped and a history note).  Returns the accepted
        ``(entry, result)`` pairs in order.
        """
        accepted: List[Tuple[DeadLetter, object]] = []
        remaining: List[DeadLetter] = []
        for entry in self._entries:
            entry.attempts += 1
            result = handler(entry)
            if result is None:
                entry.history.append(
                    f"replay attempt {entry.attempts} rejected"
                )
                remaining.append(entry)
            else:
                accepted.append((entry, result))
                self.replayed_total += 1
        self._entries = remaining
        return accepted
