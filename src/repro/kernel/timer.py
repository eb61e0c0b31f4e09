"""High-resolution timers.

EXIST's tracing controller bounds every tracing period with an HRT so a
lost stop request can never leave tracers enabled forever (paper §3.2).
This is a thin, restartable wrapper over the simulator's event queue that
mirrors the hrtimer API shape (arm/cancel/expired).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernel.events import Event, Simulator


class HighResolutionTimer:
    """A one-shot, re-armable timer bound to a simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> t = HighResolutionTimer(sim, lambda: fired.append(sim.now))
    >>> t.arm_after(100)
    >>> _ = sim.run_until(1_000)
    >>> fired
    [100]
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self.fire_count = 0

    def arm_at(self, deadline: int) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``deadline``."""
        self.cancel()
        self._event = self._sim.schedule(deadline, self._fire)

    def arm_after(self, delay: int) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` ns from now."""
        self.arm_at(self._sim.now + delay)

    def cancel(self) -> None:
        """Disarm without firing; safe to call repeatedly."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fire_count += 1
        self._callback()
