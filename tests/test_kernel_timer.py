"""Unit tests for the high-resolution timer."""

import math

import pytest

from repro.kernel.events import Simulator
from repro.kernel.timer import HighResolutionTimer


@pytest.fixture
def sim():
    return Simulator()


class TestTimer:
    def test_fires_at_deadline(self, sim):
        fired = []
        timer = HighResolutionTimer(sim, lambda: fired.append(sim.now))
        timer.arm_at(500)
        sim.run_until_stopped(math.inf)
        assert fired == [500]
        assert timer.fire_count == 1

    def test_arm_after_relative(self, sim):
        sim.schedule(100, lambda: None)
        sim.run_until_stopped(math.inf)
        fired = []
        timer = HighResolutionTimer(sim, lambda: fired.append(sim.now))
        timer.arm_after(50)
        sim.run_until_stopped(math.inf)
        assert fired == [150]

    def test_cancel_prevents_fire(self, sim):
        fired = []
        timer = HighResolutionTimer(sim, lambda: fired.append(1))
        timer.arm_after(100)
        timer.cancel()
        sim.run_until_stopped(math.inf)
        assert fired == []

    def test_rearm_replaces_pending(self, sim):
        fired = []
        timer = HighResolutionTimer(sim, lambda: fired.append(sim.now))
        timer.arm_after(100)
        timer.arm_after(300)  # replaces the 100ns expiry
        sim.run_until_stopped(math.inf)
        assert fired == [300]

    def test_rearm_after_fire(self, sim):
        fired = []
        timer = HighResolutionTimer(sim, lambda: fired.append(sim.now))
        timer.arm_after(10)
        sim.run_until_stopped(math.inf)
        timer.arm_after(10)
        sim.run_until_stopped(math.inf)
        assert fired == [10, 20]
        assert timer.fire_count == 2

    def test_cancel_idempotent(self, sim):
        timer = HighResolutionTimer(sim, lambda: None)
        timer.cancel()
        timer.arm_after(5)
        timer.cancel()
        timer.cancel()
        sim.run_until_stopped(math.inf)
        assert timer.fire_count == 0
