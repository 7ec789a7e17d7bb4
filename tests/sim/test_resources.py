"""Unit tests for simulation-time primitives."""

import pytest

from repro.sim import PeriodicTimer, Simulator


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=1.0)
        assert ticks == [1.0]

    def test_restart_after_stop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.stop)
        sim.schedule(5.0, timer.start)
        sim.run(until=7.0)
        assert ticks == [1.0, 6.0, 7.0]

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
