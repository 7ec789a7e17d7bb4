"""Unit tests for the reference interval accumulator."""

import pytest

from repro.sim import Simulator
from tests.spec.intervals import IntervalAccumulator


class TestIntervalAccumulator:
    def test_accumulates_state_durations(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("idle")
        sim.schedule(3.0, acc.switch, "infer")
        sim.schedule(5.0, acc.switch, "idle")
        sim.run()
        totals = acc.close()
        assert totals["idle"] == pytest.approx(3.0)
        assert totals["infer"] == pytest.approx(2.0)

    def test_open_interval_counted_in_total(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("load")
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert acc.total("load") == pytest.approx(4.0)
        assert acc.total("load", include_open=False) == 0.0

    def test_fraction_over_elapsed_time(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("infer")
        sim.schedule(2.0, acc.switch, "idle")
        sim.schedule(8.0, lambda: None)
        sim.run()
        assert acc.fraction("infer") == pytest.approx(0.25)

    def test_fraction_with_explicit_horizon(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("infer")
        sim.schedule(5.0, acc.switch, "idle")
        sim.run()
        assert acc.fraction("infer", horizon=10.0) == pytest.approx(0.5)

    def test_fraction_zero_elapsed(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("idle")
        assert acc.fraction("idle") == 0.0

    def test_switch_before_start_opens_interval(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.switch("infer")
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert acc.total("infer") == pytest.approx(2.0)

    def test_repeated_same_state_switches_merge(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim)
        acc.start("idle")
        sim.schedule(1.0, acc.switch, "idle")
        sim.schedule(3.0, acc.switch, "idle")
        sim.run()
        assert acc.total("idle") == pytest.approx(3.0)
