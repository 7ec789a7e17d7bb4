"""Unit tests for the timeline probe."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.metrics.timeline import TIMELINE_FIELDS, TimelineProbe
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import AzureTraceConfig, SyntheticAzureTrace, WorkloadSpec, build_workload


@pytest.fixture
def system():
    return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3"))


def run_small_workload(system, period_s=5.0):
    trace = SyntheticAzureTrace(
        AzureTraceConfig(num_functions=100, mean_rate_per_minute=500, seed=4)
    )
    wl = build_workload(
        WorkloadSpec(working_set=4, minutes=2, requests_per_minute=30), trace=trace
    )
    probe = TimelineProbe(system, period_s=period_s)
    system.submit_workload(wl)
    system.run()  # the probe injects nothing, so a plain drain terminates
    probe.stop()
    return probe, wl


def series(probe, field):
    return probe.to_numpy()[:, TIMELINE_FIELDS.index(field)]


class TestSampling:
    def test_samples_on_schedule(self, system):
        probe, wl = run_small_workload(system, period_s=10.0)
        times = series(probe, "time_s")
        # passive: a boundary lands once a later event crosses it, so the
        # drain tail decides whether the 120 s row (and beyond) exists
        assert len(times) >= 11
        np.testing.assert_allclose(times[0], 10.0)
        np.testing.assert_allclose(np.diff(times), 10.0)

    def test_gpu_state_partition(self, system):
        probe, _ = run_small_workload(system)
        total = len(system.cluster.gpus)
        idle = series(probe, "gpus_idle")
        load = series(probe, "gpus_loading")
        infer = series(probe, "gpus_inferring")
        np.testing.assert_array_equal(idle + load + infer, total)

    def test_completed_monotone(self, system):
        probe, _ = run_small_workload(system)
        done = series(probe, "completed_requests")
        assert np.all(np.diff(done) >= 0)
        assert done[-1] > 0

    def test_instantaneous_utilization_bounded(self, system):
        probe, _ = run_small_workload(system)
        util = series(probe, "gpus_inferring") / len(system.cluster.gpus)
        assert np.all(util >= 0) and np.all(util <= 1)
        assert util.max() > 0  # the workload actually used the GPUs

    def test_interval_miss_ratio(self, system):
        probe, _ = run_small_workload(system)
        misses = np.diff(series(probe, "cumulative_misses"), prepend=0.0)
        done = np.diff(series(probe, "completed_requests"), prepend=0.0)
        ratios = misses[done > 0] / done[done > 0]
        assert np.all((ratios >= 0) & (ratios <= 1))
        # the first active interval contains compulsory (cold) misses
        assert ratios[0] > 0

    def test_stop_halts_sampling(self, system):
        probe = TimelineProbe(system, period_s=1.0)
        system.sim.schedule(3.0, lambda: None)
        system.run()
        probe.stop()
        probe.stop()  # idempotent
        system.sim.schedule(5.0, lambda: None)
        system.run()
        assert len(probe.samples) == 3


class TestAccessors:
    def test_unknown_field_rejected(self, system):
        probe, _ = run_small_workload(system)
        with pytest.raises(AttributeError):
            probe.samples[0].bogus

    def test_empty_series(self, system):
        probe = TimelineProbe(system)
        assert probe.samples == []
        assert len(probe) == 0
        assert probe.to_numpy().shape == (0, len(TIMELINE_FIELDS))

    def test_peak_queue_depth(self, system):
        probe, _ = run_small_workload(system)
        assert max(s.global_queue_depth for s in probe.samples) >= 0

    def test_to_rows(self, system):
        probe, _ = run_small_workload(system)
        samples = probe.samples
        assert len(samples) == len(probe) == len(probe.to_numpy())
        first = samples[0]
        assert [getattr(first, name) for name in TIMELINE_FIELDS] == list(probe.to_numpy()[0])
        assert isinstance(first.global_queue_depth, int)

    def test_invalid_period(self, system):
        with pytest.raises(ValueError):
            TimelineProbe(system, period_s=0)
