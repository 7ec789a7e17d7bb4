"""Unit tests for the GPU device model."""

import pytest

from repro.cluster import GPUDevice, GPUMemoryError, GPUState
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def gpu(sim):
    return GPUDevice(sim, "node0/cuda:0", memory_mb=8000.0)


class TestMemoryAndResidency:
    def test_starts_empty_and_idle(self, gpu):
        assert gpu.used_mb == 0.0
        assert gpu.free_mb == 8000.0
        assert gpu.is_idle
        assert gpu.resident_models() == []

    def test_admit_reserves_memory(self, gpu):
        gpu.admit("m1", 3000.0)
        assert gpu.used_mb == 3000.0
        assert gpu.free_mb == 5000.0
        assert gpu.has_model("m1")
        assert gpu.resident_models() == ["m1"]

    def test_admit_duplicate_rejected(self, gpu):
        gpu.admit("m1", 1000.0)
        with pytest.raises(ValueError):
            gpu.admit("m1", 1000.0)

    def test_admit_over_capacity_raises_oom(self, gpu):
        gpu.admit("m1", 5000.0)
        with pytest.raises(GPUMemoryError):
            gpu.admit("m2", 4000.0)
        assert not gpu.has_model("m2")
        assert gpu.used_mb == 5000.0

    def test_admit_model_larger_than_device(self, gpu):
        with pytest.raises(GPUMemoryError):
            gpu.admit("huge", 9000.0)

    def test_evict_releases_memory_and_kills_process(self, gpu):
        gpu.admit("m1", 3000.0)
        gpu.evict("m1")
        assert gpu.used_mb == 0.0
        assert not gpu.has_model("m1")
        gpu.admit("m1", 3000.0)  # a killed process can be started again
        assert gpu.has_model("m1")

    def test_evict_unknown_model_raises(self, gpu):
        with pytest.raises(KeyError):
            gpu.evict("nope")

    @pytest.mark.parametrize("busy", ["begin_loading", "begin_inference"])
    def test_evict_rejected_while_busy(self, gpu, busy):
        """Only failure handling kills a process while its GPU loads or
        infers; a refused eviction leaves residency untouched."""
        gpu.admit("m1", 1000.0)
        getattr(gpu, busy)()
        with pytest.raises(RuntimeError, match="m1 on node0/cuda:0"):
            gpu.evict("m1")
        assert gpu.has_model("m1")
        assert gpu.used_mb == 1000.0
        gpu.become_idle()
        gpu.evict("m1")
        assert gpu.used_mb == 0.0

    def test_evict_keeps_other_residents_in_admission_order(self, gpu):
        for m in ("a", "b", "c", "d"):
            gpu.admit(m, 1000.0)
        gpu.evict("a")
        gpu.evict("c")
        assert gpu.resident_models() == ["b", "d"]
        assert gpu.used_mb == 2000.0

    def test_exact_fit_admission(self, gpu):
        gpu.admit("m1", 8000.0)
        assert gpu.free_mb == 0.0

    def test_memory_never_negative_after_evictions(self, gpu):
        for i in range(5):
            gpu.admit(f"m{i}", 1600.0)
        for i in range(5):
            gpu.evict(f"m{i}")
        assert gpu.used_mb == 0.0


class TestStateMachine:
    def test_loading_then_inferring_then_idle(self, sim, gpu):
        gpu.begin_loading()
        assert gpu.state is GPUState.LOADING
        assert gpu.is_busy
        gpu.begin_inference()
        assert gpu.state is GPUState.INFERRING
        gpu.become_idle()
        assert gpu.is_idle

    def test_begin_loading_requires_idle(self, gpu):
        gpu.begin_loading()
        with pytest.raises(RuntimeError):
            gpu.begin_loading()

    def test_double_inference_rejected(self, gpu):
        gpu.begin_inference()
        with pytest.raises(RuntimeError):
            gpu.begin_inference()

    def test_inference_directly_from_idle_allowed(self, gpu):
        """Cache hits skip the loading phase entirely."""
        gpu.begin_inference()
        assert gpu.state is GPUState.INFERRING


class TestSMUtilization:
    def test_sm_busy_only_during_inference(self, sim, gpu):
        # 0-2s loading, 2-5s inferring, 5-10s idle
        sim.schedule(0.0, gpu.begin_loading)
        sim.schedule(2.0, gpu.begin_inference)
        sim.schedule(5.0, gpu.become_idle)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gpu.time_in(GPUState.LOADING) == pytest.approx(2.0)
        assert gpu.time_in(GPUState.INFERRING) == pytest.approx(3.0)
        assert gpu.sm_utilization() == pytest.approx(0.3)

    def test_loading_counts_against_utilization(self, sim, gpu):
        sim.schedule(0.0, gpu.begin_loading)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gpu.sm_utilization() == 0.0

    def test_utilization_with_horizon(self, sim, gpu):
        sim.schedule(0.0, gpu.begin_inference)
        sim.schedule(5.0, gpu.become_idle)
        sim.run()
        assert gpu.sm_utilization(horizon=20.0) == pytest.approx(0.25)


def test_invalid_memory_rejected(sim):
    with pytest.raises(ValueError):
        GPUDevice(sim, "g", memory_mb=0.0)
