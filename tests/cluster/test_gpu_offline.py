"""Unit tests for the GPU offline/online state (failure substrate)."""

import pytest

from repro.cluster import GPUDevice, GPUState
from repro.sim import Simulator


@pytest.fixture
def gpu():
    return GPUDevice(Simulator(), "n/cuda:0", memory_mb=8000.0)


def test_go_offline_from_idle(gpu):
    gpu.go_offline()
    assert gpu.state is GPUState.OFFLINE
    assert not gpu.is_online
    assert not gpu.is_idle


def test_go_offline_from_busy(gpu):
    gpu.begin_inference()
    gpu.go_offline()
    assert gpu.state is GPUState.OFFLINE


def test_come_online_returns_to_idle(gpu):
    gpu.go_offline()
    gpu.come_online()
    assert gpu.is_idle
    assert gpu.is_online


def test_come_online_requires_offline(gpu):
    with pytest.raises(RuntimeError):
        gpu.come_online()


def test_become_idle_rejected_while_offline(gpu):
    gpu.go_offline()
    with pytest.raises(RuntimeError):
        gpu.become_idle()


def test_offline_time_not_counted_as_sm_busy(gpu):
    sim = gpu.sim
    sim.schedule(0.0, gpu.begin_inference)
    sim.schedule(5.0, gpu.go_offline)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert gpu.time_in(GPUState.INFERRING) == pytest.approx(5.0)
    assert gpu.time_in(GPUState.OFFLINE) == pytest.approx(5.0)
    assert gpu.sm_utilization() == pytest.approx(0.5)


def test_force_evict_running_process(gpu):
    gpu.admit("m", 1000.0)
    gpu.begin_inference()
    with pytest.raises(RuntimeError):
        gpu.evict("m")
    assert gpu.has_model("m")  # failed evict must not corrupt residency
    gpu.evict("m", force=True)
    assert not gpu.has_model("m")
    assert gpu.used_mb == 0.0
