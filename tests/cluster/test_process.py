"""Unit tests for the GPU process lifecycle."""

import pytest

from repro.cluster import GPUProcess, ProcessState


def make_proc():
    return GPUProcess(model_instance="fn-3", occupied_mb=1500.0, gpu_id="n/cuda:0", started_at=1.0)


def test_lifecycle_happy_path():
    p = make_proc()
    assert p.state is ProcessState.STARTING
    p.mark_ready(now=3.5)
    assert p.state is ProcessState.READY
    assert p.ready_at == 3.5
    p.mark_running()
    assert p.state is ProcessState.RUNNING
    p.mark_done()
    assert p.state is ProcessState.READY
    assert p.served_requests == 1
    p.kill(now=9.0)
    assert p.state is ProcessState.KILLED
    assert p.killed_at == 9.0
    assert not p.alive


def test_ready_only_from_starting():
    p = make_proc()
    p.mark_ready(1.0)
    # a process is named by what it hosts and where: its model on its GPU
    with pytest.raises(RuntimeError, match="fn-3 on n/cuda:0"):
        p.mark_ready(2.0)


def test_running_only_from_ready():
    p = make_proc()
    with pytest.raises(RuntimeError):
        p.mark_running()


def test_done_only_from_running():
    p = make_proc()
    p.mark_ready(1.0)
    with pytest.raises(RuntimeError):
        p.mark_done()


def test_kill_is_idempotent_and_preserves_first_time():
    p = make_proc()
    p.kill(now=4.0)
    p.kill(now=9.0)
    assert p.killed_at == 4.0


def test_served_requests_accumulate():
    p = make_proc()
    p.mark_ready(0.0)
    for _ in range(3):
        p.mark_running()
        p.mark_done()
    assert p.served_requests == 3
