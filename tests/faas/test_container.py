"""Unit tests for container lifecycle and pools."""

import itertools

import pytest

from repro.faas import ContainerPool, ContainerState, FunctionSpec
from repro.faas.container import Container
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def spec():
    return FunctionSpec(name="fn", model_architecture="resnet50", min_replicas=1, max_replicas=4)


class TestContainer:
    def test_lifecycle(self, sim, spec):
        c = Container(sim, spec, "fn-1")
        assert c.state is ContainerState.STARTING
        c.become_ready()
        c.acquire()
        assert c.state is ContainerState.BUSY
        c.release()
        assert c.state is ContainerState.IDLE
        assert c.handled == 1
        c.stop()
        assert c.state is ContainerState.STOPPED

    def test_acquire_requires_idle(self, sim, spec):
        c = Container(sim, spec, "fn-1")
        with pytest.raises(RuntimeError):
            c.acquire()

    def test_release_requires_busy(self, sim, spec):
        c = Container(sim, spec, "fn-1")
        c.become_ready()
        with pytest.raises(RuntimeError):
            c.release()



class TestContainerPool:
    def test_build_then_scale(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1), cold_start_s=0.5, build_s=2.0)
        done = []
        pool.build(on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [2.0]
        pool.scale_to(2)
        assert pool.replica_count() == 2
        assert pool.idle_count() == 0  # still cold-starting
        sim.run()
        assert pool.idle_count() == 2

    def test_replicas_are_named_from_the_ids_given(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(7))
        pool.build()
        sim.run()
        pool.scale_to(2)
        assert [c.container_id for c in pool.containers] == ["fn-7", "fn-8"]

    def test_scale_before_build_rejected(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1))
        with pytest.raises(RuntimeError):
            pool.scale_to(1)

    def test_scale_respects_max_replicas(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1))
        pool.build()
        sim.run()
        pool.scale_to(100)
        assert pool.replica_count() == spec.max_replicas

    def test_scale_down_stops_idle_only(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1))
        pool.build()
        sim.run()
        pool.scale_to(3)
        sim.run()
        busy = pool.containers[0]
        busy.acquire()
        pool.scale_to(1)
        assert busy.state is ContainerState.BUSY  # never killed while busy
        assert pool.replica_count() >= 1

    def test_negative_scale_rejected(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1))
        pool.build()
        sim.run()
        with pytest.raises(ValueError):
            pool.scale_to(-1)

    def test_acquire_uses_warm_replica(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1))
        pool.build()
        sim.run()
        pool.scale_to(1)
        sim.run()
        got = []
        pool.acquire(got.append)
        assert len(got) == 1
        assert got[0].state is ContainerState.IDLE

    def test_acquire_cold_starts_when_empty(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1), cold_start_s=0.5, build_s=0.1)
        pool.build()
        sim.run()
        got = []
        pool.acquire(lambda c: got.append(sim.now))
        assert got == []  # not ready yet
        sim.run()
        assert got and got[0] >= 0.5

    def test_waiters_served_in_order(self, sim, spec):
        pool = ContainerPool(sim, spec, itertools.count(1), cold_start_s=0.5, build_s=0.1)
        pool.build()
        sim.run()
        order = []
        pool.acquire(lambda c: order.append("first"))
        pool.acquire(lambda c: order.append("second"))
        sim.run()
        assert order == ["first", "second"]
