"""Unit tests for the simulator's debug trace hook."""

from repro.sim import Simulator


def named_callback():
    pass


def test_hook_sees_every_fired_event():
    sim = Simulator()
    traced = []
    sim.set_trace(lambda t, name: traced.append((t, name)))
    sim.schedule(1.0, named_callback)
    sim.schedule(2.0, named_callback)
    sim.run()
    assert [t for t, _ in traced] == [1.0, 2.0]
    assert all("named_callback" in name for _, name in traced)


def test_hook_sees_step_events():
    sim = Simulator()
    traced = []
    sim.set_trace(lambda t, name: traced.append(t))
    sim.schedule(1.0, named_callback)
    sim.step()
    assert traced == [1.0]


def test_cancelled_events_not_traced():
    sim = Simulator()
    traced = []
    sim.set_trace(lambda t, name: traced.append(t))
    ev = sim.schedule(1.0, named_callback)
    ev.cancel()
    sim.run()
    assert traced == []


def test_disable_hook():
    sim = Simulator()
    traced = []
    sim.set_trace(lambda t, name: traced.append(t))
    sim.set_trace(None)
    sim.schedule(1.0, named_callback)
    sim.run()
    assert traced == []


def test_full_system_runs_with_tracing():
    """The whole runtime works under tracing (hook sees GPU manager events)."""
    from repro.cluster import ClusterSpec
    from repro.models import ModelInstance, get_profile
    from repro.core.request import InferenceRequest
    from repro.runtime import FaaSCluster, SystemConfig

    system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1)))
    names = []
    system.sim.set_trace(lambda t, name: names.append(name))
    r = InferenceRequest(
        "fn", ModelInstance("fn", get_profile("alexnet")), arrival_time=0.0, request_id=1
    )
    system.submit(r)
    system.run()
    assert any("GPUManager" in n for n in names)
