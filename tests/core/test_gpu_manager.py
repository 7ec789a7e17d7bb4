"""Unit tests for GPU Managers: execution, caching transitions, reporting."""

import pytest

from repro.cluster import ClusterSpec, GPUState
from repro.core.gpu_manager import LatencyRecord
from repro.core.request import RequestState
from repro.runtime import FaaSCluster, SystemConfig


@pytest.fixture
def system():
    """A 1-node, 2-GPU system with the LB policy (simplest dispatch path)."""
    return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lb"))


def submit(system, req):
    system.submit(req)
    return req


class TestMissPath:
    def test_first_request_is_a_cold_miss(self, system, make_request):
        r = submit(system, make_request("fn-1", "resnet50"))
        system.run()
        assert r.state is RequestState.COMPLETED
        assert r.cache_hit is False
        assert r.false_miss is False  # nothing cached anywhere yet
        # latency = load (2.67) + inference (1.28) from Table I
        assert r.latency == pytest.approx(2.67 + 1.28)

    def test_model_resident_after_completion(self, system, make_request):
        r = submit(system, make_request("fn-1", "resnet50"))
        system.run()
        gpu = system.cluster.gpu(r.gpu_id)
        assert system.cache.is_cached_on(r.model_id, gpu)
        assert gpu.has_model(r.model_id)
        assert gpu.used_mb == pytest.approx(1701)

    def test_gpu_address_shipped_with_dispatch(self, system, make_request):
        r = submit(system, make_request())
        system.run()
        ip, device = r.gpu_address
        assert device.startswith("cuda:")
        assert ip == system.cluster.nodes[0].ip


class TestHitPath:
    def test_second_request_same_model_is_a_hit(self, system, make_request):
        inst_req = make_request("fn-1", "resnet50")
        submit(system, inst_req)
        system.run()
        # same *instance* → same cache item
        r2 = make_request("fn-1", "resnet50", arrival=system.sim.now, model=inst_req.model)
        submit(system, r2)
        system.run()
        assert r2.cache_hit is True
        assert r2.latency == pytest.approx(1.28)  # inference only

    def test_hit_touches_lru(self, system, make_request):
        a = make_request("fn-a", "resnet50")
        submit(system, a)
        system.run()
        gpu = system.cluster.gpu(a.gpu_id)
        b = make_request("fn-b", "alexnet")
        # force b onto the same GPU by making the other GPU busy via a dummy
        system.cluster.gpus[1].begin_inference()
        submit(system, b)
        system.run(until=system.sim.now + 10)
        system.cluster.gpus[1].become_idle()
        assert system.cache.lru_list(gpu) == [a.model_id, b.model_id]
        # reuse a → it becomes hottest
        r = make_request("fn-a", "resnet50", model=a.model)
        system.cluster.gpus[1].begin_inference()
        submit(system, r)
        system.run(until=system.sim.now + 10)
        assert system.cache.lru_list(gpu) == [b.model_id, a.model_id]


class TestEvictionPath:
    def test_eviction_when_memory_full(self, system, make_request):
        """Fill one GPU past capacity and verify LRU victims are killed."""
        gpu0, gpu1 = system.cluster.gpus
        gpu1.begin_inference()  # park gpu1 so everything lands on gpu0
        # 7800 MB: vgg19 (3947) + vgg16 (3907) > 7800 → second load evicts first
        a = submit(system, make_request("fn-a", "vgg19"))
        system.run(until=system.sim.now + 10)
        b = submit(system, make_request("fn-b", "vgg16"))
        system.run(until=system.sim.now + 10)
        assert not gpu0.has_model(a.model_id)  # evicted
        assert gpu0.has_model(b.model_id)
        assert not system.cache.cached_anywhere(a.model_id)

    def test_evicted_process_is_killed(self, system, make_request):
        """Killing the victim's process releases all of its memory: only
        the new model's occupation is left on the device."""
        gpu0, gpu1 = system.cluster.gpus
        gpu1.begin_inference()
        a = submit(system, make_request("fn-a", "vgg19"))
        system.run(until=system.sim.now + 10)
        assert gpu0.used_mb == a.model.occupied_mb
        b = submit(system, make_request("fn-b", "vgg16"))
        system.run(until=system.sim.now + 10)
        assert gpu0.resident_models() == [b.model_id]
        assert gpu0.used_mb == b.model.occupied_mb


class TestStateAndReporting:
    def test_gpu_states_during_miss(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        gpu1.begin_inference()
        submit(system, make_request("fn-a", "resnet50"))
        # during load (first 2.67s) the GPU is LOADING
        system.run(until=1.0)
        assert gpu0.state is GPUState.LOADING
        system.run(until=3.0)  # load done at 2.67 → inferring
        assert gpu0.state is GPUState.INFERRING
        system.run(until=4.0)  # done at 3.95
        assert gpu0.state is GPUState.IDLE

    def test_status_mirrored_to_datastore(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        gpu1.begin_inference()
        submit(system, make_request())
        kv = system.datastore.kv
        assert kv.get_value(f"gpu/status/{gpu0.gpu_id}") == "busy"
        system.run()
        assert kv.get_value(f"gpu/status/{gpu0.gpu_id}") == "idle"

    def test_latency_record_written(self, system, make_request):
        first = submit(system, make_request("fn-z", "alexnet"))
        system.run()
        kv = system.datastore.kv
        value = kv.get_value("fn/latency/fn-z")
        assert type(value) is tuple  # stored bare (GC-untracked); named on read
        rec = LatencyRecord(*value)
        assert rec.function == "fn-z"
        assert rec.cache_hit is False
        assert rec.latency_s == pytest.approx(2.81 + 1.25)
        # a second completion of the function overwrites its one record
        second = make_request("fn-z", arrival=system.sim.now, model=first.model)
        submit(system, second)
        system.run()
        assert [k for k in kv.keys() if k.startswith("fn/latency/")] == ["fn/latency/fn-z"]
        rec = LatencyRecord(*kv.get_value("fn/latency/fn-z"))
        assert rec.cache_hit is True
        assert rec.latency_s == second.latency == pytest.approx(1.25)

    def test_busy_until_maintained(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        gpu1.begin_inference()
        submit(system, make_request("fn-a", "resnet50"))
        assert gpu0.busy_until == pytest.approx(3.95)
        assert system.estimator.busy_until(gpu0) == pytest.approx(3.95)
        system.run()
        # a finished request's time is in the past: it reads as now
        assert system.estimator.busy_until(gpu0) == system.sim.now

    def test_execute_on_busy_gpu_rejected(self, system, make_request):
        gpu0 = system.cluster.gpus[0]
        gpu0.begin_inference()
        mgr = system.gpu_managers()["node0"]
        with pytest.raises(RuntimeError):
            mgr.execute(make_request(), gpu0)

    def test_execute_on_foreign_node_rejected(self, make_request):
        sys2 = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(2, 1), policy="lb"))
        mgr0 = sys2.gpu_managers()["node0"]
        foreign_gpu = sys2.cluster.nodes[1].gpus[0]
        with pytest.raises(ValueError):
            mgr0.execute(make_request(), foreign_gpu)

    def test_completed_requests_counter_feeds_frequency(self, system, make_request):
        r = submit(system, make_request())
        system.run()
        assert system.cluster.gpu(r.gpu_id).completed_requests == 1
