"""Behavioral tests for the pure-locality strawman policy (§I motivation)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core.policies import LocalityOnlyPolicy, make_scheduling_policy
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig


def build(gpus=2):
    return FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(1, gpus), policy="locality")
    )


def warm(system, instance, gpu):
    gpu.admit(instance.instance_id, instance.occupied_mb)
    system.cache.on_loaded(gpu.gpu_id, instance)


def test_factory_knows_locality():
    assert isinstance(make_scheduling_policy("locality"), LocalityOnlyPolicy)


def test_waits_for_busy_cached_gpu_even_when_idle_exists(make_request):
    """The defining (bad) behaviour: never miss when a copy exists."""
    system = build()
    gpu0, gpu1 = system.cluster.gpus
    inst = ModelInstance("fn-m", get_profile("resnet50"))
    warm(system, inst, gpu1)
    gpu1.begin_inference()
    system.estimator.set_busy_until(gpu1.gpu_id, 100.0)  # wait >> load time
    r = make_request("fn-m", "resnet50", model=inst)
    system.submit(r)
    # LALB would miss on idle gpu0; locality-only queues behind gpu1
    assert r.gpu_id is None
    assert system.scheduler.local_queues.length(gpu1.gpu_id) == 1
    assert gpu0.is_idle


def test_uncached_requests_use_idle_gpus(make_request):
    system = build()
    r = make_request("fn-new", "vgg19")
    system.submit(r)
    system.run()
    assert r.completed_at is not None
    assert r.cache_hit is False
    assert r.false_miss is False


def test_cached_idle_gpu_dispatch(make_request):
    system = build()
    gpu0, gpu1 = system.cluster.gpus
    inst = ModelInstance("fn-m", get_profile("alexnet"))
    warm(system, inst, gpu1)
    r = make_request("fn-m", "alexnet", model=inst)
    system.submit(r)
    system.run()
    assert r.gpu_id == gpu1.gpu_id
    assert r.cache_hit is True


def test_no_false_misses_by_construction(make_request):
    """Pure locality never re-uploads a model that is cached somewhere.

    Requests are staggered (one at a time) — simultaneous cold arrivals of
    an uncached model can still fan out, which is not a false miss.
    """
    system = build(gpus=3)
    inst = ModelInstance("hot", get_profile("resnet50"))
    reqs = []
    for i in range(6):
        r = make_request(f"hot-{i}", "resnet50", arrival=system.sim.now, model=inst)
        reqs.append(r)
        system.submit(r)
        system.run()
    assert all(r.completed_at is not None for r in reqs)
    assert not any(r.false_miss for r in reqs)
    # a single copy served everything sequentially
    assert system.cache.duplicates("hot") == 1
    assert sum(1 for r in reqs if r.cache_hit) == 5  # all but the cold start
