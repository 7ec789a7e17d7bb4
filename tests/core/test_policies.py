"""Behavioral tests for the LB, LALB, and LALBO3 scheduling policies.

These run small hand-crafted scenarios through the full runtime and assert
the dispatch decisions the paper's Algorithms 1 and 2 prescribe.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core.policies import (
    SCHEDULING_POLICY_NAMES,
    LALBPolicy,
    LoadBalancingPolicy,
    make_scheduling_policy,
)
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig


def build(policy, gpus=2, o3_limit=25):
    return FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(1, gpus), policy=policy, o3_limit=o3_limit)
    )


def warm(system, instance, gpu):
    """Pre-load a model instance onto a GPU (bypassing a request)."""
    gpu.admit(instance.instance_id, instance.occupied_mb)
    system.cache.on_loaded(gpu.gpu_id, instance)


class TestFactory:
    def test_names(self):
        assert make_scheduling_policy("lb").name == "lb"
        assert make_scheduling_policy("lalb").name == "lalb"
        assert make_scheduling_policy("lalbo3").name == "lalbo3"

    def test_lalb_is_limit_zero(self):
        p = make_scheduling_policy("lalb")
        assert isinstance(p, LALBPolicy) and p.limit == 0

    def test_lalbo3_limit_configurable(self):
        p = make_scheduling_policy("lalbo3", o3_limit=45)
        assert p.limit == 45

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_scheduling_policy("fifo")

    @pytest.mark.parametrize("name", SCHEDULING_POLICY_NAMES)
    def test_one_names_table(self, name):
        """The factory and ``SystemConfig`` read the same table."""
        assert make_scheduling_policy(name).name == name
        assert SystemConfig(policy=name).policy == name

    @pytest.mark.parametrize("name", ["LALB", "Lb", "lalbo3 "])
    def test_names_match_exactly(self, name):
        with pytest.raises(KeyError, match="known: lb, locality, lalb, lalbo3"):
            make_scheduling_policy(name)
        with pytest.raises(ValueError, match="known: lb, locality, lalb, lalbo3"):
            SystemConfig(policy=name)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            LALBPolicy(limit=-1)


class TestLoadBalancing:
    def test_head_of_queue_dispatched_regardless_of_locality(self, make_request):
        system = build("lb")
        gpu0, gpu1 = system.cluster.gpus
        inst_b = ModelInstance("fn-b", get_profile("alexnet"))
        warm(system, inst_b, gpu1)  # fn-b cached on gpu1
        # head request is fn-a; LB sends it to the first idle GPU (gpu0),
        # and fn-b goes to gpu1 (its cached GPU, but only by accident)
        ra = make_request("fn-a", "resnet50")
        rb = make_request("fn-b", "alexnet", model=inst_b)
        system.submit(ra)
        system.submit(rb)
        system.run()
        assert ra.gpu_id == gpu0.gpu_id
        assert ra.cache_hit is False

    def test_lb_creates_false_misses(self, make_request):
        system = build("lb")
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        warm(system, inst, gpu1)
        gpu1.begin_inference()  # cached GPU busy
        r = make_request("fn-m", "resnet50", model=inst)
        system.submit(r)
        system.run(until=10.0)
        # LB dispatched to idle gpu0 although gpu1 held the model
        assert r.gpu_id == gpu0.gpu_id
        assert r.cache_hit is False
        assert r.false_miss is True


class TestLALBLocality:
    def test_hit_on_idle_gpu_preferred(self, make_request):
        system = build("lalb")
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        warm(system, inst, gpu1)
        r = make_request("fn-m", "resnet50", model=inst)
        system.submit(r)
        system.run()
        assert r.gpu_id == gpu1.gpu_id
        assert r.cache_hit is True

    def test_short_wait_on_busy_cached_gpu_wins(self, make_request):
        """Alg. 2 lines 8–15: queue behind the cached copy when wait < load."""
        system = build("lalb")
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        # a hit in flight on gpu1 keeps it busy only 1.28 s < 2.67 s load
        r0 = make_request("fn-m0", "resnet50", model=inst)
        warm(system, inst, gpu1)
        gpu0.begin_inference()  # park gpu0 so r0 lands on gpu1
        system.submit(r0)
        gpu0.become_idle()
        r = make_request("fn-m", "resnet50", arrival=system.sim.now, model=inst)
        system.submit(r)
        # r should be in gpu1's local queue, not dispatched to gpu0
        assert system.scheduler.local_queues.length(gpu1.gpu_id) == 1
        system.run()
        assert r.gpu_id == gpu1.gpu_id
        assert r.cache_hit is True

    def test_long_wait_allows_cache_miss_on_idle(self, make_request):
        """Alg. 2 lines 16–18: miss on the idle GPU when waiting costs more."""
        system = build("lalb")
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        warm(system, inst, gpu1)
        gpu1.begin_inference()
        # make the estimated wait enormous
        system.estimator.set_busy_until(gpu1.gpu_id, 100.0)
        r = make_request("fn-m", "resnet50", model=inst)
        system.submit(r)
        assert r.gpu_id == gpu0.gpu_id  # dispatched immediately as a miss
        assert r.false_miss is True
        system.estimator.clear_busy(gpu1.gpu_id)
        gpu1.become_idle()
        system.run()
        assert r.cache_hit is False

    def test_uncached_model_goes_to_idle_gpu(self, make_request):
        system = build("lalb")
        r = make_request("fn-new", "vgg19")
        system.submit(r)
        system.run()
        assert r.cache_hit is False
        assert r.false_miss is False

    def test_local_queue_served_before_global(self, make_request):
        system = build("lalb", gpus=1)
        gpu0 = system.cluster.gpus[0]
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        r0 = make_request("fn-m0", "resnet50", model=inst)
        system.submit(r0)  # cold miss occupies gpu0 (load+infer)
        # while busy, a same-model request and a different-model request arrive
        r1 = make_request("fn-m1", "resnet50", arrival=0.0, model=inst)
        r2 = make_request("fn-other", "alexnet", arrival=0.0)
        system.submit(r2)  # arrives first in the global queue
        system.submit(r1)
        system.run(until=2.0)  # gpu0 still loading (2.67 s)
        system.run()
        # r1 was moved to gpu0's local queue (hit beats load) and must run
        # before the earlier-arrived r2 from the global queue
        assert r1.cache_hit is True
        assert r1.exec_start_at < r2.exec_start_at


class TestOutOfOrderDispatch:
    def _two_gpu_hot_cold(self, make_request, policy, o3_limit=25):
        """gpu1 caches 'hot'; queue = [cold1, hot]; gpu0 busy, gpu1 idle.

        O3 should promote `hot` to gpu1 ahead of cold1 when the limit
        allows skipping.
        """
        system = build(policy, gpus=2, o3_limit=o3_limit)
        gpu0, gpu1 = system.cluster.gpus
        hot_inst = ModelInstance("hot", get_profile("resnet50"))
        warm(system, hot_inst, gpu1)
        gpu0.begin_inference()  # keep gpu0 out of the picture
        system.estimator.set_busy_until(gpu0.gpu_id, 1000.0)
        cold = make_request("cold-1", "vgg19")
        hot = make_request("hot", "resnet50", model=hot_inst)
        return system, gpu1, cold, hot

    def test_o3_promotes_cached_request(self, make_request):
        system, gpu1, cold, hot = self._two_gpu_hot_cold(make_request, "lalbo3")
        system.submit(cold)
        # cold is dispatched to idle gpu1 (miss: nothing else available)...
        # actually with LALBO3 the scan sees no cached request yet; submit
        # both before running the clock to exercise the promotion.
        system2, gpu1b, cold2, hot2 = self._two_gpu_hot_cold(make_request, "lalbo3")
        system2.scheduler.global_queue.push(cold2)
        system2.scheduler.global_queue.push(hot2)
        system2.scheduler.on_gpu_idle(gpu1b)
        assert hot2.gpu_id == gpu1b.gpu_id  # promoted past cold2
        assert hot2.cache_hit is True
        assert cold2.gpu_id is None  # still waiting (gpu0 parked busy)
        assert system2.scheduler.global_queue.visits(cold2) == 1

    def test_starvation_limit_forces_dispatch(self, make_request):
        """Once visits exceed the limit the cold request must be served."""
        system, gpu1, cold, hot = self._two_gpu_hot_cold(
            make_request, "lalbo3", o3_limit=2
        )
        hot_inst = hot.model
        q = system.scheduler.global_queue

        def push_hot(i):
            r = make_request(f"hot-{i}", "resnet50", arrival=system.sim.now, model=hot_inst)
            q.push(r)
            return r

        q.push(cold)
        hots = [push_hot(0)]
        # Keep a cached (hot) request behind cold at every idle moment, so
        # cold only ever gets served through the starvation guard.
        system.scheduler.on_gpu_idle(gpu1)  # dispatches hot-0, skips cold
        for i in range(1, 4):
            hots.append(push_hot(i))
            system.run()  # completing hot-{i-1} triggers the next pass
            if cold.gpu_id is not None:
                break
        assert cold.visits == 3  # skipped until visits exceeded the limit of 2
        assert cold.gpu_id == gpu1.gpu_id  # forced through Algorithm 2
        assert cold.cache_hit is False
        # the promotion that caused the skips really happened out of order
        assert hots[0].exec_start_at < cold.exec_start_at

    def test_lalb_limit_zero_forces_after_single_skip(self, make_request):
        system, gpu1, cold, hot = self._two_gpu_hot_cold(
            make_request, "lalb", o3_limit=0
        )
        q = system.scheduler.global_queue
        q.push(cold)
        q.push(hot)
        system.scheduler.on_gpu_idle(gpu1)
        # limit 0: cold skipped once (visits=1), hot promoted
        assert hot.gpu_id == gpu1.gpu_id
        assert q.visits(cold) == 1
        system.run()
        # next opportunity: visits(1) > 0 → forced through Alg. 2
        system.scheduler.on_gpu_idle(gpu1)
        assert cold.gpu_id == gpu1.gpu_id


class TestIdleGPUOrdering:
    def test_sorted_by_completed_requests(self, make_request):
        system = build("lalb", gpus=3)
        g0, g1, g2 = system.cluster.gpus
        g1.completed_requests = 5
        g2.completed_requests = 2
        order = [g.gpu_id for g in system.scheduler.idle_gpus_by_frequency()]
        assert order == [g1.gpu_id, g2.gpu_id, g0.gpu_id]

    def test_tie_broken_by_gpu_id(self, make_request):
        system = build("lalb", gpus=3)
        order = [g.gpu_id for g in system.scheduler.idle_gpus_by_frequency()]
        assert order == sorted(order)


class TestSchedulerGuards:
    def test_move_to_local_on_idle_gpu_rejected(self, make_request):
        system = build("lalb")
        r = make_request()
        system.scheduler.global_queue.push(r)
        with pytest.raises(RuntimeError):
            system.scheduler.move_to_local(r, system.cluster.gpus[0])

    def test_lb_policy_never_uses_local_queues(self, make_request):
        system = build("lb", gpus=2)
        for i in range(6):
            system.submit(make_request(f"fn-{i}", "resnet50"))
        system.run()
        assert system.scheduler.local_queues.total() == 0

    def test_no_dispatch_without_idle_gpu(self, make_request):
        system = build("lb", gpus=1)
        gpu = system.cluster.gpus[0]
        gpu.begin_inference()
        r = make_request()
        system.submit(r)
        assert r.gpu_id is None
        assert len(system.scheduler.global_queue) == 1
