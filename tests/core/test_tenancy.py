"""Unit tests for multi-tenant isolation (§VI)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core.tenancy import TenancyController, TenantQuota
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig
from repro.sim import Simulator


class TestQuotaValidation:
    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(max_processes=-1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            TenantQuota(max_memory_fraction=1.5)
        with pytest.raises(ValueError):
            TenantQuota(max_time_fraction=-0.1)

    def test_none_disables_dimension(self):
        q = TenantQuota()
        assert q.max_processes is None


class TestController:
    def make_controller(self, quotas):
        sim = Simulator()
        return sim, TenancyController(
            sim, quotas=quotas, total_memory_mb=10000.0, num_gpus=2
        )

    def test_unknown_tenant_always_allowed(self, make_request):
        sim, tc = self.make_controller({})
        assert tc.allows(make_request(tenant="anyone"))

    def test_process_limit_blocks(self, make_request):
        sim, tc = self.make_controller({"acme": TenantQuota(max_processes=1)})
        inst = ModelInstance("fn-1", get_profile("alexnet"), tenant="acme")
        tc.register_instance(inst)
        r = make_request("fn-1", "alexnet", tenant="acme")
        assert tc.allows(r)
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        assert not tc.allows(r)
        tc.on_cache_event("evict", "g0", "fn-1", 1.0)
        assert tc.allows(r)

    def test_memory_share_blocks(self, make_request):
        sim, tc = self.make_controller(
            {"acme": TenantQuota(max_memory_fraction=0.2)}  # 2000 MB of 10000
        )
        inst = ModelInstance("fn-1", get_profile("alexnet"), tenant="acme")  # 1437 MB
        tc.register_instance(inst)
        r = make_request("fn-1", "alexnet", tenant="acme")
        assert tc.allows(r)  # 1437 < 2000
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        # second copy would be 2874 > 2000
        assert not tc.allows(r)

    def test_time_share_blocks(self, make_request):
        sim, tc = self.make_controller({"acme": TenantQuota(max_time_fraction=0.25)})
        r = make_request("fn-1", "alexnet", tenant="acme", arrival=0.0)
        r.dispatched_at = 0.0
        r.completed_at = 6.0  # 6s of 2 GPUs * 10s = 30% > 25%
        sim.schedule(10.0, lambda: None)
        sim.run()
        tc.on_request_complete(r)
        assert not tc.allows(make_request("fn-2", "alexnet", tenant="acme", arrival=10.0))

    def test_usage_introspection(self, make_request):
        sim, tc = self.make_controller({})
        inst = ModelInstance("fn-1", get_profile("alexnet"), tenant="t")
        tc.register_instance(inst)
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        u = tc.usage("t")
        assert u["processes"] == 1
        assert u["memory_mb"] == pytest.approx(1437)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TenancyController(Simulator(), total_memory_mb=0, num_gpus=1)


class TestEndToEndIsolation:
    def test_over_quota_tenant_waits_while_others_proceed(self, make_request):
        """A tenant at its process limit is bypassed until eviction frees it.

        Single GPU (7800 MB): greedy-1 (resnet50, 1701) loads; greedy-2 is
        blocked by the 1-process quota, so polite's requests overtake it.
        polite-2 (vgg16, 3907) forces the eviction of greedy-1 (the LRU
        victim), after which greedy-2 finally runs.
        """
        config = SystemConfig(
            cluster=ClusterSpec.homogeneous(1, 1),
            policy="lb",
            quotas={"greedy": TenantQuota(max_processes=1)},
        )
        system = FaaSCluster(config)
        g1 = ModelInstance("greedy-1", get_profile("resnet50"), tenant="greedy")
        g2 = ModelInstance("greedy-2", get_profile("alexnet"), tenant="greedy")
        p1 = ModelInstance("polite-1", get_profile("vgg19"), tenant="polite")
        p2 = ModelInstance("polite-2", get_profile("vgg16"), tenant="polite")
        for inst in (g1, g2, p1, p2):
            system.register_model(inst)

        def req(inst):
            r = make_request(inst.instance_id, inst.architecture, tenant=inst.tenant, model=inst)
            return r

        r1, r2, r3, r4 = req(g1), req(g2), req(p1), req(p2)
        for r in (r1, r2, r3, r4):
            system.submit(r)
        system.run()
        assert all(r.completed_at is not None for r in (r1, r2, r3, r4))
        # polite's requests both overtook the quota-blocked greedy-2
        assert r3.exec_start_at < r2.exec_start_at
        assert r4.exec_start_at < r2.exec_start_at
        # and greedy-2 only ran after greedy-1 was evicted
        assert not system.cache.cached_anywhere(g1.instance_id)


class TestNoBusyLoop:
    def test_blocked_requests_do_not_spin_the_scheduler(self, make_request):
        """With only quota-blocked requests queued and idle GPUs available,
        the policy must report no progress (bounded event count) instead of
        spinning forever."""
        config = SystemConfig(
            cluster=ClusterSpec.homogeneous(1, 2),
            policy="lalbo3",
            quotas={"t": TenantQuota(max_processes=0)},  # tenant can never load
        )
        system = FaaSCluster(config)
        inst = ModelInstance("fn-t", get_profile("alexnet"), tenant="t")
        system.register_model(inst)
        for i in range(3):
            r = make_request(f"fn-t{i}", "alexnet", tenant="t", model=inst)
            system.submit(r)
        system.sim.run(max_events=10_000)  # raises SimError if it spins
        assert len(system.scheduler.global_queue) == 3
        assert all(g.is_idle for g in system.cluster.gpus)
