"""Unit tests for multi-tenant isolation (§VI)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest
from repro.core.tenancy import TenancyController, TenantQuota
from repro.experiments.replay import replay
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import build_workload, spec_for_requests


class _Cache:
    """The two CacheManager reads the controller makes: residency and a
    GPU's replacement order (coldest first).  The controller hands the
    GPU it is asked about straight through, so these tests name GPUs by
    strings ("g0") both as that handle and as the cache events' gpu_id."""

    def __init__(self, **lru):
        self.lru = lru  # GPU -> [model_id, ...]

    def is_cached_on(self, model_id, gpu):
        return model_id in self.lru.get(gpu, ())

    def lru_list(self, gpu):
        return self.lru.get(gpu, [])


class TestQuotaValidation:
    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota(max_processes=-1)

    def test_none_disables_dimension(self):
        q = TenantQuota()
        assert q.max_processes is None


class TestController:
    @staticmethod
    def make_controller(quotas, cache=None):
        tc = TenancyController(quotas=quotas, cache=cache or _Cache())
        for i in (1, 2, 3):
            tc.register_instance(ModelInstance(f"fn-{i}", get_profile("alexnet"), tenant="acme"))
        tc.register_instance(ModelInstance("other", get_profile("alexnet"), tenant="polite"))
        return tc

    @staticmethod
    def request(make_request, model_id):
        return make_request(model_id, "alexnet", tenant="acme")

    def test_unknown_tenant_always_allowed(self, make_request):
        tc = self.make_controller({})
        assert tc.allows(make_request(tenant="anyone"), "g0")

    def test_process_limit_blocks(self, make_request):
        """At the cap, a miss on a GPU where the tenant holds no process
        waits for the count to drop."""
        cache = _Cache(g0=["fn-1"])
        tc = self.make_controller({"acme": TenantQuota(max_processes=1)}, cache)
        r = self.request(make_request, "fn-2")
        assert tc.allows(r, "g1")
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        assert not tc.allows(r, "g1")
        tc.on_cache_event("evict", "g0", "fn-1", 1.0)
        assert tc.allows(r, "g1")

    def test_a_capped_tenant_replaces_its_own_coldest_process(self, make_request):
        """At the cap, a miss on a GPU holding the tenant's models is
        admitted, and replaces the coldest of them (another tenant's
        colder model is not a candidate)."""
        cache = _Cache(g0=["other", "fn-2", "fn-1"])
        tc = self.make_controller({"acme": TenantQuota(max_processes=2)}, cache)
        for model_id in ("fn-1", "fn-2"):
            tc.on_cache_event("load", "g0", model_id, 0.0)
        r = self.request(make_request, "fn-3")
        assert tc.allows(r, "g0") and not tc.allows(r, "g1")
        assert tc.victim_for(r, "g0") == "fn-2"
        assert tc.victim_for(r, "g1") is None

    def test_below_the_cap_nothing_is_replaced(self, make_request):
        cache = _Cache(g0=["fn-1"])
        tc = self.make_controller({"acme": TenantQuota(max_processes=2)}, cache)
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        assert tc.victim_for(self.request(make_request, "fn-2"), "g0") is None

    def test_a_tenant_over_its_cap_is_refused(self, make_request):
        """Replacing one process keeps the count where it is, so a tenant
        above its cap is refused even where it holds a model."""
        cache = _Cache(g0=["fn-1", "fn-2"])
        tc = self.make_controller({"acme": TenantQuota(max_processes=1)}, cache)
        for model_id in ("fn-1", "fn-2"):
            tc.on_cache_event("load", "g0", model_id, 0.0)
        assert not tc.allows(self.request(make_request, "fn-3"), "g0")

    def test_a_hit_is_always_admitted(self, make_request):
        cache = _Cache(g0=["fn-1"])
        tc = self.make_controller({"acme": TenantQuota(max_processes=0)}, cache)
        assert tc.allows(self.request(make_request, "fn-1"), "g0")
        assert not tc.allows(self.request(make_request, "fn-1"), "g1")

    def test_process_count_introspection(self):
        tc = self.make_controller({})
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        assert tc.processes("acme") == 1
        assert tc.processes("polite") == 0


class TestEndToEndIsolation:
    def test_capped_tenant_replaces_its_own_process(self, make_request):
        """A tenant at its process cap waits only where it holds no
        process, then replaces its own.

        Two GPUs: greedy-1 loads on the first and puts ``greedy`` at its
        1-process cap.  greedy-2 may not start a second process on the
        idle second GPU, so polite-1 overtakes it there; once the first
        GPU turns idle, greedy-2 replaces greedy-1 on it (both fit in its
        memory: no memory victim is involved).
        """
        config = SystemConfig(
            cluster=ClusterSpec.homogeneous(1, 2),
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
            return make_request(inst.instance_id, inst.architecture, model=inst)

        r1, r2, r3, r4 = req(g1), req(g2), req(p1), req(p2)
        for r in (r1, r2, r3, r4):
            system.submit(r)
        system.run()
        assert all(r.completed_at is not None for r in (r1, r2, r3, r4))
        # polite-1 overtook greedy-2, which held no process on its GPU
        assert r3.exec_start_at < r2.exec_start_at
        assert r3.gpu_id != r1.gpu_id
        # greedy-2 then replaced greedy-1 on greedy-1's GPU
        assert r2.gpu_id == r1.gpu_id
        assert not system.cache.cached_anywhere(g1.instance_id)
        assert system.tenancy.processes("greedy") == 1


class TestOneTenantPerRequest:
    def test_the_models_tenant_is_checked_and_charged(self):
        """A request's quota is its model's tenant's.  Two ``acme`` models
        under a 1-process cap on two GPUs: the second may not load on the
        other, idle GPU, and runs once it can replace the first."""
        system = FaaSCluster(
            SystemConfig(
                cluster=ClusterSpec.homogeneous(1, 2),
                policy="lb",
                quotas={"acme": TenantQuota(max_processes=1)},
            )
        )
        models = [
            ModelInstance(f"acme-{i}", get_profile("alexnet"), tenant="acme") for i in (1, 2)
        ]
        requests = []
        for rid, model in enumerate(models, 1):
            system.register_model(model)
            requests.append(InferenceRequest(model.instance_id, model, 0.0, rid))
            system.submit(requests[-1])
        system.run()
        first, second = requests
        assert first.completed_at is not None and second.completed_at is not None
        assert second.gpu_id == first.gpu_id
        assert second.exec_start_at > first.completed_at
        assert system.tenancy.processes("acme") == 1
        assert system.tenancy.processes("default") == 0


class TestMayRefuse:
    """``may_refuse`` is derived: some tenant sits at its process cap."""

    @staticmethod
    def make_controller(quotas):
        return TenancyController(quotas=quotas, cache=_Cache())

    @pytest.mark.parametrize(
        "quota, expected",
        [
            (TenantQuota(max_processes=1000), False),
            (TenantQuota(max_processes=0), True),  # starts at its cap
            (TenantQuota(), False),
        ],
    )
    def test_initial_state(self, quota, expected):
        assert self.make_controller({"acme": quota}).may_refuse is expected
        assert self.make_controller({}).may_refuse is False

    def test_follows_the_process_count(self):
        tc = self.make_controller({"acme": TenantQuota(max_processes=1)})
        tc.register_instance(ModelInstance("fn-1", get_profile("alexnet"), tenant="acme"))
        assert not tc.may_refuse
        tc.on_cache_event("load", "g0", "fn-1", 0.0)
        assert tc.may_refuse
        tc.on_cache_event("evict", "g0", "fn-1", 1.0)
        assert not tc.may_refuse


class TestReplayQuotas:
    """A quota binds on ``replay()``, whose models reach the runtime only
    through their requests (no ``register_model`` call)."""

    @staticmethod
    def _replay(workload, quotas=None):
        """Decision log plus the peak number of resident model processes."""
        resident = [0, 0]  # now, peak

        def count(kind, gpu_id, model_id, now):
            if kind in ("load", "evict"):
                resident[0] += 1 if kind == "load" else -1
                resident[1] = max(resident)

        _, system = replay(
            SystemConfig(quotas=quotas),
            workload,
            prepare=lambda system: system.cache.subscribe(count),
        )
        log = [(d.time_s, d.kind, d.model_id, d.gpu_id) for d in system.scheduler.decisions]
        return log, resident[1], system

    @pytest.mark.parametrize("max_processes", [3, 6])
    def test_process_quota_binds_on_replay(self, max_processes):
        workload = build_workload(spec_for_requests(300))
        free_log, free_peak, _ = self._replay(workload)
        assert max_processes < free_peak
        log, peak, system = self._replay(
            workload, {"default": TenantQuota(max_processes=max_processes)}
        )
        # 6 also covers one model loading on two GPUs at once: each load
        # holds its own reservation until its "load" event
        assert peak <= max_processes
        assert 0 < system.tenancy.processes("default") <= max_processes
        assert log != free_log


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
