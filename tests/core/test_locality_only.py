"""Behavioral tests for the pure-locality strawman policy (§I motivation)."""

from repro.cluster import ClusterSpec
from repro.core.policies import LocalityOnlyPolicy, make_scheduling_policy
from repro.core.tenancy import TenancyController, TenantQuota
from repro.experiments.replay import replay
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload


def build(gpus=2):
    return FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(1, gpus), policy="locality")
    )


def warm(system, instance, gpu):
    gpu.admit(instance.instance_id, instance.occupied_mb)
    system.cache.on_loaded(gpu, instance)


def test_factory_knows_locality():
    assert isinstance(make_scheduling_policy("locality"), LocalityOnlyPolicy)


def test_waits_for_busy_cached_gpu_even_when_idle_exists(make_request):
    """The defining (bad) behaviour: never miss when a copy exists."""
    system = build()
    gpu0, gpu1 = system.cluster.gpus
    inst = ModelInstance("fn-m", get_profile("resnet50"))
    warm(system, inst, gpu1)
    gpu1.begin_inference()
    gpu1.busy_until = 100.0  # wait >> load time
    r = make_request("fn-m", "resnet50", model=inst)
    system.submit(r)
    # LALB would miss on idle gpu0; locality-only queues behind gpu1
    assert r.gpu_id is None
    assert system.scheduler.local_queues.length(gpu1) == 1
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


def test_uncached_model_spreads_over_idle_gpus_within_one_pass(make_request):
    """Two queued requests of a model no GPU holds, two idle GPUs, one
    pass: the first takes the first idle GPU and the second, with the
    model still uploading (cached nowhere yet), the other one — the
    pass's per-model answer does not outlive the dispatch that used it."""
    system = build()
    gpu0, gpu1 = system.cluster.idle_gpus_by_frequency()
    inst = ModelInstance("cold", get_profile("resnet50"))
    first = make_request("cold", "resnet50", model=inst)
    second = make_request("cold", "resnet50", model=inst)
    scheduler = system.scheduler
    for r in (first, second):
        scheduler.global_queue.push(r)
    scheduler.on_gpu_idle(gpu0)
    dispatched = [(d.request_id, d.gpu_id) for d in scheduler.decisions]
    assert dispatched == [
        (first.request_id, gpu0.gpu_id),
        (second.request_id, gpu1.gpu_id),
    ]
    assert system.cache.locations("cold") == []  # both still uploading


def test_binding_quota_is_probed_once_per_model_between_decisions(monkeypatch):
    """Under a binding process cap the quota is asked at most once per
    (pass, decision, model, GPU): its answer reads only the model and
    state that only a dispatch changes.  Probing per queued request
    instead costs ~700 probes per request on this replay."""
    probes = []
    allows = TenancyController.allows

    def spy(self, request, gpu_id):
        probes.append(
            (scheduler.passes_executed, len(scheduler.decisions), request.model_id, gpu_id)
        )
        return allows(self, request, gpu_id)

    def prepare(system):
        nonlocal scheduler
        scheduler = system.scheduler

    scheduler = None
    monkeypatch.setattr(TenancyController, "allows", spy)
    workload = build_workload(WorkloadSpec(working_set=15, minutes=1, seed=0))
    config = SystemConfig(policy="locality", quotas={"default": TenantQuota(max_processes=6)})
    summary, system = replay(config, workload, prepare=prepare)
    assert summary.lost_requests == 0
    assert system.tenancy.processes("default") == 6  # the cap binds
    assert len(probes) == len(set(probes))
    assert len(probes) <= 200 * len(workload)
