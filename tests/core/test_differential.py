"""One differential suite: the production system vs its executable spec.

The runtime has one configuration — guard-driven pass elision,
index-driven scans, one batched transaction per action, history-free hot
keys — and no switch that selects another.  Each of those four layers
still has a literal counterpart that production code *observes* rather
than a user sets, so the reference system is assembled here, in the test,
from those counterparts:

=========  ==========================================================
axis       literal arm
=========  ==========================================================
passes     the base ``PassGuard()`` (the engine's historical run/stop
           conditions) with the mid-pass probe unbound
scans      ``_admission_is_trivial`` answers False, so every per-GPU
           scan takes the Algorithm-1/2 transcription — the route
           production takes whenever a tenant quota binds
writes     a write-through ``Datastore(batched=False)``: one revision
           per put
history    ``EPHEMERAL_HOT_PREFIXES = ()``: full MVCC for every key
=========  ==========================================================

Production is compared against the all-literal system on decisions **and**
normalized final KV state; the four single-axis arms run too, so a failure
names the layer.  Decisions are compared field for field (timestamps,
kinds, targets, O3 ``visits``).  Request IDs come from a process-global
counter, so both are compared after mapping IDs onto submission indices.
"""

import random
from collections import namedtuple
from contextlib import contextmanager

import pytest

import repro.core.policies as policies_module
import repro.runtime.system as system_module
from repro.chaos import FaultPlan
from repro.chaos.plan import GPUCrash, Straggler
from repro.cluster import PAPER_TESTBED, ClusterSpec
from repro.core.policies import SchedulingPolicy, make_scheduling_policy
from repro.core.request import InferenceRequest
from repro.core.signals import DispatchableWorkGuard, PassGuard
from repro.core.tenancy import TenantQuota
from repro.datastore import EPHEMERAL_HOT_PREFIXES, Datastore, EphemeralKeyError
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload

SEED = 20230517  # arbitrary but frozen: parity must hold for any seed
N_FUNCTIONS = 30
POLICIES = ["lb", "lalb", "lalbo3", "locality"]
AXES = ("passes", "scans", "writes", "history")
ALL_LITERAL = frozenset(AXES)
#: the five reference arms (not 2⁴): each layer alone, then all together
ARMS = [frozenset({axis}) for axis in AXES] + [ALL_LITERAL]
ARM_IDS = [*AXES, "all"]

Replay = namedtuple("Replay", "system axes decisions state")


def _workload(seed: int, n_requests: int) -> list[tuple[int, float]]:
    """Seeded arrival trace: (function index, arrival time) tuples.

    Pareto-skewed popularity and bursty arrivals, so queues build deep
    enough for hits, misses, evictions, local queues, O3 skips, the
    starvation guard and every Algorithm-2 branch."""
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(2.0) if rng.random() < 0.05 else rng.expovariate(1 / 0.035)
        spec.append((min(int(rng.paretovariate(0.9)) - 1, N_FUNCTIONS - 1), t))
    return spec


def _write_through(sim, **kwargs):
    return Datastore(sim, **{**kwargs, "batched": False})


@contextmanager
def literal_system(config: SystemConfig, axes=ALL_LITERAL):
    """A :class:`FaaSCluster` whose ``axes`` layers are the literal ones
    (``axes=()`` is the production system).  The patches must outlive the
    replay — the scan route is chosen per pass — so run inside the block."""
    unknown = set(axes) - ALL_LITERAL
    assert not unknown, unknown
    with pytest.MonkeyPatch.context() as patch:
        if "scans" in axes:
            patch.setattr(policies_module, "_admission_is_trivial", lambda s: False)
        if "writes" in axes:
            patch.setattr(system_module, "Datastore", _write_through)
        if "history" in axes:
            patch.setattr(system_module, "EPHEMERAL_HOT_PREFIXES", ())
        system = FaaSCluster(config)
        if "passes" in axes:
            system.scheduler.policy.guard = PassGuard()
            system.scheduler.pass_work_remaining = None
        yield system


def _requests(spec, tenants: bool) -> list[InferenceRequest]:
    """Fresh request objects for one replay: a §V-A ``WorkloadSpec``, or
    seeded ``(function, arrival)`` tuples — with every third function
    owned by tenant ``"capped"`` when ``tenants``."""
    if isinstance(spec, WorkloadSpec):
        return build_workload(spec).requests
    names = model_names()
    instances = [
        ModelInstance(
            f"m{i}",
            get_profile(names[i % len(names)]),
            tenant="capped" if tenants and i % 3 == 0 else "default",
        )
        for i in range(N_FUNCTIONS)
    ]
    return [
        InferenceRequest(
            f"fn{fn}", instances[fn], arrival_time=t, tenant=instances[fn].tenant
        )
        for fn, t in spec
    ]


def _run(
    spec,
    axes=frozenset(),
    *,
    cluster: ClusterSpec = ClusterSpec.homogeneous(2, 4),
    fail_gpu_at: float | None = None,
    **config,
) -> Replay:
    """Replay ``spec`` on the production system, or on the reference with
    ``axes`` literal; return the system, its decision log keyed by
    submission index, and its normalized final KV state."""
    requests = _requests(spec, tenants="quotas" in config)
    index_of = {r.request_id: i for i, r in enumerate(requests)}
    with literal_system(SystemConfig(cluster=cluster, **config), axes) as system:
        for model in {r.model.instance_id: r.model for r in requests}.values():
            system.register_model(model)
        for request in requests:
            system.submit_at(request)
        if fail_gpu_at is not None:
            gpu_id = system.cluster.gpus[2].gpu_id
            system.sim.schedule_at(fail_gpu_at, system.fail_gpu, gpu_id)
            system.sim.schedule_at(fail_gpu_at + 5.0, system.recover_gpu, gpu_id)
        system.run()
    decisions = [
        (d.time_s, d.kind, index_of[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    # normalize on *values*: history-free KeyValues are lineage-free by
    # design (create_revision == mod_revision, version pinned at 1), so
    # revision metadata may differ — which keys are live and what they
    # hold may not
    state = {}
    for kv in system.datastore.kv.items():
        key = kv.key
        if key.startswith("fn/latency/"):
            key = f"fn/latency/#{index_of[int(key.rsplit('/', 1)[1])]}"
        state[key] = kv.value
    return Replay(system, frozenset(axes), decisions, state)


def _assert_matches(production: Replay, reference: Replay) -> None:
    """Decision and final-state equality, plus proof the arms differ
    where they claim to: the literal arm really ran literally, and the
    production arm left nothing under the hot prefixes."""
    axes = reference.axes
    assert axes and not production.axes
    ref_kv = reference.system.datastore.kv
    if "history" in axes:
        assert ref_kv.ephemeral_prefixes == () and ref_kv.ephemeral_writes == 0
    if "writes" in axes:
        assert reference.system.datastore.stats.flushes == 0
    if "scans" in axes:
        assert reference.system.scheduler.policy.fast_scans == 0
    if "passes" in axes:
        assert (  # strictly more for every policy that uses local queues
            reference.system.scheduler.passes_executed
            >= production.system.scheduler.passes_executed
        )
    assert production.decisions == reference.decisions
    assert production.state == reference.state
    _assert_no_hot_residue(production.system)


def _assert_no_hot_residue(system) -> None:
    kv = system.datastore.kv
    assert [k for k in kv._history if k.startswith(EPHEMERAL_HOT_PREFIXES)] == []
    assert kv.ephemeral_writes > 0


def _resubmits(replay: Replay) -> int:
    return sum(kind.value == "resubmit" for _, kind, *_ in replay.decisions)


class TestProductionVsSpec:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_all_literal_across_policies_and_seeds(self, policy, seed):
        spec = _workload(seed, 400)
        kwargs = dict(policy=policy, cluster=ClusterSpec.homogeneous(2, 3))
        production = _run(spec, **kwargs)
        assert len(production.system.completed) == len(spec)
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("axes", ARMS, ids=ARM_IDS)
    def test_each_arm_through_gpu_failure_and_recovery(self, policy, axes):
        """A mid-load GPU failure exercises ``push_sorted`` (positional
        re-insertion), preserved O3 visits on re-queued requests, and a
        guard that must keep admitting passes while resubmitted work is
        dispatchable."""
        spec = _workload(SEED + 1, 600)
        kwargs = dict(policy=policy, fail_gpu_at=spec[250][1])
        production = _run(spec, **kwargs)
        assert _resubmits(production) > 0
        assert len(production.system.completed) == len(spec)
        _assert_matches(production, _run(spec, axes, **kwargs))

    def test_2k_requests_through_gpu_failure(self):
        spec = _workload(SEED, 2000)
        kwargs = dict(policy="lalbo3", fail_gpu_at=spec[900][1])
        production = _run(spec, **kwargs)
        assert len(production.decisions) >= len(spec)  # every request decided
        assert _resubmits(production) > 0
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))

    @pytest.mark.parametrize("policy", ["lalb", "lalbo3"])
    def test_o3_visit_totals_match_literal_scans(self, policy):
        """The lazy visit accounting (one prefix bump per scan) against
        the literal per-request ``visits += 1``: not only each decision's
        value but the totals Fig. 7-style analyses use."""
        spec = _workload(SEED + 2, 800)
        fast = [v for *_, v in _run(spec, policy=policy).decisions]
        literal = [v for *_, v in _run(spec, {"scans"}, policy=policy).decisions]
        assert max(literal) > 0  # the workload does skip requests
        assert (sum(fast), max(fast)) == (sum(literal), max(literal))

    def test_bounded_retention(self):
        """Autocompaction plus the latency-record sliding window: same
        decisions and final values while the production store retains
        (near) zero history."""
        spec = _workload(SEED + 3, 1500)
        kwargs = dict(kv_autocompact_keep=300, latency_log_keep=300)
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        assert (
            production.system.datastore.kv.history_entry_count()
            < reference.system.datastore.kv.history_entry_count()
        )


class TestTenancy:
    """§VI isolation: with a TenancyController installed the scans keep
    the O(models-on-GPU) bound whenever no quota binds, drop to the
    literal loops when one does, and match the spec either way."""

    def test_non_binding_quota_keeps_the_index_scans(self):
        spec = _workload(SEED + 3, 1200)
        kwargs = dict(policy="lalbo3", quotas={"capped": TenantQuota(max_processes=100)})
        production = _run(spec, **kwargs)
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))
        assert len(production.system.completed) == len(spec)
        policy = production.system.scheduler.policy
        assert policy.fast_scans > 0 and policy.reference_scans == 0

    def test_binding_quota_takes_the_literal_scans(self):
        spec = _workload(SEED + 4, 800)
        kwargs = dict(policy="lalbo3", quotas={"capped": TenantQuota(max_processes=2)})
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        # a binding quota may legitimately strand requests (they stay
        # queued until the tenant's usage drops): both must strand the
        # same ones
        assert len(production.system.completed) == len(reference.system.completed)
        # ... and it sends production's scans to the literal loops, whose
        # per-request probes implement the refusals
        assert production.system.scheduler.policy.reference_scans > 0

    @pytest.mark.parametrize("max_processes", [3, 64])
    def test_lb_under_quota(self, max_processes):
        spec = _workload(SEED + 5, 800)
        kwargs = dict(
            policy="lb", quotas={"capped": TenantQuota(max_processes=max_processes)}
        )
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        assert len(production.system.completed) == len(reference.system.completed)


# ----------------------------------------------------------------------
# Chaos: seeded fault schedules (repro.chaos, docs/robustness.md)
# ----------------------------------------------------------------------
#: hand-built crash/recover + straggler schedule, dense enough to land
#: mid-burst on the seeded workload (which spans ~30 simulated seconds)
CRASH_STRAGGLE_PLAN = FaultPlan(
    name="parity-crash-straggle",
    faults=(
        GPUCrash(at_s=4.0, gpu_index=2, recover_after_s=6.0),
        Straggler(at_s=9.0, gpu_index=5, factor=3.0, duration_s=8.0),
        GPUCrash(at_s=15.0, gpu_index=0, recover_after_s=5.0),
    ),
    seed=SEED,
)


class TestChaos:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fault_plan_across_policies(self, policy):
        """Fault handling may not depend on which guard, scan or store
        implementation ran."""
        spec = _workload(SEED + 9, 800)
        kwargs = dict(policy=policy, fault_plan=CRASH_STRAGGLE_PLAN)
        production = _run(spec, **kwargs)
        assert _resubmits(production) > 0
        assert len(production.system.completed) == len(spec)  # loses nothing
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))

    def test_chaos_replay_is_deterministic(self):
        """Two runs of the same plan + seed + workload are byte-identical:
        the replay property every chaos debugging session depends on."""
        spec = _workload(SEED + 10, 600)
        first = _run(spec, policy="lalbo3", fault_plan=CRASH_STRAGGLE_PLAN)
        second = _run(spec, policy="lalbo3", fault_plan=CRASH_STRAGGLE_PLAN)
        assert first.decisions == second.decisions
        assert first.state == second.state

    @pytest.mark.parametrize(
        "profile, max_retries", [("recoverable", None), ("severe", None), ("severe", 0)]
    )
    def test_shipped_fault_profiles(self, profile, max_retries):
        """Both shipped profiles over the replay they are sized for (6
        simulated minutes on the paper testbed, at the over-capacity
        arrival rate so faults land on loaded GPUs).  ``severe`` includes
        a permanent GPU loss, overlapping crashes and repeated lease
        expiries: with no retry budget it loses requests, but every one
        must be accounted for, the event heap must drain, and the replay
        must be reproducible."""
        spec = WorkloadSpec(working_set=25, minutes=6, requests_per_minute=560)
        kwargs = dict(
            cluster=PAPER_TESTBED,
            fault_profile=profile,
            seed=7,
            max_retries=max_retries,
        )
        production = _run(spec, **kwargs)
        system = production.system
        lost = system.scheduler.lost_count
        assert system.metrics.faults_injected > 0
        assert len(system.completed) + lost == len(build_workload(spec))
        assert (lost > 0) == (max_retries == 0)
        assert len(system.sim) == 0
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))
        rerun = _run(spec, **kwargs)
        assert rerun.decisions == production.decisions
        assert rerun.state == production.state


class TestWritePath:
    def test_batching_cuts_revisions_at_least_3x(self):
        spec = _workload(SEED + 1, 2000)
        production = _run(spec, policy="lalbo3")
        literal = _run(spec, {"writes"}, policy="lalbo3")
        _assert_matches(production, literal)
        assert (
            production.system.datastore.kv.revision * 3
            <= literal.system.datastore.kv.revision
        )
        # ... and in absolute form: ~1 revision per scheduling action —
        # drift means some write stopped flowing through the shared batch
        actions = len(production.system.scheduler.decisions)
        assert 0.8 <= production.system.datastore.kv.revision / actions <= 1.3
        # the logical write stream is identical; batching only changes
        # how many revisions (commits) carry it
        assert (
            production.system.datastore.stats.logical_writes
            == literal.system.datastore.stats.logical_writes
        )

    def test_coalesced_batches_end_with_the_same_lru_rows(self):
        spec = _workload(SEED + 2, 300)
        kwargs = dict(cluster=ClusterSpec.homogeneous(1, 4))
        batched = _run(spec, **kwargs)
        literal = _run(spec, {"writes"}, **kwargs)

        def lru_rows(replay: Replay) -> dict:
            return {k: v for k, v in replay.state.items() if k.startswith("gpu/lru/")}

        # last-write-wins coalescing: strictly fewer commits, but the final
        # live LRU row of every GPU is identical
        assert (
            batched.system.datastore.kv.revision < literal.system.datastore.kv.revision
        )
        assert len(lru_rows(batched)) == 4
        assert lru_rows(batched) == lru_rows(literal)


class TestProductionPath:
    def test_latency_window_stays_bounded_without_history_growth(self):
        keep = 100
        system = _run(_workload(SEED + 4, 1500), latency_log_keep=keep).system
        kv = system.datastore.kv
        latency_keys = [k for k in kv.keys() if k.startswith("fn/latency/")]
        # one window per GPU manager node; each bounded by `keep`
        assert latency_keys
        assert len(latency_keys) <= keep * len(system.cluster.nodes)
        assert not any(k.startswith("fn/latency/") for k in kv._history)

    def test_default_cluster_commits_hot_keys_history_free(self):
        """A default ``FaaSCluster()`` reports the four schema prefixes
        and a replay leaves nothing under them in MVCC history."""
        assert EPHEMERAL_HOT_PREFIXES == (
            "gpu/status/", "gpu/finish_time/", "fn/latency/", "gpu/lru/"
        )
        system = FaaSCluster()
        kv = system.datastore.kv
        assert kv.ephemeral_prefixes == EPHEMERAL_HOT_PREFIXES
        system.submit_workload(build_workload(WorkloadSpec(working_set=15, minutes=3)))
        system.run()
        assert system.completed
        _assert_no_hot_residue(system)
        gpu_id = system.cluster.gpus[0].gpu_id
        assert kv.get_value(f"gpu/status/{gpu_id}") == "idle"
        with pytest.raises(EphemeralKeyError):
            kv.get(f"gpu/status/{gpu_id}", revision=1)


def _submit(system, seed: int, n_requests: int) -> None:
    for request in _requests(_workload(seed, n_requests), tenants=False):
        system.submit_at(request)


class TestPassCounters:
    """Elided/executed accounting: every considered pass lands in exactly
    one bin, counters are monotone, and elision measurably engages."""

    def test_counters_sum_and_monotonicity(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3")
        )
        _submit(system, 7, 300)
        snapshots = []

        def snap() -> None:
            s = system.scheduler
            snapshots.append((s.actions, s.passes_executed, s.passes_elided))

        system.sim.subscribe_post_event(snap)
        system.run()
        sched = system.scheduler

        # monotone, per-sample
        for prev, cur in zip(snapshots, snapshots[1:]):
            assert all(c >= p for p, c in zip(prev, cur))
        # every action considered at least one pass, and each considered
        # pass was either executed or elided — the elided bin gets at most
        # one entry per action (an elision always ends the action)
        actions, executed, elided = (
            sched.actions, sched.passes_executed, sched.passes_elided,
        )
        assert actions > 0
        assert executed + elided >= actions
        assert elided <= actions
        # the engine must actually engage on a real workload, and every
        # decision came out of an executed pass
        assert elided > 0
        assert executed > 0
        assert len(sched.decisions) <= executed * len(system.cluster.gpus) + executed

    @pytest.mark.parametrize("paper_replay", [False, True], ids=["seeded-400", "sec5a-2k"])
    def test_elided_fraction_is_substantial_on_bursty_workload(self, paper_replay):
        """The guard layer must engage: ≥ 30% of considered passes elided
        on the seeded bursty trace and on the default 2k §V-A replay
        (``benchmarks/e2e`` reads 0.615 there as ``scheduler.elided_share``
        on ``ws15_steady``)."""
        if paper_replay:
            system = FaaSCluster()
            system.submit_workload(build_workload(WorkloadSpec(working_set=15, minutes=6)))
        else:
            system = FaaSCluster(
                SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3")
            )
            _submit(system, 9, 400)
        system.run()
        s = system.scheduler
        fraction = s.passes_elided / (s.passes_elided + s.passes_executed)
        assert fraction >= 0.3


class TestGuards:
    """PassGuard semantics against a live system."""

    def test_policies_declare_the_shared_guard(self):
        for name in POLICIES:
            assert isinstance(make_scheduling_policy(name).guard, DispatchableWorkGuard)

    def test_base_guard_is_the_failsafe_default(self):
        class Custom(SchedulingPolicy):
            def schedule_pass(self, s):  # pragma: no cover - never runs
                return False

        assert type(Custom().guard) is PassGuard

    def test_guard_refuses_only_provable_noops(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        guard = sched.policy.guard
        # idle cluster, empty queues: provably nothing to do
        assert guard.may_act(sched) is False
        inst = ModelInstance("m0", get_profile(model_names()[0]))
        system.submit(InferenceRequest("fn0", inst, arrival_time=0.0))
        # the submit dispatched immediately (idle GPU): back at rest
        assert guard.may_act(sched) is False
        # make every GPU busy, then queue a request: no idle GPU → no pass
        system.sim.run(until=0.0)
        for gpu in system.cluster.gpus:
            if gpu.is_idle:
                gpu.begin_inference()
        r = InferenceRequest("fn1", inst, arrival_time=0.0)
        sched.global_queue.push(r)
        assert guard.may_act(sched) is False
        for gpu in system.cluster.gpus:
            if gpu.state.value == "infer":
                gpu.become_idle()
        assert guard.may_act(sched) is True

    def test_idle_local_work_index_tracks_the_join(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        gpu = system.cluster.gpus[0]
        inst = ModelInstance("m0", get_profile(model_names()[0]))

        assert not sched.idle_local_work
        gpu.begin_inference()  # busy GPU with local work → not dispatchable
        sched.local_queues.push(gpu.gpu_id, InferenceRequest("fn0", inst, arrival_time=0.0))
        assert not sched.idle_local_work
        gpu.become_idle()  # now idle with local work → dispatchable
        assert sched.idle_local_work
        sched.local_queues.pop(gpu.gpu_id)
        assert not sched.idle_local_work


class TestIncrementalEstimatorParity:
    """The running queued-cost sums match a reference recompute
    throughout a real run (assertions ride completion events)."""

    def test_running_sums_match_reference_walk_during_run(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3")
        )
        checks = []

        def check(_request):
            for gpu in system.cluster.gpus:
                incremental = system.estimator.queued_cost(gpu)
                reference = system.estimator.reference_queued_cost(gpu)
                checks.append(incremental == pytest.approx(reference, abs=1e-9))

        system.subscribe_completion(check)
        _submit(system, SEED + 3, 500)
        system.run()
        assert checks and all(checks)
