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
passes     ``SpecPassGuard`` (``tests/spec/guard.py``: the engine's
           historical run/stop conditions) with a mid-pass probe that
           always answers True
scans      ``install_spec_scans``: every policy's literal scan from
           ``tests/spec/policies.py`` over a queue that tracks no
           visits, with a quota probe per queued request
writes     ``WriteThroughDatastore`` (``tests/spec/datastore.py``):
           one revision per put
history    ``EPHEMERAL_HOT_PREFIXES = ()``: full MVCC for every key
=========  ==========================================================

Production is compared against the all-literal system on decisions **and**
normalized final KV state; the four single-axis arms run too, so a failure
names the layer.  Decisions are compared field for field (timestamps,
kinds, targets, O3 ``visits``); both arms build their requests with the
same IDs, so decisions and KV state compare raw.
"""

import random
from collections import namedtuple
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datastore.client as client_module
import repro.runtime.system as system_module
from repro.chaos import FaultPlan
from repro.chaos.plan import GPUCrash, Straggler
from repro.cluster import PAPER_TESTBED, ClusterSpec
from repro.core.policies import SCHEDULING_POLICY_NAMES
from repro.core.request import InferenceRequest
from repro.core.signals import PassGuard
from repro.core.tenancy import TenantQuota
from repro.datastore import EPHEMERAL_HOT_PREFIXES, EphemeralKeyError
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload
from tests.spec.datastore import WriteThroughDatastore
from tests.spec.estimator import reference_queued_cost
from tests.spec.guard import SpecPassGuard
from tests.spec.policies import (
    SpecLALBPolicy,
    SpecLoadBalancingPolicy,
    SpecLocalityOnlyPolicy,
    install_spec_scans,
)

SEED = 20230517  # arbitrary but frozen: parity must hold for any seed
N_FUNCTIONS = 30
POLICIES = list(SCHEDULING_POLICY_NAMES)
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


@contextmanager
def literal_system(config: SystemConfig, axes=ALL_LITERAL):
    """A :class:`FaaSCluster` whose ``axes`` layers are the literal ones
    (``axes=()`` is the production system); run the replay inside the
    block."""
    unknown = set(axes) - ALL_LITERAL
    assert not unknown, unknown
    with pytest.MonkeyPatch.context() as patch:
        if "writes" in axes:
            patch.setattr(system_module, "Datastore", WriteThroughDatastore)
        if "history" in axes:
            patch.setattr(client_module, "EPHEMERAL_HOT_PREFIXES", ())
        system = FaaSCluster(config)
        if "scans" in axes:
            install_spec_scans(system)
        if "passes" in axes:
            system.scheduler.guard = SpecPassGuard()
            system.scheduler.pass_work_remaining = lambda: True
        yield system


def _requests(spec, tenants: bool) -> list[InferenceRequest]:
    """Fresh request objects for one replay: a §V-A ``WorkloadSpec``, or
    seeded ``(function, arrival)`` tuples — with every third function
    owned by tenant ``"capped"`` when ``tenants``."""
    if isinstance(spec, WorkloadSpec):
        return build_workload(spec).requests()
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
        InferenceRequest(f"fn{fn}", instances[fn], t, row + 1)
        for row, (fn, t) in enumerate(spec)
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
    ``axes`` literal; return the system, its decision log and its
    normalized final KV state."""
    requests = _requests(spec, tenants="quotas" in config)
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
    # normalize on *values*: history-free KeyValues are lineage-free by
    # design (create_revision == mod_revision, version pinned at 1), so
    # revision metadata may differ — which keys are live and what they
    # hold may not
    state = {kv.key: kv.value for kv in system.datastore.kv.items()}
    return Replay(system, frozenset(axes), list(system.scheduler.decisions), state)


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
        policy = reference.system.scheduler.policy
        assert isinstance(
            policy, (SpecLALBPolicy, SpecLoadBalancingPolicy, SpecLocalityOnlyPolicy)
        )
        assert not reference.system.scheduler.global_queue.tracks_visits
    if "passes" in axes:
        assert type(reference.system.scheduler.guard) is SpecPassGuard
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
        assert production.system.metrics.completed_count == len(spec)
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
        assert production.system.metrics.completed_count == len(spec)
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

    @pytest.mark.parametrize("retention", [1, 300])
    def test_bounded_retention(self, retention):
        """Autocompaction, the latency-record sliding window and the
        closed metrics window: same decisions and final values while the
        production store retains (near) zero history.  At 1 every bound
        is at its tightest — one revision, one latency record per node,
        a window that closes at the second completion."""
        spec = _workload(SEED + 3, 1500)
        kwargs = dict(retention=retention)
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        assert (
            production.system.datastore.kv.history_entry_count()
            < reference.system.datastore.kv.history_entry_count()
        )


class TestTenancy:
    """§VI isolation: one scan route with or without a quota — the index
    scans, with the queue owning O3 visit counts — matching the spec's
    per-request probes whether the quota binds or not, and a binding
    process cap that completes every request (a capped tenant replaces
    its own process)."""

    @pytest.mark.parametrize("max_processes", [100, 1, 2], ids=["loose", "cap1", "cap2"])
    def test_any_quota_matches_the_spec(self, max_processes):
        spec = _workload(SEED + 3, 1200)
        kwargs = dict(policy="lalbo3", quotas={"capped": TenantQuota(max_processes)})
        production = _run(spec, **kwargs)
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))
        assert production.system.metrics.completed_count == len(spec)
        assert production.system.scheduler.global_queue.tracks_visits
        binds = production.decisions != _run(spec, policy="lalbo3").decisions
        assert binds == (max_processes < 100)

    @pytest.mark.parametrize(
        "quota", [None, TenantQuota(max_processes=100)], ids=["no_quota", "quota"]
    )
    def test_visit_counts_have_one_owner(self, quota):
        """The lalbo3 queue owns a queued request's O3 count, quota or
        not, and hands it to the request on removal: the value a request
        carries as it leaves the global queue is the one its decision row
        records."""
        quotas = {} if quota is None else {"capped": quota}
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(2, 4), policy="lalbo3", quotas=quotas)
        )
        scheduler = system.scheduler
        queue = scheduler.global_queue
        assert queue.tracks_visits
        requests = _requests(_workload(SEED + 2, 800), tenants=quota is not None)
        for model in {r.model.instance_id: r.model for r in requests}.values():
            system.register_model(model)
        for request in requests:
            system.submit_at(request)
        leaving = []  # (request_id, visits) at each removal from the queue
        remove = queue.remove

        def spy(request):
            live = queue.visits(request)
            remove(request)
            assert request.visits == live  # handed over
            leaving.append((request.request_id, live))

        queue.remove = spy
        system.run()
        removals = {"dispatch_hit", "dispatch_miss", "move_to_local"}
        rows = [
            (d.request_id, d.visits) for d in scheduler.decisions if d.kind.value in removals
        ]
        assert rows == leaving
        assert max(v for _, v in leaving) > 0  # the scans did skip requests

    def test_binding_quota_matches_the_spec(self):
        spec = _workload(SEED + 4, 800)
        kwargs = dict(policy="lalbo3", quotas={"capped": TenantQuota(max_processes=2)})
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        assert production.system.metrics.completed_count == len(spec)  # strands none
        # ... and it does bind: the decisions differ from a quota-free run
        assert production.decisions != _run(spec, policy="lalbo3").decisions

    @pytest.mark.parametrize("max_processes", [3, 64])
    def test_lb_under_quota(self, max_processes):
        spec = _workload(SEED + 5, 800)
        kwargs = dict(
            policy="lb", quotas={"capped": TenantQuota(max_processes=max_processes)}
        )
        production = _run(spec, **kwargs)
        reference = _run(spec, ALL_LITERAL, **kwargs)
        _assert_matches(production, reference)
        assert production.system.metrics.completed_count == len(spec)  # strands none

    @given(
        policy=st.sampled_from(
            ["lb", "lalb", "lalbo3(limit=1)", "lalbo3(limit=3)", "lalbo3"]
        ),
        max_processes=st.none() | st.integers(0, 4),
        fail=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_generated_quotas_match_the_spec(self, policy, max_processes, fail, seed):
        """Generated quotas, O3 limits and an optional GPU failure: the
        index scans make the spec's decisions and leave its final KV."""
        quota = TenantQuota(max_processes)
        spec = _workload(seed, 300)
        kwargs = dict(
            policy=policy,
            quotas={"capped": quota},
            cluster=ClusterSpec.homogeneous(2, 3),
            fail_gpu_at=spec[120][1] if fail else None,
        )
        _assert_matches(_run(spec, **kwargs), _run(spec, {"scans"}, **kwargs))


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
        assert production.system.metrics.completed_count == len(spec)  # loses nothing
        _assert_matches(production, _run(spec, ALL_LITERAL, **kwargs))

    def test_chaos_replay_is_deterministic(self):
        """Two runs of the same plan + seed + workload are byte-identical:
        the replay property every chaos debugging session depends on."""
        spec = _workload(SEED + 10, 600)
        first = _run(spec, policy="lalbo3", fault_plan=CRASH_STRAGGLE_PLAN)
        second = _run(spec, policy="lalbo3", fault_plan=CRASH_STRAGGLE_PLAN)
        assert first.decisions == second.decisions
        assert first.state == second.state

    @pytest.mark.parametrize("profile", ["recoverable", "severe"])
    def test_shipped_fault_profiles(self, profile):
        """Both shipped profiles over the replay they are sized for (6
        simulated minutes on the paper testbed, at the over-capacity
        arrival rate so faults land on loaded GPUs).  ``severe`` includes
        a permanent GPU loss, overlapping crashes and repeated lease
        expiries; displaced work is resubmitted without limit, so every
        request must still complete, the event heap must drain, and the
        replay must be reproducible."""
        spec = WorkloadSpec(working_set=25, minutes=6, requests_per_minute=560)
        kwargs = dict(cluster=PAPER_TESTBED, fault_profile=profile, seed=7)
        production = _run(spec, **kwargs)
        system = production.system
        assert system.metrics.faults_injected > 0
        assert system.metrics.lost_count == 0
        assert system.metrics.completed_count == len(build_workload(spec))
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
        system = _run(_workload(SEED + 4, 1500), retention=keep).system
        kv = system.datastore.kv
        latency_keys = [k for k in kv.keys() if k.startswith("fn/latency/")]
        # one record per function, far inside `keep` per node
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
        assert system.metrics.completed_count
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
    """The one PassGuard against a live system."""

    def test_every_policy_runs_under_the_one_guard(self):
        for name in POLICIES:
            system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy=name))
            assert type(system.scheduler.guard) is PassGuard

    def test_guard_refuses_only_provable_noops(self):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        guard = sched.guard
        # idle cluster, empty queues: provably nothing to do
        assert guard.may_act(sched) is False
        inst = ModelInstance("m0", get_profile(model_names()[0]))
        system.submit(InferenceRequest("fn0", inst, arrival_time=0.0, request_id=1))
        # the submit dispatched immediately (idle GPU): back at rest
        assert guard.may_act(sched) is False
        # make every GPU busy, then queue a request: no idle GPU → no pass
        system.sim.run(until=0.0)
        for gpu in system.cluster.gpus:
            if gpu.is_idle:
                gpu.begin_inference()
        r = InferenceRequest("fn1", inst, arrival_time=0.0, request_id=2)
        sched.global_queue.push(r)
        assert guard.may_act(sched) is False
        for gpu in system.cluster.gpus:
            if gpu.state.value == "infer":
                gpu.become_idle()
        assert guard.may_act(sched) is True

    def test_guard_joins_local_work_with_idle_flags(self):
        """Local work counts only on an idle GPU; the spec guard admits
        any local work, so it runs the passes production elides."""
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3")
        )
        sched = system.scheduler
        gpu = system.cluster.gpus[0]
        inst = ModelInstance("m0", get_profile(model_names()[0]))
        spec = SpecPassGuard()

        assert not sched.guard.may_act(sched)
        gpu.begin_inference()  # busy GPU with local work → not dispatchable
        sched.local_queues.push(
            gpu, InferenceRequest("fn0", inst, arrival_time=0.0, request_id=1)
        )
        assert not sched.guard.may_act(sched)
        assert spec.may_act(sched)
        gpu.become_idle()  # now idle with local work → dispatchable
        assert sched.guard.may_act(sched)
        sched.local_queues.pop(gpu)
        assert not sched.guard.may_act(sched)
        assert not spec.may_act(sched)


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
                reference = reference_queued_cost(system.estimator, gpu)
                checks.append(incremental == pytest.approx(reference, abs=1e-9))

        system.subscribe_completion(check)
        _submit(system, SEED + 3, 500)
        system.run()
        assert checks and all(checks)
