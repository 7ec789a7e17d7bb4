"""The replay driver, and the gateway-level replay: the full FaaS path
must agree with the scheduler-level runs.

The gateway replay lives here, with its only consumer: it replays a
workload through the *entire* FaaS front-end instead of submitting
requests to the Scheduler — every workload function is registered via the
Gateway (Dockerfile flag parsing, ML-API interception, container pools,
Watchdog), and every trace invocation becomes a Gateway call.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import DecisionKind, TenantQuota
from repro.core.gpu_manager import LatencyRecord
from repro.core.policies import SCHEDULING_POLICY_NAMES
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.replay import replay
from repro.faas import FunctionSpec, Gateway, Invocation
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import (
    AzureTraceConfig,
    SyntheticAzureTrace,
    WorkloadSpec,
    assign_architectures,
    build_workload,
    spec_for_requests,
)

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=12)
)
SMALL_SPEC = WorkloadSpec(working_set=6, minutes=2, requests_per_minute=60)
SMALL_CLUSTER = ClusterSpec.homogeneous(1, 4)
#: containers are pre-built during the warm-up (registration pays the image
#: build once, as in a real deployment); invocations are shifted by it so
#: the GPU-side workload keeps the trace's timing
WARMUP_S = 5.0


@dataclass
class GatewayReplay:
    """Results of a gateway-level replay."""

    system: FaaSCluster
    gateway: Gateway
    invocations: list[Invocation] = field(default_factory=list)

    @property
    def completed_invocations(self) -> list[Invocation]:
        return [inv for inv in self.invocations if inv.completed_at is not None]

    def faas_overhead(self) -> float:
        """Mean per-invocation overhead the FaaS layer adds on top of the
        scheduler-visible latency (container / Watchdog handling)."""
        invocation = np.mean([inv.latency for inv in self.completed_invocations])
        return float(invocation - np.mean(self.system.metrics.columns().latency))

    def cache_miss_ratio(self) -> float:
        metrics = self.system.metrics
        return metrics.miss_count / metrics.completed_count


@pytest.fixture(scope="module", name="replay")
def gateway_replay():
    """Register the workload's functions and replay its invocations."""
    workload = build_workload(SMALL_SPEC, trace=SMALL_TRACE)
    system = FaaSCluster(SystemConfig(cluster=SMALL_CLUSTER, policy="lalbo3"))
    gateway = Gateway(system)
    arch_of = assign_architectures(workload.function_ids)
    for fid in workload.function_ids:
        fn = gateway.register(
            FunctionSpec(name=fid, model_architecture=arch_of[fid], max_replicas=32)
        )
        # the gateway minted its own model instance; align the workload's
        # cache-item identity with it so per-function caching matches
        workload.instances[fid] = fn.model_handle.instance
    system.run(until=WARMUP_S)  # image builds + first replicas

    result = GatewayReplay(system=system, gateway=gateway)

    def fire(fid: str) -> None:
        result.invocations.append(gateway.invoke(fid))

    # gateway invocations need only (time, function name): feed the
    # workload's columns straight into the bulk scheduler — no
    # InferenceRequest objects are built on this path at all
    fids = workload.function_ids
    system.sim.schedule_many(
        (WARMUP_S + workload.arrival_times).tolist(),
        fire,
        ((fids[i],) for i in workload.function_index.tolist()),
    )
    system.run()
    return result


class TestReplay:
    def test_every_invocation_completes(self, replay):
        assert len(replay.invocations) == 120
        assert len(replay.completed_invocations) == 120
        assert replay.system.metrics.completed_count == 120

    def test_faas_overhead_is_positive_but_small(self, replay):
        """Container/Watchdog handling adds latency on top of the GPU path,
        but far less than a model load."""
        overhead = replay.faas_overhead()
        assert overhead >= 0.0
        assert overhead < 2.0

    def test_per_function_model_instances_are_cached(self, replay):
        """Repeated invocations of one function must hit its cached model."""
        metrics = replay.system.metrics
        assert metrics.completed_count - metrics.miss_count > metrics.completed_count * 0.5

    def test_cache_behaviour_matches_scheduler_level_run(self, replay):
        """Gateway-level and scheduler-level replays of the same workload
        agree on cache behaviour (the FaaS layer shifts timing slightly,
        so allow a small tolerance)."""
        direct = run_experiment(
            ExperimentConfig(
                policy="lalbo3",
                working_set=6,
                minutes=2,
                requests_per_minute=60,
                cluster=SMALL_CLUSTER,
            ),
            trace=SMALL_TRACE,
        )
        assert replay.cache_miss_ratio() == pytest.approx(
            direct.cache_miss_ratio, abs=0.08
        )

    def test_functions_registered_with_gpu_flag(self, replay):
        for name in replay.gateway.list_functions():
            assert replay.gateway.get(name).spec.gpu_enabled


class TestReplayDriver:
    def test_one_workload_replays_the_same_twice(self):
        """A replay mutates the request objects it runs (state, stamps,
        retries, O3 visits); a second replay of the same ``Workload``
        must start from fresh ones and decide exactly as the first did.
        The over-capacity arrival rate queues deep enough for O3 skips."""
        workload = build_workload(
            WorkloadSpec(working_set=25, minutes=2, requests_per_minute=560)
        )
        runs = [replay(SystemConfig(), workload) for _ in range(2)]
        (first, first_system), (second, second_system) = runs
        assert first == second
        assert list(first_system.scheduler.decisions) == list(
            second_system.scheduler.decisions
        )

    @pytest.mark.parametrize("fault_profile", ["none", "recoverable"])
    @pytest.mark.parametrize("policy", SCHEDULING_POLICY_NAMES)
    def test_an_unrelated_replay_in_between_changes_nothing(self, policy, fault_profile):
        """No replay leaves state behind for the next: a workload replayed
        before and after an unrelated one makes the same decisions and
        leaves the same KV state, request IDs and the
        ``fn/latency/<function>`` records included, compared raw."""
        config = SystemConfig(policy=policy, fault_profile=fault_profile)
        workload = build_workload(WorkloadSpec(working_set=15, minutes=2))

        def observed():
            _, system = replay(config, workload)
            return list(system.scheduler.decisions), list(system.datastore.kv.items())

        first = observed()
        replay(config, build_workload(WorkloadSpec(working_set=25, minutes=1, seed=3)))
        assert observed() == first
        decisions, kv = first
        assert {d.request_id for d in decisions} == set(range(1, len(workload) + 1))
        assert any(item.key.startswith("fn/latency/") for item in kv)

    def test_live_latency_records_are_one_per_function_flat_in_n(self):
        """The §III-C latency report keeps one record per function, its
        latest completion: a 2k and a 4k §V-A replay leave exactly one
        live ``fn/latency/*`` key per distinct completed function."""
        live = []
        for n in (2000, 4000):
            functions = set()
            _, system = replay(
                SystemConfig(), build_workload(spec_for_requests(n)),
                prepare=lambda s: s.subscribe_completion(
                    lambda r: functions.add(r.function_name)
                ),
            )
            kv = system.datastore.kv
            keys = {k for k in kv.keys() if k.startswith("fn/latency/")}
            assert keys == {f"fn/latency/{f}" for f in functions}
            assert all(
                LatencyRecord(*kv.get_value(k)).function == k[len("fn/latency/"):]
                for k in keys
            )
            live.append(len(keys))
        assert live[0] == live[1]

    @pytest.mark.parametrize("policy", SCHEDULING_POLICY_NAMES)
    def test_a_binding_process_quota_strands_no_request_silently(self, policy):
        """A tenant at its process cap replaces its own idle processes, so
        a binding cap that admits a process completes every request."""
        workload = build_workload(WorkloadSpec(working_set=15, minutes=1))
        config = SystemConfig(policy=policy, quotas={"default": TenantQuota(max_processes=6)})
        summary, system = replay(config, workload)
        assert summary.lost_requests == 0
        assert system.metrics.completed_count == len(workload)
        assert system.tenancy.processes("default") <= 6

    @pytest.mark.parametrize("policy", SCHEDULING_POLICY_NAMES)
    def test_a_quota_that_admits_no_process_strands_every_request(self, policy):
        """``max_processes=0`` leaves its tenant's requests queued with
        every GPU idle and no event left to wake the Scheduler.  The replay
        still accounts for every request: each one stranded at the drain
        leaves its queue as LOST (reason ``"stranded"``), with a LOST
        decision row.  Every third function belongs to the capped tenant."""
        workload = build_workload(WorkloadSpec(working_set=15, minutes=1))
        capped = workload.function_ids[::3]
        instances = {
            fid: replace(inst, tenant="capped") if fid in capped else inst
            for fid, inst in workload.instances.items()
        }
        workload = replace(workload, instances=instances)
        config = SystemConfig(policy=policy, quotas={"capped": TenantQuota(max_processes=0)})
        summary, system = replay(config, workload)
        scheduler = system.scheduler
        assert summary.lost_requests == sum(r.model.tenant == "capped" for r in workload.requests())
        assert system.metrics.completed_count + summary.lost_requests == len(workload)
        assert summary.completed_requests == system.metrics.completed_count > 0
        assert summary.goodput_rps > 0  # the uncapped tenants' completions count
        assert system.metrics.lost_reasons == {"stranded": summary.lost_requests}
        assert len(scheduler.global_queue) == 0
        assert scheduler.local_queues.total() == 0
        assert all(gpu.is_idle for gpu in system.cluster.gpus)
        lost = [d for d in scheduler.decisions if d.kind is DecisionKind.LOST]
        assert len(lost) == summary.lost_requests

    @given(
        policy=st.sampled_from(SCHEDULING_POLICY_NAMES),
        working_set=st.sampled_from([15, 35]),
        max_processes=st.integers(1, 13),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_request_completes_under_any_process_cap(
        self, policy, working_set, max_processes, seed
    ):
        """Liveness: a cap that admits one process completes every request,
        whatever the policy, working set and cap (12 GPUs)."""
        workload = build_workload(WorkloadSpec(working_set=working_set, minutes=1, seed=seed))
        config = SystemConfig(
            policy=policy, quotas={"default": TenantQuota(max_processes=max_processes)}
        )
        summary, system = replay(config, workload)
        assert summary.lost_requests == 0
        assert system.metrics.completed_count == len(workload)
