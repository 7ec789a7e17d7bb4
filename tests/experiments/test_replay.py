"""The replay driver, and the gateway-level replay: the full FaaS path
must agree with the scheduler-level runs."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.replay import replay, replay_through_gateway
from repro.runtime import SystemConfig
from repro.traces import (
    AzureTraceConfig,
    SyntheticAzureTrace,
    WorkloadSpec,
    build_workload,
)

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=12)
)
SMALL_SPEC = WorkloadSpec(working_set=6, minutes=2, requests_per_minute=60)
SMALL_CLUSTER = ClusterSpec.homogeneous(1, 4)


@pytest.fixture(scope="module", name="replay")
def gateway_replay():
    return replay_through_gateway(
        SMALL_SPEC,
        config=SystemConfig(cluster=SMALL_CLUSTER, policy="lalbo3"),
        trace=SMALL_TRACE,
    )


class TestReplay:
    def test_every_invocation_completes(self, replay):
        assert len(replay.invocations) == 120
        assert len(replay.completed_invocations) == 120
        assert len(replay.system.completed) == 120

    def test_faas_overhead_is_positive_but_small(self, replay):
        """Container/Watchdog handling adds latency on top of the GPU path,
        but far less than a model load."""
        overhead = replay.faas_overhead()
        assert overhead >= 0.0
        assert overhead < 2.0

    def test_per_function_model_instances_are_cached(self, replay):
        """Repeated invocations of one function must hit its cached model."""
        hits = sum(1 for r in replay.system.completed if r.cache_hit)
        assert hits > len(replay.system.completed) * 0.5

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

        def decisions(system):
            base = min(r.request_id for r in system.completed)
            return [
                (d.time_s, d.kind, d.request_id - base, d.model_id, d.gpu_id, d.visits)
                for d in system.scheduler.decisions
            ]

        assert decisions(first_system) == decisions(second_system)
