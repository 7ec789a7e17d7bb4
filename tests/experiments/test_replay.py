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
    build_workload_streaming,
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


@pytest.mark.parametrize("build", [build_workload, build_workload_streaming])
class TestSpillsClosedOnReturn:
    """Whichever way the workload is injected, ``replay`` returns with
    both spill files complete on disk and their handles closed."""

    SPEC = WorkloadSpec(working_set=15, minutes=6, seed=0)

    def test_trace_spill(self, build, tmp_path):
        path = tmp_path / "requests.jsonl"
        _, system = replay(
            SystemConfig(tracer="flight", trace_spill_path=str(path)),
            build(self.SPEC),
        )
        written = system.tracer.spill_written
        assert written == system.metrics.completed_count > 1000
        assert len(path.read_text().splitlines()) == written
        assert system.tracer._spill._fh is None
        system.tracer.close()  # closing again is fine

    def test_metrics_spill(self, build, tmp_path):
        path = tmp_path / "rows.csv"
        _, system = replay(SystemConfig(metrics_spill_path=str(path)), build(self.SPEC))
        rows = path.read_text().splitlines()[1:]  # minus header
        assert len(rows) == system.metrics.completed_count > 1000
        assert system.metrics._spill._fh is None
        system.metrics.close_spill()  # closing again is fine
