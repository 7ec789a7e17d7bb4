"""Robustness integration tests: seeds, failures at scale, datastore lag."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import ExperimentConfig, run_experiment
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import AzureTraceConfig, SyntheticAzureTrace, WorkloadSpec, build_workload


class TestSeedRobustness:
    """The paper's qualitative ordering must not depend on the RNG seed."""

    @pytest.fixture(scope="class")
    def per_seed(self):
        trace = SyntheticAzureTrace()
        out = {}
        for seed in (1, 2, 3):
            out[seed] = {
                policy: run_experiment(
                    ExperimentConfig(policy=policy, working_set=25, seed=seed),
                    trace=trace,
                )
                for policy in ("lb", "lalb")
            }
        return out

    def test_lalb_beats_lb_for_every_seed(self, per_seed):
        for seed, res in per_seed.items():
            assert res["lalb"].avg_latency_s < res["lb"].avg_latency_s / 10, seed
            assert res["lalb"].cache_miss_ratio < res["lb"].cache_miss_ratio, seed

    def test_seeds_produce_different_workloads(self, per_seed):
        latencies = {res["lalb"].avg_latency_s for res in per_seed.values()}
        assert len(latencies) == 3  # genuinely different runs

    def test_metric_spread_is_moderate(self, per_seed):
        """Seed-to-seed variation should not change orders of magnitude."""
        vals = [res["lalb"].avg_latency_s for res in per_seed.values()]
        assert max(vals) / min(vals) < 3.0


class TestFailuresAtScale:
    def test_paper_workload_survives_gpu_failures(self):
        """Fail a quarter of the testbed mid-run; every request completes."""
        trace = SyntheticAzureTrace(
            AzureTraceConfig(num_functions=500, mean_rate_per_minute=3000, seed=6)
        )
        wl = build_workload(WorkloadSpec(working_set=15, minutes=4), trace=trace)
        system = FaaSCluster(SystemConfig(policy="lalbo3"))
        for r in wl.requests:
            system.submit_at(r)
        victims = [g.gpu_id for g in system.cluster.gpus[:3]]
        for i, gpu_id in enumerate(victims):
            system.sim.schedule_at(60.0 + 10.0 * i, system.fail_gpu, gpu_id)
            system.sim.schedule_at(150.0 + 10.0 * i, system.recover_gpu, gpu_id)
        system.run()
        assert len(system.completed) == len(wl.requests)
        retried = [r for r in wl.requests if r.retries > 0]
        assert retried, "failures should have interrupted some requests"
        assert all(r.completed_at is not None for r in wl.requests)
        # memory accounting still sane everywhere
        for gpu in system.cluster.gpus:
            assert 0.0 <= gpu.used_mb <= gpu.memory_mb

    def test_permanent_failure_degrades_but_completes(self):
        trace = SyntheticAzureTrace(
            AzureTraceConfig(num_functions=500, mean_rate_per_minute=3000, seed=6)
        )
        wl = build_workload(
            WorkloadSpec(working_set=10, minutes=2, requests_per_minute=100), trace=trace
        )
        healthy = FaaSCluster(SystemConfig(policy="lalbo3"))
        degraded = FaaSCluster(SystemConfig(policy="lalbo3"))
        for system in (healthy, degraded):
            wl_run = build_workload(
                WorkloadSpec(working_set=10, minutes=2, requests_per_minute=100),
                trace=trace,
            )
            for r in wl_run.requests:
                system.submit_at(r)
        for gpu in list(degraded.cluster.gpus[:6]):
            degraded.fail_gpu(gpu.gpu_id)  # half the cluster gone for good
        healthy.run()
        degraded.run()
        assert len(degraded.completed) == 200
        h = sum(r.latency for r in healthy.completed) / 200
        d = sum(r.latency for r in degraded.completed) / 200
        assert d >= h  # fewer GPUs can never be faster


class TestDatastoreMirror:
    def test_mirrored_statuses_converge(self):
        """The mirrored GPU statuses converge: once the replay drains,
        every ``gpu/status/*`` row in the Datastore agrees with device
        state (all idle)."""
        trace = SyntheticAzureTrace(
            AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=9)
        )
        wl = build_workload(
            WorkloadSpec(working_set=6, minutes=2, requests_per_minute=60),
            trace=trace,
        )
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 4), policy="lalbo3")
        )
        for r in wl.requests:
            system.submit_at(r)
        system.run()
        assert len(system.completed) == 120
        for gpu in system.cluster.gpus:
            assert system.datastore.client().get(f"gpu/status/{gpu.gpu_id}") == "idle"
