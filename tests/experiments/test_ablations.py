"""Unit tests for the ablation runners (small-scale for speed)."""

import pytest

from repro.experiments.ablations import (
    build_belady_oracle,
    run_belady_bound,
    run_cache_policy_ablation,
    run_gpu_scaling,
)
from repro.traces import AzureTraceConfig, SyntheticAzureTrace, WorkloadSpec, build_workload

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=8)
)


class TestBeladyOracle:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(
            WorkloadSpec(working_set=5, minutes=2, requests_per_minute=40),
            trace=SMALL_TRACE,
        )

    def test_next_use_is_future_arrival(self, workload):
        oracle = build_belady_oracle(workload)
        req = workload.requests()[0]
        t = oracle(req.model_id, 0.0)
        assert t == req.arrival_time or t <= req.arrival_time  # first arrival of that model

    def test_next_use_at_exact_time_is_inclusive(self, workload):
        oracle = build_belady_oracle(workload)
        req = workload.requests()[-1]
        assert oracle(req.model_id, req.arrival_time) == req.arrival_time

    def test_never_used_again_is_inf(self, workload):
        oracle = build_belady_oracle(workload)
        last = max(r.arrival_time for r in workload.requests())
        assert oracle(workload.requests()[0].model_id, last + 1.0) == float("inf")

    def test_unknown_model_is_inf(self, workload):
        oracle = build_belady_oracle(workload)
        assert oracle("ghost", 0.0) == float("inf")


class TestBeladyBound:
    def test_belady_no_worse_than_lru(self):
        out = run_belady_bound(working_set=20, trace=SMALL_TRACE)
        assert set(out) == {"lru", "belady"}
        assert out["belady"].cache_miss_ratio <= out["lru"].cache_miss_ratio + 0.02
        assert out["lru"].completed_requests == out["belady"].completed_requests


class TestPolicyAblation:
    def test_all_policies_run(self):
        out = run_cache_policy_ablation(
            ("lru", "fifo"), working_set=10, trace=SMALL_TRACE
        )
        assert set(out) == {"lru", "fifo"}
        assert all(s.completed_requests == 1950 for s in out.values())


class TestGPUScaling:
    def test_latency_improves_with_gpus(self):
        out = run_gpu_scaling(((1, 2), (1, 6)), working_set=10, trace=SMALL_TRACE)
        assert out[6].avg_latency_s < out[2].avg_latency_s
