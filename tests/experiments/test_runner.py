"""Unit tests for the experiment runner and report helpers."""

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import (
    ExperimentConfig,
    format_reduction,
    format_table,
    reduction_pct,
    run_experiment,
)
from repro.traces import AzureTraceConfig, SyntheticAzureTrace

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=300, mean_rate_per_minute=2000, seed=5)
)
SMALL = ExperimentConfig(
    working_set=6,
    minutes=2,
    requests_per_minute=60,
    cluster=ClusterSpec.homogeneous(1, 4),
)


class TestRunExperiment:
    def test_completes_all_requests(self):
        s = run_experiment(SMALL, trace=SMALL_TRACE)
        assert s.completed_requests == 120
        assert s.avg_latency_s > 0
        assert 0.0 <= s.cache_miss_ratio <= 1.0
        assert 0.0 <= s.sm_utilization <= 1.0

    def test_deterministic(self):
        a = run_experiment(SMALL, trace=SMALL_TRACE)
        b = run_experiment(SMALL, trace=SMALL_TRACE)
        assert a.avg_latency_s == b.avg_latency_s
        assert a.cache_miss_ratio == b.cache_miss_ratio

    def test_seed_changes_workload(self):
        from dataclasses import replace

        a = run_experiment(SMALL, trace=SMALL_TRACE)
        b = run_experiment(replace(SMALL, seed=1), trace=SMALL_TRACE)
        assert a.avg_latency_s != b.avg_latency_s

    def test_label(self):
        assert ExperimentConfig(policy="lb").label() == "lb"
        assert ExperimentConfig(policy="lalbo3").label() == "lalbo3"
        assert ExperimentConfig(policy="lalbo3(limit=7)").label() == "lalbo3(limit=7)"
        assert (
            ExperimentConfig(policy="lalbo3", fault_profile="recoverable").label()
            == "lalbo3@recoverable"
        )

    def test_false_miss_never_exceeds_miss(self):
        s = run_experiment(SMALL, trace=SMALL_TRACE)
        assert s.false_miss_ratio <= s.cache_miss_ratio


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_reduction_pct(self):
        assert reduction_pct(100.0, 3.0) == pytest.approx(97.0)
        assert reduction_pct(2.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            reduction_pct(0.0, 1.0)

    def test_format_reduction(self):
        text = format_reduction("latency", 10.0, 1.0)
        assert "90.0% reduction" in text
