"""Tests for the per-architecture breakdown and fn logs."""

from repro.cluster import ClusterSpec
from repro.faas import FunctionSpec, Gateway
from repro.metrics.summary import per_architecture_breakdown
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import AzureTraceConfig, SyntheticAzureTrace, WorkloadSpec, build_workload

SMALL_TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=200, mean_rate_per_minute=1500, seed=21)
)


class TestPerArchitectureBreakdown:
    def test_breakdown_covers_workload(self):
        wl = build_workload(
            WorkloadSpec(working_set=5, minutes=1, requests_per_minute=40),
            trace=SMALL_TRACE,
        )
        system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 3)))
        for r in wl.requests():
            system.submit_at(r)
        system.run()
        breakdown = per_architecture_breakdown(system.metrics)
        assert sum(b["count"] for b in breakdown.values()) == 40
        for arch, stats in breakdown.items():
            assert stats["avg_latency_s"] > 0
            assert 0.0 <= stats["miss_ratio"] <= 1.0
            assert stats["p99_latency_s"] >= stats["avg_latency_s"] * 0.5


class TestFunctionLogs:
    def test_logs_capture_invocation_lifecycle(self):
        system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1)))
        gateway = Gateway(system)
        gateway.register(FunctionSpec(name="classify", model_architecture="alexnet"))
        gateway.invoke("classify")
        system.run()
        lines = gateway.logs("classify")
        assert any("started" in line for line in lines)
        assert any("succeeded" in line for line in lines)

    def test_logs_capture_failures(self):
        from repro.faas import default_template

        def boom(_):
            raise RuntimeError("exploded")

        system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1)))
        gateway = Gateway(system)
        gateway.register(
            FunctionSpec(name="bad", dockerfile=default_template(gpu=False), handler=boom)
        )
        gateway.invoke("bad")
        system.run()
        assert any("FAILED: exploded" in line for line in gateway.logs("bad"))

    def test_tail(self):
        system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1)))
        gateway = Gateway(system)
        gateway.register(FunctionSpec(name="classify", model_architecture="alexnet"))
        for _ in range(3):
            gateway.invoke("classify")
            system.run()
        assert len(gateway.logs("classify", tail=2)) == 2
