"""The package's public API surface must stay importable and coherent."""

import dataclasses
import json
from pathlib import Path

import pytest

import repro
import repro.metrics
from repro.core.scheduler import Scheduler
from repro.metrics import MetricsCollector


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_quickstart_flow():
    system = repro.FaaSCluster(repro.SystemConfig(policy="lalbo3"))
    gateway = repro.Gateway(system)
    gateway.register(repro.FunctionSpec(name="classify", model_architecture="resnet50"))
    cold = gateway.invoke("classify")
    system.run()
    warm = gateway.invoke("classify")
    system.run()
    assert warm.latency < cold.latency
    assert cold.status is repro.InvocationStatus.SUCCEEDED


def test_paper_testbed_constant():
    assert repro.PAPER_TESTBED.total_gpus == 12


def test_subpackages_importable():
    import repro.chaos
    import repro.cluster
    import repro.core
    import repro.datastore
    import repro.experiments
    import repro.faas
    import repro.metrics
    import repro.models
    import repro.obs
    import repro.sim
    import repro.traces

    assert repro.sim.Simulator is not None


def test_option_budget():
    """Every ``SystemConfig`` field is a configuration axis tests and
    benches must cover, so a new knob has to show up as a diff here —
    and the engine selectors that were removed must stay removed."""
    assert {f.name for f in dataclasses.fields(repro.SystemConfig)} == {
        "cluster", "policy", "o3_limit", "replacement",
        "kv_autocompact_keep", "latency_log_keep", "quotas", "seed",
        "fault_profile", "fault_plan", "deadline_s", "max_retries",
        "retry_backoff_s", "health_heartbeat_s", "health_ttl_s",
        "metrics_exact_cap", "metrics_spill_path",
        "tracer", "tracer_capacity", "trace_span_stride", "trace_decisions",
        "trace_spill_path", "trace_spill_keep",
    }
    with pytest.raises(TypeError):
        repro.SystemConfig(pass_elision=False)
    with pytest.raises(TypeError):
        repro.SystemConfig(datastore_batching=False)
    with pytest.raises(TypeError):
        repro.SystemConfig(metrics_streaming=True)
    with pytest.raises(TypeError):
        repro.SystemConfig(watch_delay_s=0.5)
    s = repro.FaaSCluster().scheduler
    with pytest.raises(TypeError):
        Scheduler(
            s.sim, s.cluster, s.policy, s.cache, s.estimator, {}, pass_elision=False
        )
    with pytest.raises(TypeError):
        MetricsCollector(s.sim, streaming=True)
    assert set(repro.metrics.__all__) == {
        "DEFAULT_GROWTH", "LogHistogram", "MetricsCollector", "RunSummary",
        "per_architecture_breakdown", "prometheus_exposition",
        "quantile_error_bound", "summarize", "TIMELINE_FIELDS",
        "TimelineProbe", "TimelineSample",
    }


def test_reference_engines_stay_out_of_src():
    """The per-request workload builder and the no-op tracer protocol are
    test oracles / dead twins now; pinning the export lists keeps them
    from growing back."""
    import repro.obs
    import repro.traces

    assert set(repro.traces.__all__) == {
        "AzureTraceConfig", "SyntheticAzureTrace", "calibrate_zipf_exponent",
        "ImageBatch", "cifar_like", "compress_to_batch", "hymenoptera_like",
        "load_dataset", "mnist_like",
        "StreamingWorkload", "Workload", "WorkloadChunk", "WorkloadSpec",
        "assign_architectures", "build_workload", "build_workload_streaming",
        "spec_for_requests",
    }
    assert set(repro.obs.__all__) == {
        "Cause", "ExplainLog", "FlightRecorder", "chrome_trace_events",
        "format_request_causes", "run_explain", "validate_chrome_trace",
        "write_chrome_trace",
    }


def test_one_way_in():
    """One replay driver and no shelf-ware: the export lists of the
    packages that lost modules are pinned so a second driver, a second
    model factory or an unused front-end shows up as a diff here
    (``tests/test_reachability.py`` checks the modules themselves)."""
    import repro.experiments
    import repro.faas
    import repro.models.nn

    assert set(repro.experiments.__all__) == {
        "build_belady_oracle", "run_batch_size_sweep", "run_belady_bound",
        "run_cache_policy_ablation", "run_gpu_scaling",
        "GatewayReplay", "replay", "replay_through_gateway",
        "format_fig4", "headline_reductions", "run_fig4",
        "false_per_miss", "format_fig5", "run_fig5", "format_fig6", "run_fig6",
        "PAPER_O3_LIMITS", "format_fig7", "run_fig7",
        "format_reduction", "format_table", "reduction_pct",
        "PAPER_POLICIES", "ExperimentConfig", "run_experiment",
        "run_policy_grid", "shared_trace", "CellResult", "ResultStore",
        "SweepCell", "SweepResult", "SweepSpec", "execute_cell", "run_cells",
        "run_keyed_cells", "run_sweep",
        "format_table1", "table1_from_paper", "table1_wallclock",
    }
    assert set(repro.faas.__all__) == {
        "Autoscaler", "Container", "ContainerPool", "ContainerState",
        "FunctionNotFound", "Gateway", "RegisteredFunction", "GPUModelHandle",
        "InterceptedMLAPI", "Dockerfile", "FunctionSpec", "default_template",
        "Invocation", "InvocationStatus", "Watchdog", "HealthWatchdog",
    }
    assert set(repro.models.nn.__all__) == {
        "FAMILY_SPECS", "available_architectures", "build_model",
        "BatchNorm2D", "Conv2D", "Flatten", "GlobalAvgPool", "Layer",
        "Linear", "MaxPool2D", "ReLU", "Softmax", "im2col", "Network",
    }


def test_bench_ledger_shape():
    """``BENCH_scheduler.json`` holds only what ``benchmarks/e2e`` does not
    measure (micro pass cost, tracer overhead, sweep scaling); a retired
    replay-path section must show up as a diff here."""
    from repro.experiments import bench

    assert set(bench.__all__) == {
        "run_bench", "check_bench", "measure_observability",
        "measure_sweep_scaling", "DEFAULT_OUTPUT",
    }
    committed = Path(__file__).resolve().parents[1] / bench.DEFAULT_OUTPUT
    assert list(json.loads(committed.read_text())) == [
        "suite", "commit", "machine", "pass_cost_by_depth_s",
        "observability", "sweep_scaling", "benchmarks",
    ]
    assert bench.check_bench(str(committed)) == []
