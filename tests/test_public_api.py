"""The package's public API surface must stay importable and coherent."""

import dataclasses
from pathlib import Path

import pytest

import repro
import repro.metrics
from repro.core.scheduler import Scheduler
from repro.datastore import Datastore, WriteStats
from repro.metrics import MetricsCollector
from repro.sim import Simulator


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
    and the engine selectors and failure knobs that were removed must
    stay removed."""
    assert {f.name for f in dataclasses.fields(repro.SystemConfig)} == {
        "cluster", "policy", "o3_limit", "replacement", "retention",
        "quotas", "seed", "fault_profile", "fault_plan", "tracer",
        "trace_decisions",
    }
    with pytest.raises(TypeError):
        repro.SystemConfig(pass_elision=False)
    with pytest.raises(TypeError):
        repro.SystemConfig(datastore_batching=False)
    with pytest.raises(TypeError):
        repro.SystemConfig(metrics_streaming=True)
    with pytest.raises(TypeError):
        repro.SystemConfig(watch_delay_s=0.5)
    with pytest.raises(TypeError):
        repro.SystemConfig(deadline_s=2.0)
    with pytest.raises(TypeError):
        repro.SystemConfig(max_retries=0)
    with pytest.raises(TypeError):
        repro.SystemConfig(retry_backoff_s=5.0)
    s = repro.FaaSCluster().scheduler
    with pytest.raises(TypeError):
        Scheduler(
            s.sim, s.cluster, s.policy, s.cache, s.estimator, {},
            datastore=s.datastore, pass_elision=False,
        )
    with pytest.raises(TypeError):
        Scheduler(
            s.sim, s.cluster, s.policy, s.cache, s.estimator, {},
            datastore=s.datastore, deadline_s=2.0,
        )
    with pytest.raises(TypeError):
        MetricsCollector(s.sim, streaming=True)
    assert set(repro.metrics.__all__) == {
        "DEFAULT_GROWTH", "LogHistogram", "MetricsCollector", "RunSummary",
        "per_architecture_breakdown", "prometheus_exposition",
        "quantile_error_bound", "summarize", "TIMELINE_FIELDS",
        "TimelineProbe", "TimelineSample",
    }


@pytest.mark.parametrize(
    "name, value",
    [
        ("kv_autocompact_keep", 100),
        ("latency_log_keep", 100),
        ("metrics_exact_cap", 100),
        ("health_heartbeat_s", 1.0),
        ("health_ttl_s", 3.0),
        ("metrics_spill_path", "rows.csv"),
        ("trace_spill_path", "requests.jsonl"),
    ],
)
def test_folded_and_deleted_options_stay_gone(name, value):
    """The three memory caps are one ``retention`` bound, the health
    cadence is a pair of constants in ``repro.chaos.health``, and the two
    per-request disk tees are gone."""
    with pytest.raises(TypeError):
        repro.SystemConfig(**{name: value})


@pytest.mark.parametrize(
    "cls, public",
    [
        pytest.param(Datastore, {"put", "delete", "flush"}, id="Datastore"),
        pytest.param(
            WriteStats,
            {"logical_writes", "flushes", "committed_keys", "coalesced_writes"},
            id="WriteStats",
        ),
    ],
)
def test_one_datastore_write_api(cls, public):
    """``put`` / ``delete`` / ``flush`` is the whole write path: no client
    layer, no read-your-writes overlay and no lazy thunk mode beside it
    (reads go to ``Datastore.kv``)."""
    assert {name for name in vars(cls) if not name.startswith("_")} == public


@pytest.mark.parametrize(
    "option",
    [
        pytest.param({"batched": True}, id="batched"),
        pytest.param({"ephemeral_prefixes": ()}, id="ephemeral_prefixes"),
    ],
)
def test_datastore_write_mode_options_stay_gone(option):
    """The Datastore has one write mode: it always batches and always
    commits the schema's hot prefixes history-free."""
    with pytest.raises(TypeError):
        Datastore(Simulator(), **option)


@pytest.mark.parametrize(
    "component",
    [
        "repro.core.cache_manager.CacheManager",
        "repro.core.gpu_manager.GPUManager",
        "repro.core.scheduler.Scheduler",
        "repro.faas.watchdog.Watchdog",
    ],
)
def test_components_require_a_datastore(component):
    """Every component that mirrors state takes the system's Datastore;
    there is no Datastore-less mode to keep in step."""
    import importlib
    import inspect

    module, _, cls = component.rpartition(".")
    param = inspect.signature(getattr(importlib.import_module(module), cls)).parameters[
        "datastore"
    ]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
    assert param.default is inspect.Parameter.empty


def test_gateway_uses_the_system_datastore():
    system = repro.FaaSCluster()
    assert repro.Gateway(system).datastore is system.datastore
    with pytest.raises(TypeError, match="datastore"):
        repro.Gateway(system, datastore=system.datastore)


def test_tenant_admission_certificate_stays_gone():
    """One scan route, quota or not: no per-pass certificate, no tenant
    index in the queue, and no switch between index and literal scans
    (the literal ones live in ``tests/spec/``)."""
    import repro.core.scheduler
    from repro.core import GlobalQueue, LALBPolicy, Scheduler, TenancyController

    with pytest.raises(TypeError):
        GlobalQueue(track_tenants=True)
    assert not hasattr(TenancyController, "pass_admission_trivial")
    assert not hasattr(repro.core.scheduler, "_admission_is_trivial")
    assert not hasattr(Scheduler, "index_scans")
    assert not hasattr(LALBPolicy, "_schedule_gpu_reference")


def test_one_pass_guard_and_no_gpu_id_joins():
    """One pass guard for every policy, held by the Scheduler: no
    per-policy guard, no idle ∩ local-work join object.  Local queues are
    keyed by device (no gpu_id views), and the Cluster keeps no
    versioned view caches."""
    import repro.core
    import repro.core.signals
    from repro.cluster import Cluster
    from repro.core import FinishTimeEstimator, LocalQueues, SchedulingPolicy

    for name in ("DispatchableWorkGuard", "IdleLocalWorkIndex"):
        assert not hasattr(repro.core, name)
        assert not hasattr(repro.core.signals, name)
    assert repro.core.signals.__all__ == ["PassGuard"]
    assert not hasattr(SchedulingPolicy, "guard")
    assert not hasattr(Scheduler, "idle_local_work")
    assert not hasattr(Cluster, "busy_gpus")
    system = repro.FaaSCluster()
    assert "version" not in vars(system.cluster)
    assert not hasattr(LocalQueues, "nonempty_gpu_ids")
    assert not hasattr(LocalQueues, "non_empty_gpus")
    assert not hasattr(FinishTimeEstimator, "reference_queued_cost")
    assert "_devices" not in vars(system.estimator)


def test_a_gpu_has_one_name_in_the_control_plane():
    """Every per-GPU table is keyed by the device: no slot numbering
    stamped onto it, no gpu_id → device join on the Scheduler, and the
    in-flight finish time lives on the device."""
    from repro.cluster import Cluster
    from repro.core import CacheManager, FinishTimeEstimator, GPUManager
    from repro.core.policies import SchedulerOps

    system = repro.FaaSCluster()
    gpu = system.cluster.gpus[0]
    assert "_mgr_slot" not in vars(gpu) and "_sched_slot" not in vars(gpu)
    assert gpu.busy_until == 0.0
    for cls, names in (
        (GPUManager, ("_slot_of", "in_flight")),
        (Scheduler, ("_address_by_slot", "_manager_by_slot", "gpu")),
        (SchedulerOps, ("gpu",)),
        (CacheManager, ("_gpus",)),
        (FinishTimeEstimator, ("_busy_until", "set_busy_until", "clear_busy")),
        (Cluster, ("_node_of", "node_of")),
    ):
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    manager = system.gpu_managers()[gpu.node_id]
    for owner in (manager, system.scheduler, system.cache, system.estimator, system.cluster):
        for name in ("_slot_of", "_address_by_slot", "_manager_by_slot", "gpu", "_gpus",
                     "_busy_until", "_node_of"):
            assert name not in vars(owner), f"{type(owner).__name__}.{name}"
    assert set(system.cache._policies) == set(system.cluster.gpus)
    assert set(system.estimator._queued_cost) == set(system.cluster.gpus)
    assert set(manager._executing) == set(system.cluster.nodes[0].gpus)


def test_tenant_quota_has_one_lever():
    """§VI's process cap is the one isolation lever (the memory and time
    shares are gone), and a request is charged to its model's tenant: it
    carries no tenant of its own."""
    from repro.core import TenantQuota

    assert tuple(f.name for f in dataclasses.fields(TenantQuota)) == ("max_processes",)
    assert "tenant" not in {f.name for f in dataclasses.fields(repro.InferenceRequest)}


def test_no_list_of_completed_requests():
    """A finished request is freed: the metrics columns are the only
    per-completion record, and a caller that wants the objects subscribes
    through ``FaaSCluster.subscribe_completion``."""
    system = repro.FaaSCluster()
    assert not hasattr(repro.FaaSCluster, "completed")
    assert not hasattr(system, "completed")
    assert not hasattr(MetricsCollector, "completed")
    assert not hasattr(system.metrics, "completed")
    assert system.metrics.completed_count == 0


def test_ids_are_minted_by_their_owners():
    """No ID has a default drawn from a module-level counter: a request
    takes its ID from whoever builds it."""
    fields = {f.name: f for f in dataclasses.fields(repro.InferenceRequest)}
    assert fields["request_id"].default is dataclasses.MISSING
    assert fields["request_id"].default_factory is dataclasses.MISSING


def test_reference_engines_stay_out_of_src():
    """The per-request workload builder, the no-op tracer protocol and the
    interval accumulator are test oracles / dead twins now, and a GPU's
    state has one owner (the device, no process objects); pinning the
    export lists keeps them from growing back."""
    import repro.cluster
    import repro.datastore
    import repro.obs
    import repro.sim
    import repro.traces

    assert set(repro.cluster.__all__) == {
        "GPUDevice", "GPUMemoryError", "GPUState", "GPUNode", "PCIeModel",
        "fit_pcie_model", "PAPER_TESTBED", "Cluster", "ClusterSpec",
        "GPUTypeSpec", "build_cluster",
    }
    assert set(repro.sim.__all__) == {"Event", "SimError", "Simulator", "PeriodicTimer"}

    assert set(repro.traces.__all__) == {
        "AzureTraceConfig", "SyntheticAzureTrace", "calibrate_zipf_exponent",
        "ImageBatch", "cifar_like", "compress_to_batch", "hymenoptera_like",
        "load_dataset", "mnist_like",
        "StreamingWorkload", "Workload", "WorkloadChunk", "WorkloadSpec",
        "assign_architectures", "build_workload", "build_workload_streaming",
        "spec_for_requests",
    }
    assert set(repro.datastore.__all__) == {
        "Datastore", "WriteStats", "EPHEMERAL_HOT_PREFIXES", "BatchCommit",
        "CompactedError", "EphemeralKeyError", "KeyValue", "KVStore",
        "Lease", "LeaseManager",
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
        "replay",
        "format_fig4", "headline_reductions", "run_fig4",
        "false_per_miss", "format_fig5", "run_fig5", "format_fig6", "run_fig6",
        "PAPER_O3_LIMITS", "format_fig7", "run_fig7",
        "format_reduction", "format_table", "reduction_pct",
        "PAPER_POLICIES", "ExperimentConfig", "run_experiment",
        "run_policy_grid", "shared_trace", "SweepSpec",
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



_PACKAGES = sorted(
    ".".join(path.parent.relative_to(repro.__path__[0]).parts)
    for path in Path(repro.__path__[0]).rglob("__init__.py")
)


@pytest.mark.parametrize("package", _PACKAGES, ids=lambda p: p or "repro")
def test_lazy_exports_resolve_and_list(package):
    """Every package resolves its ``__all__`` on first access: each name
    binds to a non-module value, appears in ``dir()`` and is bound by
    ``from package import *``."""
    import importlib
    import types

    name = "repro" + (f".{package}" if package else "")
    module = importlib.import_module(name)
    listed = dir(module)
    starred: dict = {}
    exec(f"from {name} import *", starred)
    for export in module.__all__:
        value = getattr(module, export)
        assert not isinstance(value, types.ModuleType), export
        assert export in listed, export
        assert starred[export] is value, export
    with pytest.raises(AttributeError):
        module.no_such_name
