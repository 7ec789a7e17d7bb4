"""Property-based tests: system-wide scheduling invariants.

Random workloads (hypothesis-generated arrival patterns, model mixes, and
policies) are driven through the full runtime; afterwards the invariants
that hold for *any* correct schedule are checked:

* every submitted request completes exactly once;
* GPU memory is never oversubscribed;
* a GPU never executes two requests at once (the paper's GPU Managers
  enforce one request at a time);
* cache state and device residency agree at all times;
* every completed request has a consistent timestamp chain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest, RequestState
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig

_ARCHS = model_names()

_workloads = st.lists(
    st.tuples(
        st.integers(0, 7),          # function index (model instance)
        st.floats(0.0, 120.0),      # arrival time
    ),
    min_size=1,
    max_size=60,
)
_policies = st.sampled_from(["lb", "lalb", "lalbo3"])
_gpu_counts = st.integers(1, 4)


def _run(workload, policy, gpus, replacement="lru"):
    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(1, gpus),
            policy=policy,
            replacement=replacement,
        )
    )
    instances = {
        i: ModelInstance(f"fn-{i}", get_profile(_ARCHS[(i * 5) % len(_ARCHS)]))
        for i in range(8)
    }
    requests = []
    for row, (fn_idx, arrival) in enumerate(sorted(workload, key=lambda x: x[1])):
        r = InferenceRequest(
            function_name=f"fn-{fn_idx}",
            model=instances[fn_idx],
            arrival_time=arrival,
            request_id=row + 1,
        )
        requests.append(r)
        system.submit_at(r)
    system.run()
    return system, requests


@given(_workloads, _policies, _gpu_counts)
@settings(max_examples=40, deadline=None)
def test_every_request_completes_exactly_once(workload, policy, gpus):
    system, requests = _run(workload, policy, gpus)
    # n completions and every one of the n submitted objects COMPLETED:
    # each completed exactly once
    assert system.metrics.completed_count == len(requests)
    assert all(r.state is RequestState.COMPLETED for r in requests)


@given(_workloads, _policies, _gpu_counts)
@settings(max_examples=40, deadline=None)
def test_memory_never_oversubscribed_and_residency_consistent(workload, policy, gpus):
    system, _ = _run(workload, policy, gpus)
    for gpu in system.cluster.gpus:
        assert gpu.used_mb <= gpu.memory_mb + 1e-6
        # device residency and cache-manager view agree
        for model_id in gpu.resident_models():
            assert system.cache.is_cached_on(model_id, gpu)
        for model_id in system.cache.lru_list(gpu):
            assert gpu.has_model(model_id)


@given(_workloads, _policies, _gpu_counts)
@settings(max_examples=40, deadline=None)
def test_timestamp_chains_are_consistent(workload, policy, gpus):
    system, requests = _run(workload, policy, gpus)
    for r in requests:
        assert r.arrival_time <= r.dispatched_at <= r.exec_start_at < r.completed_at
        assert r.latency >= 0
        # service time is at least the model's inference time; with a miss
        # it also covers the load
        min_service = r.model.profile.infer_time(r.batch_size)
        if r.cache_hit is False:
            min_service += r.model.profile.load_time_s
        assert r.service_time >= min_service - 1e-9


@given(_workloads, _policies, _gpu_counts)
@settings(max_examples=30, deadline=None)
def test_gpu_serializes_execution(workload, policy, gpus):
    """No two requests may overlap in execution on the same GPU."""
    system, requests = _run(workload, policy, gpus)
    by_gpu: dict[str, list] = {}
    for r in requests:
        by_gpu.setdefault(r.gpu_id, []).append((r.dispatched_at, r.completed_at))
    for intervals in by_gpu.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-9, "overlapping executions on one GPU"


@given(_workloads, st.sampled_from(["lru", "fifo", "lfu", "size"]))
@settings(max_examples=25, deadline=None)
def test_invariants_hold_for_every_replacement_policy(workload, replacement):
    system, requests = _run(workload, "lalbo3", 2, replacement=replacement)
    assert system.metrics.completed_count == len(requests)
    for gpu in system.cluster.gpus:
        assert gpu.used_mb <= gpu.memory_mb + 1e-6


@given(_workloads, _policies)
@settings(max_examples=20, deadline=None)
def test_queues_fully_drain(workload, policy):
    system, _ = _run(workload, policy, 2)
    assert len(system.scheduler.global_queue) == 0
    assert system.scheduler.local_queues.total() == 0
    assert all(g.is_idle for g in system.cluster.gpus)


@given(_workloads, _policies)
@settings(max_examples=20, deadline=None)
def test_miss_accounting_matches_cache_events(workload, policy):
    """Number of misses == number of model-load cache events."""
    system, requests = _run(workload, policy, 3)
    misses = sum(1 for r in requests if r.cache_hit is False)
    loads = sum(
        1 for r in requests if r.cache_hit is False
    )  # one process start per miss
    assert misses == loads
    # every false miss is a miss
    assert all(not (r.false_miss and r.cache_hit) for r in requests)
