"""Scheduler overhead: the §VI scalability data structures.

§VI: "the Scheduler maintains an auxiliary data structure that links the
queued requests to their corresponding models ... the complexity of this
search is bounded by the number of models cached on the GPU", and "the
Cache Manager maintains the lists of GPUs where each model is cached".

These benches measure both index lookups directly and show they stay flat
as the queue grows, unlike a linear scan.
"""

import os
import sys
import time

import pytest

from repro.core.queues import GlobalQueue
from repro.core.request import InferenceRequest
from repro.core.tenancy import TenantQuota
from repro.models import ModelInstance, get_profile
from tests.spec.policies import SpecLALBPolicy


def _filled_queue(n_requests: int, n_models: int = 50):
    q = GlobalQueue()
    instances = [ModelInstance(f"m{i}", get_profile("alexnet")) for i in range(n_models)]
    for i in range(n_requests):
        q.push(
            InferenceRequest(
                f"fn{i % n_models}", instances[i % n_models], float(i), i + 1
            )
        )
    return q, instances


def test_model_index_lookup(benchmark):
    """first_for_model on a 10k-deep queue — the §VI auxiliary index."""
    q, instances = _filled_queue(10_000)
    target = instances[37].instance_id
    result = benchmark(q.first_for_model, target)
    assert result is not None
    assert result.model_id == target


def _lookup_work(depth: int) -> tuple[int, int]:
    """Bytecodes executed and calls made by 2,000 ``first_for_model``
    lookups on a queue ``depth`` deep (exact run to run, whatever the
    machine's load)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("another tracer or profiler is installed in this process")
    q, instances = _filled_queue(depth)
    lookup, target = q.first_for_model, instances[0].instance_id
    opcodes = calls = 0

    def trace(frame, event, arg):
        nonlocal opcodes
        frame.f_trace_opcodes = True
        opcodes += event == "opcode"
        return trace

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        for _ in range(2000):
            lookup(target)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return opcodes, calls


def test_model_index_is_queue_length_independent():
    """Index lookups do not degrade with queue depth (amortized O(1)), as
    an exact count: 2,000 lookups at depth 20,000 execute at most 1 % more
    bytecodes and make at most 1 % more calls than at depth 100.  A scan
    of the model's queued requests, inline or through calls, grows both
    200-fold."""
    small, large = _lookup_work(100), _lookup_work(20_000)
    assert small[0] > 0 and small[1] >= 2000, small  # both hooks saw the lookups
    assert all(lg <= 1.01 * sm for sm, lg in zip(small, large)), (small, large)


def test_linear_scan_for_comparison(benchmark):
    """The naive scan the index replaces (documented cost baseline)."""
    q, instances = _filled_queue(10_000)
    target = instances[37].instance_id

    def scan():
        for request in q:
            if request.model_id == target:
                return request
        return None

    result = benchmark(scan)
    assert result is not None


def test_cache_locations_index(benchmark):
    """Cache Manager's model→GPUs index lookup (bounded by #copies)."""
    from repro.cluster import ClusterSpec, build_cluster
    from repro.core.cache_manager import CacheManager
    from repro.datastore import Datastore
    from repro.sim import Simulator

    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(4, 4))
    datastore = Datastore(sim)
    cache = CacheManager(sim, cluster.gpus, datastore=datastore)
    hot = ModelInstance("hot", get_profile("resnet50"))
    for gpu in cluster.gpus[:8]:
        gpu.admit("hot", hot.occupied_mb)
        cache.on_loaded(gpu, hot)
        datastore.flush()
    locations = benchmark(cache.locations, "hot")
    assert len(locations) == 8


def test_scheduling_pass_cost_at_depth(benchmark):
    """One full LALBO3 pass with a deep global queue and busy GPUs."""
    from repro.cluster import ClusterSpec
    from repro.runtime import FaaSCluster, SystemConfig

    system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(3, 4)))
    instances = [ModelInstance(f"m{i}", get_profile("alexnet")) for i in range(30)]
    for gpu in system.cluster.gpus:
        gpu.begin_inference()  # everything busy → pure queueing cost
    for i in range(2_000):
        system.scheduler.global_queue.push(
            InferenceRequest(f"fn{i % 30}", instances[i % 30], float(i), i + 1)
        )

    def one_pass():
        return system.scheduler.policy.schedule_pass(system.scheduler)

    progress = benchmark(one_pass)
    assert progress is False  # no idle GPU → no action, but the pass ran


# ---------------------------------------------------------------------------
# Depth scaling of a *working* pass: one idle GPU, hit at the queue tail.
#
# This is the scenario §VI's index bounds: the old first scan walked (and
# visit-stamped) every queued request before reaching the hit, so its cost
# grew linearly with queue depth; the index-driven scan does one lookup per
# resident model plus one lazy prefix update.
# ---------------------------------------------------------------------------

PASS_DEPTHS = (100, 2_000, 20_000)


#: a tenant quota that never binds: more GPU processes than the cluster holds
NON_BINDING = {"default": TenantQuota(max_processes=1000)}
#: a binding one: tenant "capped" owns every third model and may start no
#: process, so every scan passes its queued requests over
BINDING = {"capped": TenantQuota(max_processes=0)}


def _system_with_hit_at_tail(depth: int, quotas=None):
    """LALBO3 system: 11 busy GPUs, 1 idle GPU caching only the tail request's model."""
    from repro.cluster import ClusterSpec
    from repro.runtime import FaaSCluster, SystemConfig

    system = FaaSCluster(
        SystemConfig(cluster=ClusterSpec.homogeneous(3, 4), quotas=quotas or {})
    )
    instances = [
        ModelInstance(
            f"m{i}", get_profile("alexnet"), tenant="capped" if i % 3 == 0 else "default"
        )
        for i in range(30)
    ]
    hot = ModelInstance("hot", get_profile("alexnet"))
    idle = system.cluster.gpus[0]
    idle.admit(hot.instance_id, hot.occupied_mb)
    system.cache.on_loaded(idle, hot)
    for gpu in system.cluster.gpus[1:]:
        gpu.begin_inference()
    queue = system.scheduler.global_queue
    for i in range(depth - 1):
        queue.push(
            InferenceRequest(f"fn{i % 30}", instances[i % 30], float(i), i + 1)
        )
    queue.push(InferenceRequest("hot", hot, float(depth), depth))
    return system


def _one_pass(system) -> bool:
    return system.scheduler.policy.schedule_pass(system.scheduler)


def _one_pass_best(depth: int, *, run_pass=_one_pass, rounds: int = 5) -> float:
    """Best-of-``rounds`` wall time of one pass on a fresh system per round.

    The minimum is the noise-robust estimator for the ratio assertions
    below: a preempted round inflates the median on a loaded CI box, but
    only systematic cost moves the best observed time.
    """
    times = []
    for _ in range(rounds):
        system = _system_with_hit_at_tail(depth)
        t0 = time.perf_counter()
        progress = run_pass(system)
        times.append(time.perf_counter() - t0)
        assert progress is True  # the tail hit was found and dispatched
    return min(times)


@pytest.mark.parametrize("depth", PASS_DEPTHS)
def test_scheduling_scan_cost_at_depth(benchmark, depth):
    """Index-driven first scan with the cache hit at the tail of the queue."""

    def setup():
        system = _system_with_hit_at_tail(depth)
        return (system,), {}

    progress = benchmark.pedantic(_one_pass, setup=setup, rounds=5, iterations=1)
    assert progress is True


def _pass_calls(depth: int, quotas=None) -> int:
    """Python and builtin calls one working pass makes (cProfile's count
    does not move with machine load, so this holds on any box)."""
    import cProfile

    if sys.getprofile() is not None:
        pytest.skip("another profiler is installed in this process")
    system = _system_with_hit_at_tail(depth, quotas)
    profiler = cProfile.Profile()
    profiler.enable()
    progress = _one_pass(system)
    profiler.disable()
    assert progress is True
    return sum(entry.callcount for entry in profiler.getstats())


@pytest.mark.parametrize("quotas", [None, NON_BINDING], ids=["no_quota", "non_binding_quota"])
def test_pass_call_count_is_depth_independent(quotas):
    """§VI's bound as an exact count: one working pass makes the same
    number of Python and builtin calls at every queue depth, with or
    without a tenant quota that never binds.

    The count sees every per-entry call (a method, property or builtin
    per queued request); an inline loop that calls nothing is left to the
    wall-clock ratio test below.
    """
    calls = {depth: _pass_calls(depth, quotas) for depth in PASS_DEPTHS}
    assert len(set(calls.values())) == 1, calls


def test_binding_quota_pass_costs_under_one_call_per_queued_request():
    """A binding quota keeps one walk per scan over the refused models'
    queued requests (they are passed over without a visit); the literal
    scan made ~5 calls per queued request."""
    depth = 20_000
    assert _pass_calls(depth, BINDING) <= depth


#: set REPRO_PERF_ASSERTS=0 to demote the wall-clock ratio assertions on
#: machines too noisy for any timing bound (the benches still run/report)
_PERF_ASSERTS = os.environ.get("REPRO_PERF_ASSERTS", "1") != "0"


def _assert_ratio(measure, bound: float) -> None:
    """Assert ``measure() < bound`` with one retry at a larger sample.

    Best-of-rounds already rejects per-round preemption; the retry absorbs
    whole-measurement interference (e.g. a co-tenant saturating the box for
    the first sample) so a functionally correct build does not fail on
    wall-clock noise.
    """
    if not _PERF_ASSERTS:
        pytest.skip("REPRO_PERF_ASSERTS=0: timing assertions disabled")
    if measure(7) < bound:
        return
    assert measure(15) < bound


def test_scheduling_pass_cost_grows_sublinearly():
    """§VI's bound, asserted: 10× deeper queue ⇒ far less than 10× cost.

    The pre-index scan walked the whole queue (20k/2k ratio ≈ 10×); the
    index-driven scan must stay under 3× (it is ~1× plus tree noise).
    """

    def ratio(rounds):
        t_2k = _one_pass_best(2_000, rounds=rounds)
        t_20k = _one_pass_best(20_000, rounds=rounds)
        return t_20k / max(t_2k, 1e-5)  # floor guards against timer noise

    _assert_ratio(ratio, 3.0)


def test_fast_scan_beats_reference_scan():
    """The index-driven scan must dominate the literal O(queue) scan of
    the spec (``tests/spec/policies.py``).

    Guards the index scan against regressions that would quietly
    underperform the literal Algorithm-1 loop it replaces.
    """

    def literal_scan(system):
        scheduler = system.scheduler
        spec = SpecLALBPolicy(limit=scheduler.policy.limit)
        return spec._schedule_gpu_reference(scheduler, system.cluster.gpus[0])

    def ratio(rounds):
        t_ref = _one_pass_best(2_000, run_pass=literal_scan, rounds=rounds)
        t_fast = _one_pass_best(2_000, rounds=rounds)
        return t_fast / t_ref

    _assert_ratio(ratio, 1 / 5)
