"""Scheduler overhead: the §VI scalability data structures.

§VI: "the Scheduler maintains an auxiliary data structure that links the
queued requests to their corresponding models ... the complexity of this
search is bounded by the number of models cached on the GPU", and "the
Cache Manager maintains the lists of GPUs where each model is cached".

These benches measure both index lookups directly and show they stay flat
as the queue grows, unlike a linear scan.
"""

import os
import time

import pytest

from repro.core.queues import GlobalQueue
from repro.core.request import InferenceRequest
from repro.models import ModelInstance, get_profile


def _filled_queue(n_requests: int, n_models: int = 50):
    q = GlobalQueue()
    instances = [ModelInstance(f"m{i}", get_profile("alexnet")) for i in range(n_models)]
    for i in range(n_requests):
        q.push(
            InferenceRequest(
                f"fn{i % n_models}", instances[i % n_models], arrival_time=float(i)
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


def test_model_index_is_queue_length_independent():
    """Index lookups must not degrade with queue depth (amortized O(1))."""

    def measure(n):
        q, instances = _filled_queue(n)
        target = instances[0].instance_id
        t0 = time.perf_counter()
        for _ in range(2000):
            q.first_for_model(target)
        return time.perf_counter() - t0

    small = measure(100)
    large = measure(20_000)
    # allow generous noise but reject linear scaling (200x size ratio)
    assert large < small * 20


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
    from repro.sim import Simulator

    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(4, 4))
    cache = CacheManager(sim, cluster.gpus)
    hot = ModelInstance("hot", get_profile("resnet50"))
    for gpu in cluster.gpus[:8]:
        gpu.admit("hot", hot.occupied_mb).mark_ready(0.0)
        cache.on_loaded(gpu.gpu_id, hot)
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
            InferenceRequest(f"fn{i % 30}", instances[i % 30], arrival_time=float(i))
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


def _system_with_hit_at_tail(depth: int):
    """LALBO3 system: 11 busy GPUs, 1 idle GPU caching only the tail request's model."""
    from repro.cluster import ClusterSpec
    from repro.runtime import FaaSCluster, SystemConfig

    system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(3, 4)))
    instances = [ModelInstance(f"m{i}", get_profile("alexnet")) for i in range(30)]
    hot = ModelInstance("hot", get_profile("alexnet"))
    idle = system.cluster.gpus[0]
    idle.admit(hot.instance_id, hot.occupied_mb).mark_ready(0.0)
    system.cache.on_loaded(idle.gpu_id, hot)
    for gpu in system.cluster.gpus[1:]:
        gpu.begin_inference()
    queue = system.scheduler.global_queue
    for i in range(depth - 1):
        queue.push(
            InferenceRequest(f"fn{i % 30}", instances[i % 30], arrival_time=float(i))
        )
    queue.push(InferenceRequest("hot", hot, arrival_time=float(depth)))
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
    """Index-driven first scan with the cache hit at the tail of the queue.

    Exported to ``BENCH_scheduler.json`` by ``python -m repro.experiments
    bench`` as the per-depth pass-cost trajectory.
    """

    def setup():
        system = _system_with_hit_at_tail(depth)
        return (system,), {}

    progress = benchmark.pedantic(_one_pass, setup=setup, rounds=5, iterations=1)
    assert progress is True


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
    """The index-driven scan must dominate the reference O(queue) scan.

    Guards the fast path against regressions that would quietly fall back
    to (or underperform) the literal Algorithm-1 loop — the scan a pass
    runs for the one idle GPU when a tenant quota binds.
    """

    def literal_scan(system):
        scheduler = system.scheduler
        return scheduler.policy._schedule_gpu_reference(scheduler, system.cluster.gpus[0])

    def ratio(rounds):
        t_ref = _one_pass_best(2_000, run_pass=literal_scan, rounds=rounds)
        t_fast = _one_pass_best(2_000, rounds=rounds)
        return t_fast / t_ref

    _assert_ratio(ratio, 1 / 5)
