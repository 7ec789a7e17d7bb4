"""Unit tests for finish-time estimation (Alg. 2's hit-vs-miss comparison)."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.core.estimator import FinishTimeEstimator
from repro.core.queues import LocalQueues
from repro.models import ProfileRegistry
from repro.sim import Simulator


@pytest.fixture
def env():
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 2))
    lq = LocalQueues()
    est = FinishTimeEstimator(sim, ProfileRegistry.from_table1(), lq, cluster.gpus)
    return sim, cluster, lq, est


def test_idle_gpu_finish_time_is_now(env):
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    assert est.estimated_finish_time(gpu) == sim.now
    assert est.wait_time(gpu) == 0.0


def test_busy_until_tracked(env):
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    est.set_busy_until(gpu.gpu_id, 5.0)
    assert est.estimated_finish_time(gpu) == 5.0
    est.clear_busy(gpu.gpu_id)
    assert est.estimated_finish_time(gpu) == sim.now


def test_stale_busy_until_clamped_to_now(env):
    """A busy_until in the past must not produce negative waits."""
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    est.set_busy_until(gpu.gpu_id, 1.0)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert est.estimated_finish_time(gpu) == sim.now
    assert est.wait_time(gpu) == 0.0


def test_local_queue_requests_add_inference_time(env, make_request):
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    est.set_busy_until(gpu.gpu_id, 2.0)
    lq.push(gpu.gpu_id, make_request("fn-a", "resnet50"))  # 1.28 s
    lq.push(gpu.gpu_id, make_request("fn-b", "alexnet"))  # 1.25 s
    assert est.estimated_finish_time(gpu) == pytest.approx(2.0 + 1.28 + 1.25)


def test_profile_lookup_methods(env, make_request):
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    r = make_request("fn", "vgg19")
    assert est.load_time(r, gpu) == pytest.approx(4.07)
    assert est.infer_time(r, gpu) == pytest.approx(1.33)


def test_infer_time_respects_batch_size(env, make_request):
    sim, cluster, lq, est = env
    gpu = cluster.gpus[0]
    small = make_request("fn", "vgg19", batch_size=1)
    big = make_request("fn", "vgg19", batch_size=64)
    assert est.infer_time(small, gpu) < est.infer_time(big, gpu)


class TestIncrementalQueuedCost:
    """The running per-GPU inference-time sum vs. the reference walk."""

    def test_incremental_sum_tracks_push_pop(self, env, make_request):
        sim, cluster, lq, est = env
        gpu = cluster.gpus[0]
        rng_ops = [
            make_request(f"fn-{i}", arch)
            for i, arch in enumerate(["resnet50", "alexnet", "vgg19", "vgg16"])
        ]
        for r in rng_ops:
            lq.push(gpu.gpu_id, r)
            assert est.queued_cost(gpu) == pytest.approx(est.reference_queued_cost(gpu))
        while lq.length(gpu.gpu_id):
            lq.pop(gpu.gpu_id)
            assert est.queued_cost(gpu) == pytest.approx(est.reference_queued_cost(gpu))

    def test_sum_resets_exactly_at_empty(self, env, make_request):
        sim, cluster, lq, est = env
        gpu = cluster.gpus[0]
        for _ in range(3):
            lq.push(gpu.gpu_id, make_request("fn", "resnet50"))
        while lq.length(gpu.gpu_id):
            lq.pop(gpu.gpu_id)
        assert est.queued_cost(gpu) == 0.0  # exact zero, not accumulated drift

    def test_queue_mutation_for_unknown_gpu_raises(self, env, make_request):
        sim, cluster, lq, est = env
        # devices are fixed at construction: there is no lazy fallback
        with pytest.raises(KeyError):
            lq.push("no-such-gpu", make_request("fn", "alexnet"))

    def test_estimated_finish_time_uses_running_sum(self, env, make_request):
        sim, cluster, lq, est = env
        gpu = cluster.gpus[0]
        est.set_busy_until(gpu.gpu_id, 2.0)
        lq.push(gpu.gpu_id, make_request("fn-a", "resnet50"))  # 1.28 s
        assert est.estimated_finish_time(gpu) == pytest.approx(2.0 + 1.28)


class TestHitVsMissDecision:
    def test_short_wait_beats_load(self, env, make_request):
        sim, cluster, lq, est = env
        busy, idle = cluster.gpus
        busy.begin_inference()
        est.set_busy_until(busy.gpu_id, 1.0)  # wait 1.0 < load 2.67
        r = make_request("fn", "resnet50")
        assert est.hit_on_busy_beats_miss_on_idle(r, busy, idle)

    def test_long_wait_loses_to_load(self, env, make_request):
        sim, cluster, lq, est = env
        busy, idle = cluster.gpus
        busy.begin_inference()
        est.set_busy_until(busy.gpu_id, 10.0)  # wait 10 > load 2.67
        r = make_request("fn", "resnet50")
        assert not est.hit_on_busy_beats_miss_on_idle(r, busy, idle)

    def test_local_queue_pushes_wait_over_threshold(self, env, make_request):
        sim, cluster, lq, est = env
        busy, idle = cluster.gpus
        busy.begin_inference()
        est.set_busy_until(busy.gpu_id, 2.0)  # wait 2.0 < 2.67 → would win
        r = make_request("fn", "resnet50")
        assert est.hit_on_busy_beats_miss_on_idle(r, busy, idle)
        # one queued hit (1.28s) tips it over: 3.28 > 2.67
        lq.push(busy.gpu_id, make_request("other", "resnet50"))
        assert not est.hit_on_busy_beats_miss_on_idle(r, busy, idle)
