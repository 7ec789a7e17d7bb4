"""Failure-injection tests: GPUs dying mid-load, mid-inference, and at rest.

The paper's evaluation assumes healthy GPUs; a production runtime cannot.
These tests fail GPUs at every interesting moment and assert the system's
recovery contract: no request is ever lost, cache state never references a
dead GPU, and recovered GPUs come back empty and schedulable.
"""

import pytest

from repro.cluster import ClusterSpec, GPUState
from repro.core import TenantQuota
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig


@pytest.fixture
def system():
    return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalb"))


def submit(system, req):
    system.submit(req)
    return req


class TestFailureDuringExecution:
    def test_fail_during_load_retries_elsewhere(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        assert r.gpu_id == gpu0.gpu_id
        system.run(until=1.0)  # mid-upload (load takes 2.67 s)
        assert gpu0.state is GPUState.LOADING
        system.fail_gpu(gpu0.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu1.gpu_id  # retried on the survivor
        assert r.retries == 1

    def test_fail_during_inference_retries(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=3.0)  # load done at 2.67, inferring until 3.95
        assert gpu0.state is GPUState.INFERRING
        system.fail_gpu(gpu0.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu1.gpu_id

    def test_failed_gpu_loses_cached_models(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run()
        gpu_id = r.gpu_id
        system.fail_gpu(gpu_id)
        assert not system.cache.cached_anywhere(r.model_id)
        assert system.cluster.gpu(gpu_id).resident_models() == []
        assert system.cluster.gpu(gpu_id).used_mb == 0.0

    def test_offline_gpu_not_schedulable(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        system.fail_gpu(gpu0.gpu_id)
        r = submit(system, make_request("fn-a", "alexnet"))
        system.run()
        assert r.gpu_id == gpu1.gpu_id

    def test_all_gpus_failed_requests_wait(self, system, make_request):
        for gpu in list(system.cluster.gpus):
            system.fail_gpu(gpu.gpu_id)
        r = submit(system, make_request())
        system.run()
        assert r.completed_at is None
        assert len(system.scheduler.global_queue) == 1

    def test_datastore_status_offline(self, system, make_request):
        gpu0 = system.cluster.gpus[0]
        system.fail_gpu(gpu0.gpu_id)
        assert system.datastore.kv.get_value(f"gpu/status/{gpu0.gpu_id}") == "offline"


class TestRecovery:
    def test_recovered_gpu_serves_again(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        system.fail_gpu(gpu0.gpu_id)
        system.fail_gpu(gpu1.gpu_id)
        r = submit(system, make_request())
        system.run()
        assert r.completed_at is None
        system.recover_gpu(gpu0.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu0.gpu_id

    def test_recovered_gpu_is_empty(self, system, make_request):
        gpu0 = system.cluster.gpus[0]
        r = submit(system, make_request())
        system.run()
        system.fail_gpu(r.gpu_id)
        system.recover_gpu(r.gpu_id)
        assert system.cluster.gpu(r.gpu_id).is_idle
        assert system.cluster.gpu(r.gpu_id).resident_models() == []

    def test_recover_online_gpu_rejected(self, system):
        with pytest.raises(RuntimeError):
            system.recover_gpu(system.cluster.gpus[0].gpu_id)


class TestLocalQueueFailure:
    def test_local_queue_requests_requeued_in_arrival_order(self, system, make_request):
        """Requests bound to a failed GPU's local queue go back to the
        global queue at their arrival position."""
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-hot", get_profile("resnet50"))
        warmup = make_request("fn-hot-warm", "resnet50", model=inst)
        gpu1.begin_inference()  # park gpu1 → warmup loads the model on gpu0
        submit(system, warmup)
        system.run()
        gpu1.become_idle()
        # a hit keeps gpu0 busy inferring (1.28 s < 2.67 s load) ...
        r0 = make_request("fn-hot0", "resnet50", arrival=system.sim.now, model=inst)
        gpu1.begin_inference()
        submit(system, r0)
        gpu1.become_idle()
        # ... so the next same-model request is bound to gpu0's local queue
        r1 = make_request("fn-hot1", "resnet50", arrival=system.sim.now, model=inst)
        submit(system, r1)
        assert system.scheduler.local_queues.length(gpu0) == 1
        system.fail_gpu(gpu0.gpu_id)
        system.run()
        # both the in-flight r0 and the local-queued r1 completed on gpu1
        assert r0.completed_at is not None and r0.gpu_id == gpu1.gpu_id
        assert r1.completed_at is not None and r1.gpu_id == gpu1.gpu_id
        assert r0.exec_start_at < r1.exec_start_at  # arrival order preserved


class TestKillAudit:
    """Audit of the ``GPU.kill(force=True)`` / ``go_offline`` paths: the
    kernel must cancel the killed process's pending completion events,
    and the cluster's incremental idle accounting must stay consistent
    through crash → recover at every GPU state."""

    def test_fail_mid_load_leaks_no_events(self, make_request):
        # single GPU: the killed load's completion event must be cancelled
        # (leaving the live count); after recovery the request completes and
        # the simulator drains to zero live events
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 1), policy="lalb")
        )
        gpu = system.cluster.gpus[0]
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=1.0)
        assert gpu.state is GPUState.LOADING
        system.fail_gpu(gpu.gpu_id)
        system.run()
        assert r.completed_at is None  # nowhere to run yet
        system.recover_gpu(gpu.gpu_id)
        system.run()
        assert r.completed_at is not None and r.retries == 1
        assert len(system.sim) == 0  # no cancelled-but-counted events

    def test_fail_mid_inference_leaks_no_events(self, make_request):
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 1), policy="lalb")
        )
        gpu = system.cluster.gpus[0]
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=3.0)  # load done at 2.67, inferring until 3.95
        assert gpu.state is GPUState.INFERRING
        system.fail_gpu(gpu.gpu_id)
        system.recover_gpu(gpu.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert len(system.sim) == 0

    def test_idle_count_through_crash_of_idle_gpu(self, system, make_request):
        assert system.cluster.idle_count == 2
        gpu0 = system.cluster.gpus[0]
        system.fail_gpu(gpu0.gpu_id)
        assert system.cluster.idle_count == 1
        assert gpu0 not in system.cluster.idle_gpus()
        assert gpu0 not in system.cluster.idle_gpus_by_frequency()
        system.recover_gpu(gpu0.gpu_id)
        assert system.cluster.idle_count == 2
        assert gpu0 in system.cluster.idle_gpus()

    def test_idle_count_through_crash_mid_dispatch(self, system, make_request):
        """Crash while the GPU is busy (mid-load): it never passes through
        idle on the way offline, and recovery files it back exactly once."""
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=1.0)
        assert gpu0.state is GPUState.LOADING
        assert system.cluster.idle_count == 1  # gpu1 only
        system.fail_gpu(gpu0.gpu_id)
        # busy → offline doesn't touch the counter, and the retried request
        # immediately dispatched onto the survivor — so nothing is idle now
        assert system.cluster.idle_count == 0
        assert gpu1.state is GPUState.LOADING
        system.recover_gpu(gpu0.gpu_id)
        assert system.cluster.idle_count == 1  # the recovered GPU, filed once
        system.run()
        assert r.completed_at is not None and r.gpu_id == gpu1.gpu_id
        # both GPUs idle again; the view and the counter agree
        assert system.cluster.idle_count == len(system.cluster.idle_gpus()) == 2


class TestGracefulDrain:
    def test_drain_idle_gpu_retires_immediately(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run()
        assert r.gpu_id == gpu0.gpu_id
        system.drain_gpu(gpu0.gpu_id)
        assert not gpu0.is_online
        assert not system.cache.cached_anywhere(r.model_id)
        assert gpu0.resident_models() == []
        assert system.datastore.kv.get_value(f"gpu/status/{gpu0.gpu_id}") == "offline"

    def test_drain_busy_gpu_finishes_running_work(self, system, make_request):
        """The drain contract vs. fail_gpu: in-flight work is NOT aborted —
        it finishes on the draining GPU, which only then goes offline."""
        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=1.0)
        assert gpu0.state is GPUState.LOADING
        system.drain_gpu(gpu0.gpu_id)
        assert gpu0.is_online  # still finishing
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu0.gpu_id  # completed where it started
        assert r.retries == 0           # never aborted, never resubmitted
        assert not gpu0.is_online       # then retired
        assert not system.cache.cached_anywhere(r.model_id)

    def test_drain_reschedules_local_queue(self, system, make_request):
        """Queued (not yet running) work on the draining GPU reschedules
        onto survivors instead of dying with it."""
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-hot", get_profile("resnet50"))
        warmup = make_request("fn-hot-warm", "resnet50", model=inst)
        gpu1.begin_inference()  # park gpu1 → warmup loads on gpu0
        submit(system, warmup)
        system.run()
        gpu1.become_idle()
        r0 = make_request("fn-hot0", "resnet50", arrival=system.sim.now, model=inst)
        gpu1.begin_inference()
        submit(system, r0)  # hit keeps gpu0 busy
        gpu1.become_idle()
        r1 = make_request("fn-hot1", "resnet50", arrival=system.sim.now, model=inst)
        submit(system, r1)  # same model → bound to gpu0's local queue
        assert system.scheduler.local_queues.length(gpu0) == 1
        system.drain_gpu(gpu0.gpu_id)
        system.run()
        assert r0.completed_at is not None and r0.gpu_id == gpu0.gpu_id
        assert r1.completed_at is not None and r1.gpu_id == gpu1.gpu_id
        assert not gpu0.is_online
        assert len(system.sim) == 0

    def test_drained_gpu_recovers(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        system.drain_gpu(gpu0.gpu_id)
        assert not gpu0.is_online
        system.recover_gpu(gpu0.gpu_id)
        assert gpu0.is_online and gpu0.is_idle
        r = submit(system, make_request("fn-a", "alexnet"))
        gpu1.begin_inference()  # force the recovered GPU to take it
        system.run()
        gpu1.become_idle()
        assert r.gpu_id == gpu0.gpu_id

    def test_work_bound_during_the_drain_window_is_resubmitted(self, system, make_request):
        """A request the policy binds to the draining GPU's local queue
        after ``drain_gpu`` returns goes back through ``resubmit`` when the
        GPU retires (the manager's ``on_drained`` callback)."""
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-hot", get_profile("resnet50"))
        warmup = make_request("fn-hot-warm", "resnet50", model=inst)
        gpu1.begin_inference()  # park gpu1 → warmup loads on gpu0
        submit(system, warmup)
        system.run()
        gpu1.become_idle()
        r0 = make_request("fn-hot0", "resnet50", arrival=system.sim.now, model=inst)
        gpu1.begin_inference()
        submit(system, r0)  # hit keeps gpu0 busy
        gpu1.become_idle()
        system.drain_gpu(gpu0.gpu_id)  # local queue empty: nothing to resubmit yet
        r1 = make_request("fn-hot1", "resnet50", arrival=system.sim.now, model=inst)
        submit(system, r1)  # same model → bound to the draining gpu0
        assert system.scheduler.local_queues.length(gpu0) == 1
        system.run()
        assert r0.gpu_id == gpu0.gpu_id and r0.retries == 0
        assert r1.completed_at is not None and r1.gpu_id == gpu1.gpu_id
        assert r1.retries == 1
        assert not gpu0.is_online
        assert len(system.sim) == 0


def _single_gpu():
    return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1), policy="lalb"))


class TestResubmission:
    """Displaced work re-enters the global queue at its arrival position,
    immediately and without limit; nothing times a request out."""

    def test_resubmit_is_immediate(self, system, make_request):
        from repro.core.decisions import DecisionKind

        gpu0, gpu1 = system.cluster.gpus
        r = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=1.0)
        system.fail_gpu(gpu0.gpu_id)
        # redispatched to the survivor within the failure call itself
        assert r.gpu_id == gpu1.gpu_id
        assert len(system.scheduler.global_queue) == 0
        rows = system.scheduler.decisions.for_request(r.request_id)
        assert [(d.time_s, d.kind) for d in rows] == [
            (0.0, DecisionKind.DISPATCH_MISS),
            (1.0, DecisionKind.RESUBMIT),
            (1.0, DecisionKind.DISPATCH_MISS),
        ]
        system.run()
        assert r.completed_at is not None and r.retries == 1

    def test_resubmits_have_no_limit(self, make_request):
        from repro.core.decisions import DecisionKind

        system = _single_gpu()
        gpu = system.cluster.gpus[0]
        r = submit(system, make_request("fn-a", "resnet50"))
        for _ in range(5):
            system.run(until=system.sim.now + 1.0)  # mid-load every time
            assert gpu.state is GPUState.LOADING
            system.fail_gpu(gpu.gpu_id)
            system.recover_gpu(gpu.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert r.retries == 5
        assert system.metrics.lost_count == 0
        assert system.scheduler.decisions.counts() == {
            DecisionKind.DISPATCH_MISS.value: 6,
            DecisionKind.RESUBMIT.value: 5,
        }
        assert len(system.sim) == 0

    def test_a_queued_request_outlives_any_outage(self, make_request):
        """Submitting arms no per-request timer: a request queued while
        every GPU is down waits, however long, and completes on recovery."""
        from repro.core.request import RequestState

        system = _single_gpu()
        gpu = system.cluster.gpus[0]
        system.fail_gpu(gpu.gpu_id)
        r = submit(system, make_request("fn-a", "resnet50"))
        assert len(system.sim) == 0
        system.run(until=10_000.0)
        assert r.state is RequestState.QUEUED
        assert list(system.scheduler.global_queue) == [r]
        system.recover_gpu(gpu.gpu_id)
        system.run()
        assert r.completed_at is not None
        assert r.exec_start_at >= 10_000.0
        assert system.metrics.lost_count == 0
        assert system.metrics.lost_reasons == {}

    def test_resubmitted_request_goes_ahead_of_later_arrivals(self, make_request):
        system = _single_gpu()
        gpu = system.cluster.gpus[0]
        old = submit(system, make_request("fn-a", "resnet50"))
        system.run(until=1.0)
        new = submit(system, make_request("fn-b", "alexnet", arrival=system.sim.now))
        assert list(system.scheduler.global_queue) == [new]
        system.fail_gpu(gpu.gpu_id)
        assert list(system.scheduler.global_queue) == [old, new]
        system.recover_gpu(gpu.gpu_id)
        system.run()
        assert old.completed_at is not None and new.completed_at is not None
        assert old.exec_start_at < new.exec_start_at

    def test_every_resubmit_reaches_the_retry_counters(self, system, make_request):
        from repro.metrics.summary import summarize

        gpu0, gpu1 = system.cluster.gpus
        a = submit(system, make_request("fn-a", "resnet50"))
        b = submit(system, make_request("fn-b", "alexnet"))
        assert (a.gpu_id, b.gpu_id) == (gpu0.gpu_id, gpu1.gpu_id)
        system.run(until=1.0)
        system.fail_gpu(gpu0.gpu_id)  # gpu1 busy: a waits in the global queue
        system.fail_gpu(gpu1.gpu_id)
        system.recover_gpu(gpu0.gpu_id)
        system.recover_gpu(gpu1.gpu_id)
        system.run()
        assert (a.retries, b.retries) == (1, 1)
        assert system.scheduler.decisions.counts()["resubmit"] == 2
        assert system.metrics.retries_total == 2
        summary = summarize(system.metrics, system.cluster)
        assert summary.total_retries == 2
        assert summary.completed_requests == 2 and summary.lost_requests == 0


class TestTenancyCleanup:
    def test_reservation_released_on_abort(self, make_request):
        system = FaaSCluster(
            SystemConfig(
                cluster=ClusterSpec.homogeneous(1, 2),
                policy="lalb",
                quotas={"t": TenantQuota(max_processes=1)},
            )
        )
        inst = ModelInstance("fn-t", get_profile("resnet50"), tenant="t")
        system.register_model(inst)
        r = make_request("fn-t", "resnet50", tenant="t", model=inst)
        system.submit(r)
        system.run(until=1.0)  # mid-load: reservation held
        assert system.tenancy.processes("t") == 1
        system.fail_gpu(r.gpu_id)
        # the aborted load's reservation is gone, then the retry re-reserves
        system.run()
        assert r.completed_at is not None
        assert system.tenancy.processes("t") == 1  # one real process


class TestQueueResorting:
    def test_push_sorted_restores_arrival_order(self, make_request):
        from repro.core.queues import GlobalQueue

        q = GlobalQueue()
        a = make_request("a", arrival=1.0)
        b = make_request("b", arrival=2.0)
        c = make_request("c", arrival=3.0)
        q.push(a)
        q.push(c)
        q.push_sorted(b)
        assert [r.function_name for r in q] == ["a", "b", "c"]

    def test_push_sorted_to_empty_and_tail(self, make_request):
        from repro.core.queues import GlobalQueue

        q = GlobalQueue()
        b = make_request("b", arrival=5.0)
        q.push_sorted(b)
        late = make_request("z", arrival=9.0)
        q.push_sorted(late)
        assert [r.function_name for r in q] == ["b", "z"]

    def test_push_sorted_duplicate_rejected(self, make_request):
        from repro.core.queues import GlobalQueue

        q = GlobalQueue()
        r = make_request()
        q.push(r)
        with pytest.raises(ValueError):
            q.push_sorted(r)

    def test_reset_for_retry_clears_execution_state(self, make_request):
        r = make_request()
        r.gpu_id = "g"
        r.dispatched_at = 1.0
        r.cache_hit = False
        r.false_miss = True
        r.reset_for_retry()
        assert r.gpu_id is None and r.dispatched_at is None
        assert r.cache_hit is None and r.false_miss is False
        assert r.retries == 1

    def test_reset_completed_request_rejected(self, make_request):
        r = make_request()
        r.completed_at = 5.0
        from repro.core.request import RequestState

        r.state = RequestState.COMPLETED
        with pytest.raises(RuntimeError):
            r.reset_for_retry()
