"""Chaos subsystem against a live system: injector, watchdog, control plane.

Covers the runtime half of :mod:`repro.chaos` — faults compiled into
simulator events actually crash/slow/silence the right components, the
health watchdog escalates and self-heals, deadlines and retry budgets
bound the damage, and every replay drains to zero live events (no fault
may leak simulator state).
"""

import pytest

from repro.chaos import ChaosInjector, FaultPlan, build_fault_plan
from repro.chaos.plan import GPUCrash, LeaseExpiry, Straggler
from repro.cluster import ClusterSpec
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload


def _system(plan=None, *, gpus=2, policy="lalb", **kwargs):
    return FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(1, gpus),
            policy=policy,
            fault_plan=plan,
            **kwargs,
        )
    )


class TestInjector:
    def test_crash_and_recover_records_mttr(self, make_request):
        plan = FaultPlan(
            "crash", faults=(GPUCrash(at_s=1.0, gpu_index=0, recover_after_s=4.0),)
        )
        system = _system(plan)
        gpu0, gpu1 = system.cluster.gpus
        r = make_request("fn-a", "resnet50")
        system.submit(r)
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu1.gpu_id  # crash mid-load pushed it over
        assert r.retries == 1
        assert gpu0.is_online  # recovered
        assert system.chaos.injected == 1
        assert system.metrics.faults_injected == 1
        assert system.metrics.repairs == [("crash", gpu0.gpu_id, 4.0)]
        assert system.metrics.mean_mttr() == 4.0
        assert len(system.sim) == 0

    def test_crash_against_offline_gpu_is_skipped(self, make_request):
        """Overlapping crashes on one target: the second finds the GPU
        already offline and must not double-inject (or double-recover)."""
        plan = FaultPlan(
            "overlap",
            faults=(
                GPUCrash(at_s=1.0, gpu_index=0, recover_after_s=10.0),
                GPUCrash(at_s=2.0, gpu_index=0, recover_after_s=1.0),
            ),
        )
        system = _system(plan)
        system.run()
        assert system.chaos.injected == 1
        assert system.cluster.gpus[0].is_online
        assert len(system.sim) == 0

    def test_straggler_slows_real_execution(self, make_request):
        healthy = _system(None, gpus=1)
        r_fast = make_request("fn-a", "resnet50")
        healthy.submit(r_fast)
        healthy.run()

        plan = FaultPlan(
            "slow",
            faults=(Straggler(at_s=0.0, gpu_index=0, factor=3.0, duration_s=100.0),),
        )
        slowed = _system(plan, gpus=1)
        # arrive in-sim at 1.0 so the dispatch happens after the straggler
        # fault (armed at 0.0) has taken effect
        r_slow = make_request("fn-b", "resnet50", arrival=1.0)
        slowed.submit_at(r_slow)
        slowed.run()
        # the device underdelivers: same request, ~3x the wall time
        assert (r_slow.completed_at - 1.0) > r_fast.completed_at * 2
        assert slowed.metrics.repairs[0][0] == "straggler"
        assert len(slowed.sim) == 0


class TestHealthWatchdog:
    def test_lease_expiry_escalates_and_self_heals(self, make_request):
        plan = FaultPlan(
            "silent", faults=(LeaseExpiry(at_s=1.0, gpu_index=0, duration_s=6.0),)
        )
        system = _system(plan)
        gpu0 = system.cluster.gpus[0]
        offline_window = []
        system.sim.schedule_at(6.0, lambda: offline_window.append(gpu0.is_online))
        system.run()
        # mid-suppression the missed heartbeats had taken the GPU offline...
        assert offline_window == [False]
        # ...and resumed heartbeats healed it
        assert gpu0.is_online
        health = system.health
        assert health.escalations >= 1
        assert health.recoveries >= 1
        assert health.retired  # past the horizon the beat loop stops
        kinds = [kind for kind, _, _ in system.metrics.repairs]
        assert "lease_expiry" in kinds
        assert len(system.sim) == 0  # the heartbeat loop doesn't run forever

    def test_escalated_gpu_requeues_work(self, make_request):
        plan = FaultPlan(
            "silent", faults=(LeaseExpiry(at_s=1.0, gpu_index=0, duration_s=8.0),)
        )
        system = _system(plan)
        gpu0, gpu1 = system.cluster.gpus
        # the first beat (t=1.0) refreshes before suppression lands, so the
        # lease expires at 4.0; a request loading on gpu0 at that moment is
        # evicted by the escalation and retried on gpu1
        r = make_request("fn-a", "resnet50", arrival=2.0)
        system.submit_at(r)  # dispatches at 2.0, loading until 4.67
        system.run()
        assert r.completed_at is not None
        assert r.gpu_id == gpu1.gpu_id  # escalation evicted it from gpu0
        assert r.retries == 1
        assert len(system.sim) == 0

    def test_watchdog_without_faults_is_not_built(self):
        system = _system(None)
        assert system.health is None and system.chaos is None
        assert len(system.sim) == 0  # zero chaos events when disarmed


class TestDeadlines:
    def test_queued_request_times_out(self, make_request):
        from repro.core.decisions import DecisionKind
        from repro.core.request import RequestState

        system = _system(None, gpus=1, deadline_s=2.0)
        gpu = system.cluster.gpus[0]
        system.fail_gpu(gpu.gpu_id)  # nowhere to run: request stays queued
        r = make_request("fn-a", "resnet50")
        system.submit(r)
        system.run()
        assert r.completed_at is None
        assert r.state is RequestState.LOST
        assert len(system.scheduler.global_queue) == 0  # removed, not stuck
        assert system.scheduler.lost_count == 1
        assert system.metrics.lost_reasons == {"deadline": 1}
        kinds = [d.kind for d in system.scheduler.decisions]
        assert DecisionKind.TIMEOUT in kinds
        assert len(system.sim) == 0

    def test_dispatched_request_is_never_timed_out(self, make_request):
        from repro.core.decisions import DecisionKind

        # deadline shorter than the cold run (load 2.67 + infer): the
        # request is already executing when the timer fires, so it is
        # committed work and must complete
        system = _system(None, gpus=1, deadline_s=0.5)
        r = make_request("fn-a", "resnet50")
        system.submit(r)
        system.run()
        assert r.completed_at is not None
        assert system.scheduler.lost_count == 0
        assert DecisionKind.TIMEOUT not in [d.kind for d in system.scheduler.decisions]
        assert len(system.sim) == 0

    def test_lost_requests_reach_the_summary(self, make_request):
        from repro.metrics.summary import summarize

        system = _system(None, gpus=1, deadline_s=1.0)
        gpu = system.cluster.gpus[0]
        ok = make_request("fn-a", "resnet50")
        system.submit(ok)
        system.run()  # completes while the GPU is healthy
        system.fail_gpu(gpu.gpu_id)
        doomed = make_request("fn-b", "alexnet", arrival=system.sim.now)
        system.submit(doomed)
        system.run()
        summary = summarize(system.metrics, system.cluster)
        assert summary.completed_requests == 1
        assert summary.lost_requests == 1
        assert summary.goodput_rps > 0


class TestConfigValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="fault profile"):
            SystemConfig(fault_profile="blast-radius")

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(deadline_s=0.0)

    def test_bad_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(max_retries=-1)

    def test_ttl_must_exceed_heartbeat(self):
        with pytest.raises(ValueError):
            SystemConfig(health_heartbeat_s=2.0, health_ttl_s=1.0)


class TestAvailabilityUnderChaos:
    def test_recoverable_replay_loses_nothing(self, make_request):
        """The acceptance property in miniature: a recoverable plan over a
        busy workload completes everything with bounded retries."""
        from repro.metrics.summary import summarize

        plan = build_fault_plan("recoverable", seed=2, horizon_s=30.0, gpus=4)
        system = FaaSCluster(
            SystemConfig(
                cluster=ClusterSpec.homogeneous(2, 2),
                policy="lalbo3",
                fault_plan=plan,
            )
        )
        requests = [
            make_request(f"fn-{i % 6}", "resnet18", arrival=i * 0.2) for i in range(120)
        ]
        for r in requests:
            system.submit_at(r)
        system.run()
        assert all(r.completed_at is not None for r in requests)
        summary = summarize(system.metrics, system.cluster)
        assert summary.lost_requests == 0
        assert summary.completed_requests == 120
        assert summary.faults_injected >= len(plan) - 1  # overlaps may skip
        assert summary.mean_mttr_s > 0
        assert len(system.sim) == 0

    def test_recoverable_profile_over_the_2k_paper_replay(self):
        """The shipped ``recoverable`` profile over the default 2k §V-A
        replay on the paper testbed: every request completes, none lost,
        retries stay bounded, and two runs of the same plan + seed produce
        the identical decision log (request ids are process-global, so
        they are compared as submission ranks)."""

        def replay():
            requests = build_workload(WorkloadSpec(working_set=15, minutes=6)).requests
            rank = {r.request_id: i for i, r in enumerate(requests)}
            system = FaaSCluster(SystemConfig(fault_profile="recoverable"))
            system.submit_workload(requests)
            system.run()
            decisions = [
                (d.time_s, d.kind, rank[d.request_id], d.model_id, d.gpu_id, d.visits)
                for d in system.scheduler.decisions
            ]
            return system, requests, decisions

        system, requests, decisions = replay()
        m = system.metrics
        assert m.lost_count == 0
        assert len(m.completed) == len(requests)
        assert m.faults_injected > 0
        assert m.retries_total > 0  # the faults actually hit loaded GPUs
        assert max(r.retries for r in requests) <= 8
        assert replay()[2] == decisions
