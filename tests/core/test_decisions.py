"""Unit + integration tests for the scheduling decision log."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import DecisionKind, DecisionLog
from repro.core.decisions import Decision
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig


def mk(kind, req_id=1, t=0.0, gpu="g0"):
    return Decision(time_s=t, kind=kind, request_id=req_id, model_id="m", gpu_id=gpu)


class TestDecisionLog:
    def test_record_and_count(self):
        log = DecisionLog()
        log.record(mk(DecisionKind.DISPATCH_HIT))
        log.record(mk(DecisionKind.DISPATCH_MISS))
        log.record(mk(DecisionKind.DISPATCH_HIT))
        assert len(log) == 3
        assert log.count(DecisionKind.DISPATCH_HIT) == 2
        assert log.hit_rate() == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert DecisionLog().hit_rate() == 0.0

    def test_ring_buffer_evicts_and_recounts(self):
        log = DecisionLog(maxlen=2)
        log.record(mk(DecisionKind.DISPATCH_HIT, req_id=1))
        log.record(mk(DecisionKind.DISPATCH_MISS, req_id=2))
        log.record(mk(DecisionKind.DISPATCH_MISS, req_id=3))
        assert len(log) == 2
        assert log.count(DecisionKind.DISPATCH_HIT) == 0
        assert log.count(DecisionKind.DISPATCH_MISS) == 2

    def test_queries(self):
        log = DecisionLog()
        log.record(mk(DecisionKind.DISPATCH_HIT, req_id=7, gpu="g1"))
        log.record(mk(DecisionKind.MOVE_TO_LOCAL, req_id=7, gpu="g2"))
        log.record(mk(DecisionKind.DISPATCH_MISS, req_id=9, gpu="g1"))
        assert [d.kind for d in log.for_request(7)] == [
            DecisionKind.DISPATCH_HIT,
            DecisionKind.MOVE_TO_LOCAL,
        ]
        assert len(log.for_gpu("g1")) == 2
        assert [d.request_id for d in log.last(2)] == [7, 9]

    def test_last_zero_is_empty_and_last_n_is_the_tail(self):
        """``last(0)`` returned the whole log (``list(log)[-0:]``)."""
        log = DecisionLog()
        for req_id in range(5):
            log.record(mk(DecisionKind.DISPATCH_HIT, req_id=req_id))
        assert log.last(0) == [] and log.last(-3) == []
        assert [d.request_id for d in log.last(2)] == [3, 4]
        assert [d.request_id for d in log.last(99)] == [0, 1, 2, 3, 4]

    def test_reads_name_the_rows(self):
        """Rows are stored as exact tuples (the kind as its value string);
        every read hands back the ``Decision`` that was recorded."""
        log = DecisionLog()
        d = Decision(1.5, DecisionKind.MOVE_TO_LOCAL, 7, "m", None, visits=3)
        log.record(d)
        log.append(2.5, DecisionKind.TIMEOUT, 8, "m", "g1")
        assert log._log[0] == (1.5, "move_to_local", 7, "m", None, 3)
        assert list(log) == [d, Decision(2.5, DecisionKind.TIMEOUT, 8, "m", "g1")]
        assert all(type(x) is Decision for x in [*log, *log.last(2), *log.for_gpu("g1")])
        assert log.for_request(7) == [d]

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            DecisionLog(maxlen=0)


class TestSchedulerIntegration:
    @pytest.fixture
    def system(self):
        return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalb"))

    def test_miss_then_hit_recorded(self, system, make_request):
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        r1 = make_request("fn-m", "resnet50", model=inst)
        system.submit(r1)
        system.run()
        r2 = make_request("fn-m", "resnet50", arrival=system.sim.now, model=inst)
        system.submit(r2)
        system.run()
        log = system.scheduler.decisions
        kinds = [d.kind for d in log]
        assert kinds[0] is DecisionKind.DISPATCH_MISS
        assert DecisionKind.DISPATCH_HIT in kinds
        assert log.hit_rate() == pytest.approx(0.5)

    def test_move_and_local_dispatch_recorded(self, system, make_request):
        gpu0, gpu1 = system.cluster.gpus
        inst = ModelInstance("fn-m", get_profile("resnet50"))
        warm = make_request("w", "resnet50", model=inst)
        gpu1.begin_inference()
        system.submit(warm)
        system.run()
        gpu1.become_idle()
        # hit keeps gpu0 busy; next same-model request moves to local queue
        a = make_request("a", "resnet50", arrival=system.sim.now, model=inst)
        gpu1.begin_inference()
        system.submit(a)
        gpu1.become_idle()
        b = make_request("b", "resnet50", arrival=system.sim.now, model=inst)
        system.submit(b)
        system.run()
        log = system.scheduler.decisions
        assert log.count(DecisionKind.MOVE_TO_LOCAL) == 1
        assert log.count(DecisionKind.DISPATCH_LOCAL) == 1
        moved = log.for_request(b.request_id)
        assert [d.kind for d in moved] == [
            DecisionKind.MOVE_TO_LOCAL,
            DecisionKind.DISPATCH_LOCAL,
        ]

    def test_resubmit_recorded_on_failure(self, system, make_request):
        r = system_submit = make_request("fn", "resnet50")
        system.submit(system_submit)
        system.run(until=1.0)
        system.fail_gpu(r.gpu_id)
        system.run()
        assert system.scheduler.decisions.count(DecisionKind.RESUBMIT) == 1

    def test_log_agrees_with_request_outcomes(self, system, make_request):
        for i in range(6):
            system.submit(make_request(f"fn-{i}", "alexnet", arrival=system.sim.now))
            system.run()
        log = system.scheduler.decisions
        misses = sum(1 for r in system.completed if r.cache_hit is False)
        assert log.count(DecisionKind.DISPATCH_MISS) == misses
