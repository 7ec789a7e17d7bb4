"""Unit + integration tests for the scheduling decision log."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import DecisionKind, DecisionLog, decisions
from repro.core.decisions import Decision
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig
from tests.spec.decisions import SpecDecisionLog


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

    def test_ring_evicts_rows_but_counts_every_append(self):
        """Past a full ring the rows are the newest ``maxlen``, but
        ``count`` / ``counts`` / ``hit_rate`` cover every decision ever
        appended: the ``repro_decisions_total`` counter never falls."""
        log = DecisionLog(maxlen=2)
        log.record(mk(DecisionKind.DISPATCH_HIT, req_id=1))
        log.record(mk(DecisionKind.DISPATCH_MISS, req_id=2))
        log.record(mk(DecisionKind.DISPATCH_MISS, req_id=3))
        assert len(log) == 2
        assert [d.request_id for d in log] == [2, 3]
        assert log.count(DecisionKind.DISPATCH_HIT) == 1
        assert log.count(DecisionKind.DISPATCH_MISS) == 2
        assert log.counts() == {"dispatch_hit": 1, "dispatch_miss": 2}
        assert log.hit_rate() == pytest.approx(1 / 3)

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
        """Rows are stored as columns (the kind as a code); every read hands
        back the ``Decision`` that was recorded, its fields plain atoms."""
        log = DecisionLog()
        d = Decision(1.5, DecisionKind.MOVE_TO_LOCAL, 7, "m", None, visits=3)
        log.record(d)
        log.append(2.5, DecisionKind.TIMEOUT, 8, "m", "g1")
        assert list(log) == [d, Decision(2.5, DecisionKind.TIMEOUT, 8, "m", "g1")]
        assert all(type(x) is Decision for x in [*log, *log.last(2), *log.for_gpu("g1")])
        assert [tuple(map(type, x)) for x in log.last(1)] == [
            (float, DecisionKind, int, str, str, int)
        ]
        assert log.for_request(7) == [d]
        assert log.counts() == {"move_to_local": 1, "timeout": 1}

    def test_appended_counts_past_a_full_ring(self):
        """``appended`` is monotonic; the length stops at ``maxlen``."""
        log = DecisionLog(maxlen=3)
        for req_id in range(7):
            log.record(mk(DecisionKind.DISPATCH_HIT, req_id=req_id))
        assert len(log) == 3 and log.appended == 7
        assert [d.request_id for d in log] == [4, 5, 6]
        assert [d.request_id for d in log.last(1)] == [6]

    def test_a_small_log_does_not_preallocate_its_ring(self):
        """The columns grow a block at a time: ten rows in a default
        100k-row log cost one block (~50 KB), not the whole ring (~5 MB)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = DecisionLog()
            for req_id in range(10):
                log.record(mk(DecisionKind.DISPATCH_HIT, req_id=req_id))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == 10
        assert held < 2 * 49 * decisions.BLOCK

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            DecisionLog(maxlen=0)


_rows = st.lists(
    st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.sampled_from(list(DecisionKind)),
        st.integers(0, 5),
        st.sampled_from(["m0", "m1"]),
        st.sampled_from(["g0", "g1", None]),
        st.integers(0, 3),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=_rows, maxlen=st.integers(1, 9), block=st.integers(1, 4))
def test_the_ring_reads_like_the_spec_deque(rows, maxlen, block):
    """Any append sequence on the columnar ring (small ``maxlen``, blocks
    of 1–4 rows, so growth, wrap and eviction all happen) reads exactly as
    the literal deque log after every append, and its per-kind counts
    cover every append (they never fall)."""
    with mock.patch.object(decisions, "BLOCK", block):
        log, spec = DecisionLog(maxlen=maxlen), SpecDecisionLog(maxlen=maxlen)
        for row in rows:
            log.append(*row)
            spec.append(*row)
            assert list(log) == list(spec)
            assert log.last(1) == spec.last(1)
        assert (len(log), log.appended) == (len(spec), spec.appended)
        assert log.counts() == spec.counts()
        assert sum(log.counts().values()) == log.appended == len(rows)
        assert log.hit_rate() == spec.hit_rate()
        for kind in DecisionKind:
            assert log.count(kind) == spec.count(kind)
        for request_id in range(6):
            assert log.for_request(request_id) == spec.for_request(request_id)
        for gpu_id in ("g0", "g1", None):
            assert log.for_gpu(gpu_id) == spec.for_gpu(gpu_id)
        for n in range(-1, maxlen + 2):
            assert log.last(n) == spec.last(n)


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
        requests = []
        for i in range(6):
            requests.append(make_request(f"fn-{i}", "alexnet", arrival=system.sim.now))
            system.submit(requests[-1])
            system.run()
        log = system.scheduler.decisions
        misses = sum(1 for r in requests if r.cache_hit is False)
        assert log.count(DecisionKind.DISPATCH_MISS) == misses
