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
        log.append(2.5, DecisionKind.LOST, 8, "m", "g1")
        assert list(log) == [d, Decision(2.5, DecisionKind.LOST, 8, "m", "g1")]
        assert all(type(x) is Decision for x in [*log, *log.last(2), *log.for_gpu("g1")])
        assert [tuple(map(type, x)) for x in log.last(1)] == [
            (float, DecisionKind, int, str, str, int)
        ]
        assert log.for_request(7) == [d]
        assert log.counts() == {"move_to_local": 1, "lost": 1}

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
        16-block log cost one block (~21 KB), not the whole ring (~344 KB)."""
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
        assert held < 2 * 21 * decisions.BLOCK

    def test_invalid_maxlen(self):
        with pytest.raises(ValueError):
            DecisionLog(maxlen=0)


U32_MAX = 2**32 - 1


class TestFieldWidths:
    """Every narrow column reads back its largest value exactly, and a
    value one past it raises instead of wrapping; the refused row is not
    appended."""

    @pytest.mark.parametrize("field", ["request_id", "visits"])
    def test_uint32_fields(self, field):
        log = DecisionLog()
        fields = dict(time_s=1.0, kind=DecisionKind.DISPATCH_HIT, request_id=1,
                      model_id="m", gpu_id="g0", visits=0)
        log.append(**{**fields, field: U32_MAX})
        assert getattr(log.last(1)[0], field) == U32_MAX
        for bad in (U32_MAX + 1, -1):
            with pytest.raises(OverflowError):
                log.append(**{**fields, field: bad})
        assert log.appended == len(log) == 1
        assert log.count(DecisionKind.DISPATCH_HIT) == 1

    @pytest.mark.parametrize("field", ["model_id", "gpu_id"])
    def test_uint16_codes(self, field):
        log = DecisionLog(maxlen=4)
        fields = dict(time_s=1.0, kind=DecisionKind.DISPATCH_MISS, request_id=1,
                      model_id="m", gpu_id="g0")
        for k in range(0x10000):  # every uint16 code
            log.append(**{**fields, field: f"x{k}"})
        last = "x65535"
        assert getattr(log.last(1)[0], field) == last
        assert [getattr(d, field) for d in log.for_request(1)][-1] == last
        with pytest.raises(OverflowError):
            log.append(**{**fields, field: "one too many"})
        assert log.appended == 0x10000
        # a value the table already holds still appends
        log.append(**{**fields, field: last})
        assert getattr(log.last(1)[0], field) == last

    def test_for_gpu_of_an_unseen_id_mints_no_code(self):
        log = DecisionLog()
        log.record(mk(DecisionKind.DISPATCH_HIT, gpu="g0"))
        log.record(mk(DecisionKind.RESUBMIT, gpu=None))
        assert log.for_gpu("g9") == []
        assert log._gpus.names == ["g0", None]
        assert [d.kind for d in log.for_gpu(None)] == [DecisionKind.RESUBMIT]


_MODELS = [f"m{k}" for k in range(40)]
_GPUS = [f"g{k}" for k in range(12)]
_rows = st.lists(
    st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.sampled_from(list(DecisionKind)),
        st.integers(0, 5),
        st.sampled_from(_MODELS),
        st.sampled_from([*_GPUS, None]),
        st.integers(0, 3),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=_rows, maxlen=st.integers(1, 9), block=st.integers(1, 4))
def test_the_ring_reads_like_the_spec_deque(rows, maxlen, block):
    """Any append sequence on the columnar ring (small ``maxlen``, blocks
    of 1–4 rows, so growth, wrap and eviction all happen; many model and
    GPU strings and ``None`` GPU ids, so the code tables fill in any order)
    reads exactly as the literal deque log after every append, and its
    per-kind counts cover every append (they never fall)."""
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
        for gpu_id in (*_GPUS, None, "never-seen"):
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
