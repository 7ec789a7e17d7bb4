"""The collector's exact window: open ≡ uncapped, closed ≡ folded.

Two collectors observe the *same* run — the system's, capped, and an
uncapped shadow riding the completion/cache subscription hooks as the
reference — so every comparison below is same-stream.  While the window
is open the two are one code path; once it closes, counts/rates stay
exact and quantiles hold the histogram's documented relative bound.
The fold state reached by closing is the state reached by folding from
the first completion, and the counters (misses, per-architecture misses,
SLA totals and violations) run from the first completion whatever the
cap.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster
from repro.core.request import InferenceRequest
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import per_architecture_breakdown, summarize
from repro.models import ModelInstance, get_profile
from repro.runtime import FaaSCluster, SystemConfig
from repro.sim import Simulator
from repro.traces import WorkloadSpec, build_workload

SPEC_2K = WorkloadSpec(working_set=15, minutes=6, sla_s=2.0, seed=0)


def _run_with_shadows(spec, config, **shadows):
    """One §V-A run on ``config``; each ``name=collector_kwargs`` shadow is
    a stand-alone collector subscribed to the same completion/cache streams."""
    workload = build_workload(spec)
    system = FaaSCluster(config)
    collectors = {}
    for name, kwargs in shadows.items():
        shadow = collectors[name] = MetricsCollector(system.sim, **kwargs)
        system.subscribe_completion(shadow.on_complete)
        system.cache.subscribe(shadow.on_cache_event)
    system.submit_workload(workload)
    system.run()
    return system, collectors, workload


def _fold_state(collector):
    """Everything `_fold` accumulates, compared with ``==``."""
    def hist_state(h):
        return (h.counts.tolist(), h.count, h.min, h.max, h.sum, h.variance())

    return {
        "latency": hist_state(collector.lat_hist),
        "per_arch": {
            collector.architectures[code]: hist_state(hist)
            for code, hist in collector._arch_hists.items()
        },
        "queueing_sum": collector.queueing_sum,
    }


def _counters(collector):
    """Every running counter, compared with ``==``."""
    return {
        "misses": collector.miss_count,
        "false_misses": collector.false_miss_count,
        "per_arch_misses": dict(zip(collector.architectures, collector._arch_misses)),
        "sla": (collector.sla_total, collector.sla_violations),
    }


class TestClosedWindow:
    """Past the cap, against the uncapped shadow on the same stream."""

    @pytest.fixture(scope="class")
    def capped(self):
        system, shadows, workload = _run_with_shadows(
            SPEC_2K, SystemConfig(retention=500), uncapped={}
        )
        kwargs = dict(policy="lalbo3", working_set=15, top_model=workload.top_model_id)
        got = summarize(system.metrics, system.cluster, **kwargs)
        ref = summarize(shadows["uncapped"], system.cluster, **kwargs)
        return system, shadows["uncapped"], got, ref

    def test_window_closed_past_cap(self, capped):
        system, reference, _, _ = capped
        assert system.metrics.completed_count > 500
        assert not system.metrics.window_open
        with pytest.raises(RuntimeError):
            system.metrics.columns()
        assert reference.window_open
        assert len(reference.columns()) == reference.completed_count

    def test_counts_and_rates_stay_exact(self, capped):
        _, _, got, ref = capped
        assert got.completed_requests == ref.completed_requests
        assert got.cache_miss_ratio == ref.cache_miss_ratio
        assert got.false_miss_ratio == ref.false_miss_ratio
        assert got.sla_violation_ratio == ref.sla_violation_ratio
        assert got.goodput_rps == ref.goodput_rps
        assert got.sm_utilization == ref.sm_utilization
        assert got.avg_duplicates_top_model == ref.avg_duplicates_top_model

    def test_means_compensated_to_float64_truth(self, capped):
        _, _, got, ref = capped
        assert got.avg_latency_s == pytest.approx(ref.avg_latency_s, rel=1e-12)
        assert got.avg_queueing_s == pytest.approx(ref.avg_queueing_s, rel=1e-12)
        assert got.latency_variance == pytest.approx(ref.latency_variance, rel=1e-9)

    def test_quantiles_within_documented_bound(self, capped):
        system, _, got, ref = capped
        bound = system.metrics.lat_hist.relative_error + 1e-12
        assert abs(got.p50_latency_s - ref.p50_latency_s) / ref.p50_latency_s <= bound
        assert abs(got.p99_latency_s - ref.p99_latency_s) / ref.p99_latency_s <= bound

    def test_breakdown_counts_exact_means_bounded(self, capped):
        system, reference, _, _ = capped
        ref = per_architecture_breakdown(reference)
        got = per_architecture_breakdown(system.metrics)
        assert list(got) == list(ref)
        for arch, cell in got.items():
            assert cell["count"] == ref[arch]["count"]
            assert cell["miss_ratio"] == ref[arch]["miss_ratio"]
            assert cell["avg_latency_s"] == pytest.approx(
                ref[arch]["avg_latency_s"], rel=1e-12
            )


class TestClosingEqualsFolding:
    def test_fold_state_is_independent_of_the_cap(self):
        """Closing at 500 replays the window in completion order, so the
        histograms and the compensated sum end bit-for-bit where a
        collector that folded from the first completion ends; the counters
        ran from the first completion in both."""
        _, shadows, _ = _run_with_shadows(
            SPEC_2K,
            SystemConfig(),
            from_start={"exact_cap": 0},
            closed_at_500={"exact_cap": 500},
        )
        from_start, closed = shadows["from_start"], shadows["closed_at_500"]
        assert not from_start.window_open and not closed.window_open
        assert closed.completed_count > 500
        state = _fold_state(closed)
        assert state == _fold_state(from_start)
        assert state["latency"][1] == closed.completed_count
        counters = _counters(closed)
        assert counters == _counters(from_start)
        assert counters["sla"][0] == closed.completed_count  # every request has an SLA
        assert sum(counters["per_arch_misses"].values()) == counters["misses"]

    def test_open_window_folds_nothing(self):
        """While the window is open no histogram and no float sum folds;
        only the integer counters run."""
        system, _, _ = _run_with_shadows(
            WorkloadSpec(working_set=15, minutes=1, sla_s=2.0, seed=0), SystemConfig()
        )
        m = system.metrics
        assert m.window_open and m.completed_count > 0
        assert m.lat_hist.count == 0 and m._arch_hists == {}
        assert m.queueing_sum == 0.0 and (m._queue_sum, m._queue_sum_c) == (0.0, 0.0)
        assert m.sla_total == m.completed_count and m.miss_count > 0
        assert sum(m._arch_misses) == m.miss_count
        # ... yet the on-demand histogram covers every completion
        assert m.latency_histogram().count == m.completed_count


# ----------------------------------------------------------------------
# Generated streams
# ----------------------------------------------------------------------
_ARCHS = ("alexnet", "resnet50", "vgg19")
_INSTANCES = {a: ModelInstance(f"m-{a}", get_profile(a)) for a in _ARCHS}

_completion = st.tuples(
    st.floats(1e-3, 50.0),                       # latency
    st.floats(0.0, 1.0),                         # queueing share of latency
    st.sampled_from(_ARCHS),
    st.sampled_from((True, False, None)),        # cache hit
    st.one_of(st.none(), st.floats(0.1, 20.0)),  # SLA
)


def _completed_request(arrival, latency, queue_share, arch, hit, sla):
    # callers arrive request i at t = i, so it is request i + 1
    r = InferenceRequest(f"fn-{arch}", _INSTANCES[arch], arrival, int(arrival) + 1, sla_s=sla)
    r.dispatched_at = arrival + latency * queue_share
    r.completed_at = arrival + latency
    r.cache_hit = hit
    r.false_miss = hit is False and latency > 10.0
    r.gpu_id = "gpu0"
    return r


@given(
    stream=st.lists(_completion, min_size=1, max_size=40),
    cap=st.integers(0, 45),
)
@settings(max_examples=120, deadline=None)
def test_open_window_is_the_uncapped_collector_and_close_keeps_counts(stream, cap):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 1))
    capped = MetricsCollector(sim, exact_cap=cap)
    uncapped = MetricsCollector(sim)
    requests = [
        _completed_request(float(i), *fields) for i, fields in enumerate(stream)
    ]
    for r in requests:
        capped.on_complete(r)
        uncapped.on_complete(r)
    n = len(requests)
    assert capped.completed_count == uncapped.completed_count == n
    assert capped.window_open == (n <= cap)
    # the counters run from the first completion: a recount of the stream
    sla = [r for r in requests if r.sla_s is not None]
    violations = sum(r.completed_at - r.arrival_time > r.sla_s for r in sla)
    misses = {
        arch: sum(r.cache_hit is False for r in requests if r.model.architecture == arch)
        for arch in capped.architectures
    }
    for collector in (capped, uncapped):
        assert (collector.sla_total, collector.sla_violations) == (len(sla), violations)
        assert dict(zip(collector.architectures, collector._arch_misses)) == misses
    got = summarize(capped, cluster, horizon=100.0)
    ref = summarize(uncapped, cluster, horizon=100.0)
    if n <= cap:
        assert got == ref
        assert per_architecture_breakdown(capped) == per_architecture_breakdown(uncapped)
        cols = capped.columns()  # one row per completion, as recorded
        assert cols.latency.tolist() == [r.completed_at - r.arrival_time for r in requests]
        assert cols.queueing.tolist() == [r.dispatched_at - r.arrival_time for r in requests]
    else:
        with pytest.raises(RuntimeError):
            capped.columns()
        assert got.completed_requests == ref.completed_requests == n
        assert got.cache_miss_ratio == ref.cache_miss_ratio
        assert got.false_miss_ratio == ref.false_miss_ratio
        assert got.sla_violation_ratio == ref.sla_violation_ratio
        assert got.goodput_rps == ref.goodput_rps
        assert capped.lat_hist.count == n
        breakdown = per_architecture_breakdown(capped)
        for arch, cell in per_architecture_breakdown(uncapped).items():
            assert breakdown[arch]["count"] == cell["count"]
            assert breakdown[arch]["miss_ratio"] == cell["miss_ratio"]


def _bits(x):
    return np.float64(x).tobytes()


@given(
    stream=st.lists(_completion, min_size=1, max_size=40),
    undispatched=st.sets(st.integers(0, 39), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_open_window_summary_is_numpys_reductions_of_the_columns(stream, undispatched):
    """While the window is open, the summary's latency and queueing figures
    are NumPy's own reductions of the columns, bit for bit.
    ``avg_queueing_s`` is ``np.mean`` of the queueing column in completion
    order (NaN once a request was never dispatched), not the compensated
    running sum the closed window uses."""
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 1))
    collector = MetricsCollector(sim)
    for i, fields in enumerate(stream):
        r = _completed_request(float(i), *fields)
        if i in undispatched:
            r.dispatched_at = None
        collector.on_complete(r)
    cols = collector.columns()
    got = summarize(collector, cluster, horizon=100.0)
    assert _bits(got.avg_queueing_s) == _bits(np.mean(cols.queueing))
    assert _bits(got.avg_latency_s) == _bits(np.mean(cols.latency))
    assert _bits(got.latency_variance) == _bits(np.var(cols.latency))
    assert _bits(got.p50_latency_s) == _bits(np.percentile(cols.latency, 50))
    assert _bits(got.p99_latency_s) == _bits(np.percentile(cols.latency, 99))
    assert collector.queueing_sum == 0.0  # nothing folded
    names = collector.architectures
    for arch, cell in per_architecture_breakdown(collector).items():
        sel = cols.latency[cols.architecture == names.index(arch)]
        assert cell["count"] == len(sel)
        assert _bits(cell["avg_latency_s"]) == _bits(np.mean(sel))
        assert _bits(cell["p99_latency_s"]) == _bits(np.percentile(sel, 99))


# ----------------------------------------------------------------------
# What the window holds, and what survives the close
# ----------------------------------------------------------------------
class TestWindowLifecycle:
    def test_rows_held_while_open_lost_requests_released_at_close(self):
        sim = Simulator()
        collector = MetricsCollector(sim, exact_cap=3)
        requests = [
            _completed_request(float(i), 1.0, 0.5, "alexnet", True, None)
            for i in range(5)
        ]
        lost = InferenceRequest("f", _INSTANCES["alexnet"], arrival_time=0.0, request_id=6)
        collector.on_lost(lost, "stranded")
        for r in requests[:3]:
            collector.on_complete(r)
        assert collector.window_open
        assert collector.lost == [lost]
        cols = collector.columns()
        assert cols.latency.tolist() == [1.0, 1.0, 1.0]
        assert cols.queueing.tolist() == [0.5, 0.5, 0.5]
        collector.on_complete(requests[3])  # n = 4 > cap: closes
        assert not collector.window_open
        assert collector.lost == []
        assert collector.lost_count == 1
        assert collector.lat_hist.count == 4
        collector.on_complete(requests[4])  # folds directly
        collector.on_lost(lost, "stranded")  # counted, not retained
        assert collector.lost == []
        assert (collector.completed_count, collector.lost_count) == (5, 2)
        assert collector.lost_reasons == {"stranded": 2}
        assert collector.lat_hist.count == 5

    def test_a_completed_request_is_not_retained(self):
        """The row is the only per-completion record: ``on_complete``
        keeps no reference to the request, whether it lands in the open
        window or folds past the close."""
        for cap in (None, 0):
            collector = MetricsCollector(Simulator(), exact_cap=cap)
            request = _completed_request(0.0, 1.0, 0.5, "alexnet", True, None)
            before = sys.getrefcount(request)
            collector.on_complete(request)
            assert sys.getrefcount(request) == before
            assert collector.completed_count == 1

    def test_columns_copy_the_buffer_and_it_keeps_growing(self):
        """``columns()`` hands out copies of every field as recorded (a
        request never dispatched queues NaN), and the window still grows
        after a read (a live view over the buffer would make the next
        completion raise ``BufferError``)."""
        collector = MetricsCollector(Simulator())
        requests = [
            _completed_request(0.0, 12.0, 0.25, "alexnet", False, 2.0),
            _completed_request(1.0, 1.5, 0.5, "resnet50", None, None),
        ]
        requests[1].dispatched_at = None
        collector.on_complete(requests[0])
        first = collector.columns()
        collector.on_complete(requests[1])
        cols = collector.columns()
        assert len(first) == 1 and len(cols) == 2
        assert first.latency.tolist() == [12.0] and first.queueing.tolist() == [3.0]
        assert cols.latency.tolist() == [12.0, 1.5]
        assert cols.latency.dtype == cols.queueing.dtype == np.float64
        assert cols.queueing[0] == 3.0 and np.isnan(cols.queueing[1])
        names = collector.architectures
        assert [names[c] for c in cols.architecture] == ["alexnet", "resnet50"]
        assert cols.architecture.dtype == np.int32
        # what the row no longer holds, the counters do
        assert (collector.miss_count, collector.false_miss_count) == (1, 1)
        assert (collector.sla_total, collector.sla_violations) == (1, 1)
        assert collector._arch_misses == [1, 0]

    def test_sla_and_miss_counters_at_their_boundaries(self):
        """A completion exactly at its SLA is within it; one with no SLA is
        not an SLA completion; an unknown cache outcome (``None``) is not a
        miss.  The counters say so whether the window is open or closed."""
        for cap in (None, 0):
            collector = MetricsCollector(Simulator(), exact_cap=cap)
            for r in (
                _completed_request(0.0, 2.0, 0.5, "alexnet", True, 2.0),  # at the SLA
                _completed_request(1.0, 2.5, 0.5, "alexnet", False, 2.0),  # late
                _completed_request(2.0, 9.0, 0.5, "resnet50", None, None),  # no SLA
            ):
                collector.on_complete(r)
            assert (collector.sla_total, collector.sla_violations) == (2, 1)
            assert collector.miss_count == 1 and collector._arch_misses == [1, 0]
            assert collector.window_open == (cap is None)

    def test_cap_zero_folds_from_the_first_completion(self):
        collector = MetricsCollector(Simulator(), exact_cap=0)
        assert collector.window_open  # nothing has outgrown it yet
        collector.on_complete(_completed_request(0.0, 1.0, 0.5, "alexnet", True, None))
        assert not collector.window_open
        assert collector.lat_hist.count == 1

    def test_default_cap_never_closes(self):
        collector = MetricsCollector(Simulator())
        assert collector.exact_cap is None
        assert not hasattr(collector, "streaming")



class TestRowWidths:
    """The window's uint16 architecture code reads back at its largest
    value exactly; the next new name raises instead of wrapping, before
    any counter moves."""

    def test_architecture_code_at_its_maximum(self):
        collector = MetricsCollector(Simulator())
        codes = collector._archs
        for k in range(0xFFFF):  # every code but the last, taken
            codes[f"taken-{k}"]
        collector.on_complete(_completed_request(0.0, 1.0, 0.5, "alexnet", True, None))
        assert collector.columns().architecture.tolist() == [0xFFFF]
        assert collector.architectures[0xFFFF] == "alexnet"
        new = _completed_request(1.0, 1.0, 0.5, "resnet50", False, 0.5)
        with pytest.raises(OverflowError):
            collector.on_complete(new)
        assert collector.completed_count == len(collector.columns()) == 1
        assert collector.miss_count == 0 and sum(collector._invocations.values()) == 1
        assert collector.sla_total == collector.sla_violations == 0
        assert sum(collector._arch_misses) == 0
