"""The collector's exact window: open ≡ uncapped, closed ≡ folded.

Two collectors observe the *same* run — the system's, capped, and an
uncapped shadow riding the completion/cache subscription hooks as the
reference — so every comparison below is same-stream.  While the window
is open the two are one code path; once it closes, counts/rates stay
exact and quantiles hold the histogram's documented relative bound.
The fold state reached by closing is the state reached by folding from
the first completion.
"""

import csv

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
            collector.architectures[code]: (hist_state(s.hist), s.misses)
            for code, s in collector._arch_stats.items()
        },
        "sla": (collector.sla_total, collector.sla_violations),
        "queueing_sum": collector.queueing_sum,
    }


class TestClosedWindow:
    """Past the cap, against the uncapped shadow on the same stream."""

    @pytest.fixture(scope="class")
    def capped(self):
        system, shadows, workload = _run_with_shadows(
            SPEC_2K, SystemConfig(metrics_exact_cap=500), uncapped={}
        )
        kwargs = dict(policy="lalbo3", working_set=15, top_model=workload.top_model_id)
        got = summarize(system.metrics, system.cluster, **kwargs)
        ref = summarize(shadows["uncapped"], system.cluster, **kwargs)
        return system, shadows["uncapped"], got, ref

    def test_window_closed_past_cap(self, capped):
        system, reference, _, _ = capped
        assert system.metrics.completed_count > 500
        assert not system.metrics.window_open
        assert system.metrics._rows is None
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
        histograms, SLA counters and compensated sums end bit-for-bit where
        a collector that folded from the first completion ends."""
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
        assert state["sla"][0] == closed.completed_count  # every request has an SLA

    def test_open_window_folds_nothing(self):
        system, _, _ = _run_with_shadows(
            WorkloadSpec(working_set=15, minutes=1, seed=0), SystemConfig()
        )
        m = system.metrics
        assert m.window_open and m.completed_count > 0
        assert m.lat_hist.count == 0 and m._arch_stats == {} and m.sla_total == 0
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
    r = InferenceRequest(f"fn-{arch}", _INSTANCES[arch], arrival_time=arrival, sla_s=sla)
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
    got = summarize(capped, cluster, horizon=100.0)
    ref = summarize(uncapped, cluster, horizon=100.0)
    if n <= cap:
        assert got == ref
        assert per_architecture_breakdown(capped) == per_architecture_breakdown(uncapped)
        assert capped.completed == requests
    else:
        assert capped.completed == []
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


# ----------------------------------------------------------------------
# What the window holds, and what survives the close
# ----------------------------------------------------------------------
class TestWindowLifecycle:
    def test_requests_held_while_open_released_at_close(self):
        sim = Simulator()
        collector = MetricsCollector(sim, exact_cap=3)
        requests = [
            _completed_request(float(i), 1.0, 0.5, "alexnet", True, None)
            for i in range(5)
        ]
        lost = InferenceRequest("f", _INSTANCES["alexnet"], arrival_time=0.0)
        collector.on_lost(lost, "deadline")
        for r in requests[:3]:
            collector.on_complete(r)
        assert collector.window_open
        assert collector.completed == requests[:3]
        assert collector.lost == [lost]
        assert len(collector.columns()) == 3
        collector.on_complete(requests[3])  # n = 4 > cap: closes
        assert not collector.window_open
        assert collector.completed == [] and collector.lost == []
        assert collector.lost_count == 1
        assert collector.lat_hist.count == 4
        collector.on_complete(requests[4])  # folds directly
        collector.on_lost(lost, "deadline")  # counted, not retained
        assert collector.completed == [] and collector.lost == []
        assert (collector.completed_count, collector.lost_count) == (5, 2)
        assert collector.lost_reasons == {"deadline": 2}
        assert collector.lat_hist.count == 5

    def test_cap_zero_folds_from_the_first_completion(self):
        collector = MetricsCollector(Simulator(), exact_cap=0)
        assert collector.window_open  # nothing has outgrown it yet
        collector.on_complete(_completed_request(0.0, 1.0, 0.5, "alexnet", True, None))
        assert not collector.window_open
        assert collector.completed == []
        assert collector.lat_hist.count == 1

    def test_default_cap_never_closes(self):
        collector = MetricsCollector(Simulator())
        assert collector.exact_cap is None
        assert not hasattr(collector, "streaming")


class TestSpill:
    def test_rows_teed_to_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        spec = WorkloadSpec(working_set=15, minutes=1, sla_s=2.0, seed=0)
        system, shadows, _ = _run_with_shadows(
            spec,
            SystemConfig(metrics_exact_cap=10, metrics_spill_path=str(path)),
            uncapped={},
        )
        capped = system.metrics
        capped.close_spill()
        assert capped.spill_path == str(path)
        assert not capped.window_open
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # the spill holds full-fidelity rows, cap notwithstanding
        assert len(rows) == capped.completed_count
        ref = shadows["uncapped"].columns()
        assert float(rows[0]["arrival"]) == ref.arrival[0]
        assert float(rows[-1]["completed"]) == ref.completed[-1]
        assert rows[0]["architecture"] in capped.architectures
