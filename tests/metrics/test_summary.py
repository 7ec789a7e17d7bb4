"""Unit tests for run summaries (the paper's metric definitions)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster
from repro.metrics import MetricsCollector, summarize
from repro.metrics.summary import _percentile
from repro.sim import Simulator


@pytest.fixture
def env():
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 2))
    return sim, cluster, MetricsCollector(sim)


def completed(make_request, *, arrival, dispatched, done, hit, false_miss=False, fn="f", arch="alexnet"):
    r = make_request(fn, arch, arrival=arrival)
    r.dispatched_at = dispatched
    r.exec_start_at = dispatched
    r.completed_at = done
    r.cache_hit = hit
    r.false_miss = false_miss
    return r


class TestSummarize:
    def test_basic_metrics(self, env, make_request):
        sim, cluster, col = env
        col.on_complete(completed(make_request, arrival=0, dispatched=0, done=2, hit=True))
        col.on_complete(
            completed(make_request, arrival=0, dispatched=2, done=6, hit=False, false_miss=True)
        )
        sim.schedule(10.0, lambda: None)
        sim.run()
        s = summarize(col, cluster, policy="t", working_set=2)
        assert s.completed_requests == 2
        assert s.avg_latency_s == pytest.approx(4.0)  # (2 + 6) / 2
        assert s.cache_miss_ratio == pytest.approx(0.5)
        assert s.false_miss_ratio == pytest.approx(0.5)
        assert s.latency_variance == pytest.approx(4.0)  # var([2, 6])
        assert s.avg_queueing_s == pytest.approx(1.0)
        assert s.policy == "t"

    def test_empty_run_rejected(self, env):
        sim, cluster, col = env
        with pytest.raises(ValueError):
            summarize(col, cluster)

    def test_sm_utilization_mean_over_gpus(self, env, make_request):
        sim, cluster, col = env
        g0, g1 = cluster.gpus
        sim.schedule(0.0, g0.begin_inference)
        sim.schedule(5.0, g0.become_idle)
        sim.schedule(10.0, lambda: None)
        sim.run()
        col.on_complete(completed(make_request, arrival=0, dispatched=0, done=5, hit=True))
        s = summarize(col, cluster)
        # g0: 50%, g1: 0% → mean 25%
        assert s.sm_utilization == pytest.approx(0.25)

    def test_percentiles_ordered(self, env, make_request):
        sim, cluster, col = env
        for i in range(100):
            col.on_complete(
                completed(make_request, arrival=0, dispatched=0, done=float(i + 1), hit=True)
            )
        sim.schedule(100.0, lambda: None)
        sim.run()
        s = summarize(col, cluster)
        assert s.p50_latency_s <= s.p99_latency_s
        assert s.p50_latency_s == pytest.approx(50.5)

    def test_top_model_defaults_to_most_invoked(self, env, make_request):
        sim, cluster, col = env
        for fn in ("a", "a", "b"):
            col.on_complete(
                completed(make_request, arrival=0, dispatched=0, done=1, hit=True, fn=fn)
            )
        sim.schedule(1.0, lambda: None)
        sim.run()
        s = summarize(col, cluster)
        assert s.top_model == "a"

    def test_row_is_flat_and_rounded(self, env, make_request):
        sim, cluster, col = env
        col.on_complete(completed(make_request, arrival=0, dispatched=0, done=1.23456, hit=True))
        sim.schedule(2.0, lambda: None)
        sim.run()
        row = summarize(col, cluster, policy="x", working_set=7).row()
        assert row["policy"] == "x"
        assert row["working_set"] == 7
        assert row["avg_latency_s"] == 1.235


@given(
    n=st.integers(1, 5000),
    distinct=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    qs=st.lists(
        st.one_of(st.sampled_from([0, 1, 25, 50, 75, 99, 99.9, 100]), st.floats(0, 100)),
        max_size=4,
    ),
)
@example(n=1, distinct=1, seed=0, qs=[0, 100])
@example(n=2, distinct=2, seed=0, qs=[0, 100, 37.3])
@example(n=5000, distinct=3, seed=1, qs=[0, 100, 99.9])
@settings(max_examples=300, deadline=None)
def test_partition_percentile_is_numpys_to_the_bit(n, distinct, seed, qs):
    """The summaries' percentile equals ``np.percentile(col.copy(), q,
    overwrite_input=True)`` bit for bit: on a fresh column, and on one an
    earlier call has already partitioned (p50 then p99, as ``summarize``
    takes them), ties included (``distinct`` < ``n`` repeats values)."""
    rng = np.random.default_rng(seed)
    col = rng.choice(rng.exponential(2.0, min(n, distinct)), n)
    for q in (50, 99, *qs):
        want = np.percentile(col.copy(), q, overwrite_input=True)
        got = _percentile(col, q)
        assert np.float64(got).tobytes() == want.tobytes(), (q, got, float(want))
