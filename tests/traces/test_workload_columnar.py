"""Columnar workload pipeline vs. the seed's per-request loop.

The columnar :func:`build_workload` must encode the byte-identical request
stream the seed's per-request loop produced — same function sequence, same
arrival instants, same model assignment — for every working set and seed,
while holding no request objects: a replay builds each at its arrival.  The loop lives here, as
the oracle (:func:`build_workload_reference`); nothing in ``src/`` runs it.
"""

import gc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.request import InferenceRequest
from repro.runtime import FaaSCluster
from repro.traces import (
    AzureTraceConfig,
    SyntheticAzureTrace,
    WorkloadSpec,
    build_workload,
    build_workload_streaming,
)


def build_workload_reference(spec, *, trace, tenant="default"):
    """The seed repository's per-request extraction loop, kept verbatim:
    one :class:`InferenceRequest` at a time in Python, against the shared
    extraction head (top-K functions, per-minute normalization, model
    instances) and a fresh ``default_rng(spec.seed)``."""
    head = build_workload_streaming(spec, trace=trace, tenant=tenant)
    function_ids, normalized, instances = head.function_ids, head.counts, head.instances
    rng = np.random.default_rng(spec.seed)

    requests: list[InferenceRequest] = []
    arrivals_all: list[float] = []
    fn_all: list[int] = []
    for m in range(spec.minutes):
        fn_indices = np.repeat(np.arange(len(function_ids)), normalized[:, m])
        rng.shuffle(fn_indices)
        arrivals = np.sort(rng.uniform(60.0 * m, 60.0 * (m + 1), size=len(fn_indices)))
        for t, fi in zip(arrivals, fn_indices):
            fid = function_ids[fi]
            requests.append(
                InferenceRequest(
                    function_name=fid,
                    model=instances[fid],
                    arrival_time=float(t),
                    request_id=len(requests) + 1,
                    batch_size=spec.batch_size,
                    sla_s=spec.sla_s,
                )
            )
            arrivals_all.append(float(t))
            fn_all.append(int(fi))
    return SimpleNamespace(
        function_ids=function_ids,
        counts=normalized,
        arrival_times=np.array(arrivals_all, dtype=np.float64),
        function_index=np.array(fn_all, dtype=np.int64),
        requests=requests,
    )


@pytest.fixture(scope="module")
def trace():
    return SyntheticAzureTrace(
        AzureTraceConfig(num_functions=500, mean_rate_per_minute=3000, seed=3)
    )


class TestStreamParity:
    @pytest.mark.parametrize("working_set", [15, 25, 35])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_columns_identical_to_reference(self, trace, working_set, seed):
        spec = WorkloadSpec(working_set=working_set, minutes=3, seed=seed)
        columnar = build_workload(spec, trace=trace)
        reference = build_workload_reference(spec, trace=trace)
        np.testing.assert_array_equal(columnar.arrival_times, reference.arrival_times)
        np.testing.assert_array_equal(columnar.function_index, reference.function_index)
        np.testing.assert_array_equal(columnar.counts, reference.counts)
        assert columnar.function_ids == reference.function_ids

    @pytest.mark.parametrize("working_set", [15, 25, 35])
    def test_materialized_requests_identical(self, trace, working_set):
        spec = WorkloadSpec(working_set=working_set, minutes=2, seed=11)
        columnar = build_workload(spec, trace=trace).requests()
        reference = build_workload_reference(spec, trace=trace).requests
        assert len(columnar) == len(reference)
        for c, r in zip(columnar, reference):
            assert c.function_name == r.function_name
            assert c.arrival_time == r.arrival_time
            assert c.model.instance_id == r.model.instance_id
            assert c.batch_size == r.batch_size
            assert c.model.tenant == r.model.tenant
            assert c.sla_s == r.sla_s
            assert c.request_id == r.request_id


def _live_requests() -> int:
    gc.collect()
    return sum(type(obj) is InferenceRequest for obj in gc.get_objects())


class TestRequestsAtArrival:
    def test_build_makes_no_request_objects(self, trace):
        before = _live_requests()
        w = build_workload(WorkloadSpec(working_set=5, minutes=2), trace=trace)
        assert len(w) == 2 * 325
        assert len(w.arrival_times) == len(w.function_index) == len(w)
        assert w.describe()["total_requests"] == len(w)
        assert _live_requests() == before  # columns and describe build none

    def test_requests_are_fresh_on_every_call(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        first, second = w.requests(), w.requests()
        assert first is not second and first[0] is not second[0]
        assert [r.arrival_time for r in first] == w.arrival_times.tolist()
        assert [r.request_id for r in first] == list(range(1, len(w) + 1))
        assert [(r.function_name, r.arrival_time) for r in second] == [
            (r.function_name, r.arrival_time) for r in first
        ]

    def test_a_workload_is_columns_not_objects(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        with pytest.raises(TypeError):
            iter(w)
        with pytest.raises(AttributeError):
            w.arrival_times = w.arrival_times[::-1]  # frozen

    def test_arrival_times_must_ascend(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        with pytest.raises(ValueError, match="ascending"):
            replace(w, arrival_times=w.arrival_times[::-1].copy())

    def test_counts_must_sum_to_the_rows(self, trace):
        """``chunks`` takes its row bounds from ``counts``."""
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        with pytest.raises(ValueError, match="counts"):
            replace(w, arrival_times=w.arrival_times[:-1], function_index=w.function_index[:-1])

    def test_submit_builds_each_request_at_its_arrival(self, trace):
        """``submit_workload`` injects the arrival column alone: no request
        exists before the run, and each completes with the fields and the
        ``request_id`` its row gives it."""
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        system = FaaSCluster()
        done = []
        system.subscribe_completion(done.append)
        before = _live_requests()
        system.submit_workload(w)
        assert _live_requests() == before
        system.run()
        done.sort(key=lambda r: r.request_id)
        assert [(r.request_id, r.function_name, r.model, r.arrival_time) for r in done] == [
            (r.request_id, r.function_name, r.model, r.arrival_time) for r in w.requests()
        ]

    def test_a_column_behind_the_lane_tail_keeps_its_rows(self, trace):
        """A column that starts before the arrival lane's tail takes the
        kernel's per-entry heap path; its entries still fire in row order,
        so each request gets its own row's fields."""
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        system = FaaSCluster()
        system.sim.schedule_many([1e6], lambda: None)  # the lane's tail
        done = []
        system.subscribe_completion(done.append)
        system.submit_workload(w)
        system.run()
        assert sorted(r.request_id for r in done) == list(range(1, len(w) + 1))
        assert all(r.arrival_time == w.arrival_times[r.request_id - 1] for r in done)

    def test_submit_takes_the_callers_objects(self, trace):
        """A caller who holds the objects submits them itself."""
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        built = w.requests()
        system = FaaSCluster()
        done = []
        system.subscribe_completion(done.append)
        system.submit_workload(built)
        system.run()
        assert sorted(map(id, done)) == sorted(map(id, built))
        assert all(r.completed_at is not None for r in built)
