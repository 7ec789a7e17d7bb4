"""Columnar workload pipeline vs. the seed's per-request loop.

The columnar :func:`build_workload` must encode the byte-identical request
stream the seed's per-request loop produced — same function sequence, same
arrival instants, same model assignment — for every working set and seed,
while building no request objects until asked.  The loop lives here, as
the oracle (:func:`build_workload_reference`); nothing in ``src/`` runs it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.request import InferenceRequest
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
                    batch_size=spec.batch_size,
                    tenant=tenant,
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
        columnar = build_workload(spec, trace=trace).requests
        reference = build_workload_reference(spec, trace=trace).requests
        assert len(columnar) == len(reference)
        # ids come from a process-global counter: compare as per-build
        # offsets so the streams prove identical construction order
        base_c, base_r = columnar[0].request_id, reference[0].request_id
        for c, r in zip(columnar, reference):
            assert c.function_name == r.function_name
            assert c.arrival_time == r.arrival_time
            assert c.model.instance_id == r.model.instance_id
            assert c.batch_size == r.batch_size
            assert c.tenant == r.tenant
            assert c.sla_s == r.sla_s
            assert c.request_id - base_c == r.request_id - base_r


class TestLazyMaterialization:
    def test_build_makes_no_request_objects(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=2), trace=trace)
        assert not w.materialized
        assert len(w) == 2 * 325
        assert len(w.arrival_times) == len(w.function_index) == len(w)
        assert not w.materialized  # column access does not materialize

    def test_describe_is_column_only(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=2), trace=trace)
        stats = w.describe()
        assert stats["total_requests"] == len(w)
        assert not w.materialized

    def test_requests_cached_single_materialization(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        first = w.requests
        assert w.materialized
        assert w.requests is first  # same list object: built exactly once
        assert [r.arrival_time for r in first] == w.arrival_times.tolist()

    def test_iteration_sees_the_cached_objects(self, trace):
        w = build_workload(WorkloadSpec(working_set=5, minutes=1), trace=trace)
        via_iter = list(w)
        assert via_iter == w.requests
        assert via_iter[0] is w.requests[0]
