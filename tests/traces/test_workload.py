"""Unit tests for the workload extraction pipeline (§V-A.1)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.models import TABLE1_ROWS
from repro.traces import (
    AzureTraceConfig,
    SyntheticAzureTrace,
    WorkloadSpec,
    assign_architectures,
    build_workload,
)


@pytest.fixture(scope="module")
def small_trace():
    return SyntheticAzureTrace(
        AzureTraceConfig(num_functions=500, mean_rate_per_minute=3000, seed=3)
    )


@pytest.fixture(scope="module")
def workload(small_trace):
    return build_workload(WorkloadSpec(working_set=15, seed=11), trace=small_trace)


class TestNormalization:
    def test_each_minute_sums_to_325(self, workload):
        totals = workload.counts.sum(axis=0)
        assert list(totals) == [325] * 6

    def test_total_request_count(self, workload):
        assert len(workload.requests()) == 325 * 6

    def test_custom_rate(self, small_trace):
        w = build_workload(
            WorkloadSpec(working_set=5, minutes=2, requests_per_minute=50), trace=small_trace
        )
        assert len(w.requests()) == 100

    def test_skew_preserved_after_normalization(self, workload):
        """The hottest function must dominate, as in the raw trace."""
        per_fn = workload.counts.sum(axis=1)
        assert per_fn[0] == per_fn.max()
        assert per_fn[0] > per_fn[-1] * 2


class TestArchitectureAssignment:
    def test_unique_model_instances_per_function(self, workload):
        ids = [inst.instance_id for inst in workload.instances.values()]
        assert len(set(ids)) == 15

    def test_sizes_distributed_evenly(self):
        """Any contiguous popularity window must mix small and large models."""
        fids = [f"fn{i:05d}" for i in range(35)]
        arch = assign_architectures(fids)
        sizes = {name: size for name, size, *_ in TABLE1_ROWS}
        head = [sizes[arch[f]] for f in fids[:10]]
        # the head of the working set must span a wide size range
        assert max(head) - min(head) > 1500

    def test_working_set_beyond_22_reuses_architectures(self):
        fids = [f"fn{i:05d}" for i in range(35)]
        arch = assign_architectures(fids)
        assert len(set(arch.values())) == 22  # all architectures used
        assert len(arch) == 35

    def test_stride_covers_all_architectures_in_first_22(self):
        fids = [f"fn{i:05d}" for i in range(22)]
        arch = assign_architectures(fids)
        assert len(set(arch.values())) == 22


class TestRequestStream:
    def test_arrivals_sorted_and_within_window(self, workload):
        times = [r.arrival_time for r in workload.requests()]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] < 6 * 60.0

    def test_per_minute_request_counts_match_matrix(self, workload):
        for m in range(6):
            in_minute = [
                r for r in workload.requests() if 60 * m <= r.arrival_time < 60 * (m + 1)
            ]
            assert len(in_minute) == 325

    def test_requests_reference_shared_instances(self, workload):
        """All requests of a function share one ModelInstance (one cache item)."""
        by_fn = {}
        for r in workload.requests():
            by_fn.setdefault(r.function_name, set()).add(id(r.model))
        assert all(len(s) == 1 for s in by_fn.values())

    def test_batch_size_paper_default(self, workload):
        assert all(r.batch_size == 32 for r in workload.requests())

    def test_deterministic_in_seed(self, small_trace):
        a = build_workload(WorkloadSpec(working_set=5, minutes=2, seed=9), trace=small_trace)
        b = build_workload(WorkloadSpec(working_set=5, minutes=2, seed=9), trace=small_trace)
        assert [r.function_name for r in a.requests()] == [r.function_name for r in b.requests()]
        assert [r.arrival_time for r in a.requests()] == [r.arrival_time for r in b.requests()]

    def test_different_seeds_differ(self, small_trace):
        a = build_workload(WorkloadSpec(working_set=5, minutes=2, seed=1), trace=small_trace)
        b = build_workload(WorkloadSpec(working_set=5, minutes=2, seed=2), trace=small_trace)
        assert [r.arrival_time for r in a.requests()] != [r.arrival_time for r in b.requests()]

    def test_top_function_properties(self, workload):
        assert workload.top_function == workload.function_ids[0]
        assert workload.top_model_id == workload.instances[workload.top_function].instance_id

    def test_duration(self, workload):
        assert workload.duration_s == 360.0


class TestSpecValidation:
    def test_invalid_working_set(self):
        with pytest.raises(ValueError):
            WorkloadSpec(working_set=0)

    def test_invalid_minutes(self):
        with pytest.raises(ValueError):
            WorkloadSpec(minutes=0)


def test_normalize_empty_minute():
    """A zero-count raw minute still yields exactly the target requests."""
    from repro.traces.workload import _normalize_minute

    out = _normalize_minute(np.zeros(7, dtype=np.int64), 10)
    assert out.sum() == 10
    assert out.max() - out.min() <= 1  # spread uniformly


@settings(max_examples=300, deadline=None)
@given(
    raw=st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
        # few distinct small counts: ties in the remainders are the rule
        lambda shape: arrays(np.int64, shape, elements=st.integers(0, 4))
    ),
    target=st.integers(1, 700),
)
@example(raw=np.array([[3, 0], [3, 0], [1, 0]], dtype=np.int64), target=10)
def test_vectorized_normalization_equals_the_per_minute_one(raw, target):
    """All minutes in one pass equal each minute on its own, element for
    element: the same floors, the same stable largest-remainder order on
    ties, and the uniform spread of an empty minute."""
    from repro.traces.workload import _normalize, _normalize_minute

    expected = np.stack(
        [_normalize_minute(raw[:, m], target) for m in range(raw.shape[1])], axis=1
    )
    out = _normalize(raw, target)
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)
