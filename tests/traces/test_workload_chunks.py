"""Chunked workload stream vs the monolithic builder: exact RNG parity.

The streaming pipeline's first guarantee: however the stream is chunked,
concatenating the chunks reproduces ``build_workload``'s columns byte for
byte, because both consume the identical per-minute draws from one
``default_rng(seed)``.
"""

import numpy as np
import pytest

from repro.traces.workload import (
    WorkloadSpec,
    build_workload,
    build_workload_streaming,
)


def _concat(stream, minutes_per_chunk):
    chunks = list(stream.chunks(minutes_per_chunk=minutes_per_chunk))
    times = np.concatenate([c.arrival_times for c in chunks])
    index = np.concatenate([c.function_index for c in chunks])
    return chunks, times, index


class TestColumnParity:
    @pytest.mark.parametrize("working_set", [15, 25, 35])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_concat_equals_build_workload(self, working_set, seed):
        spec = WorkloadSpec(
            working_set=working_set, minutes=6, requests_per_minute=120, seed=seed
        )
        whole = build_workload(spec)
        stream = build_workload_streaming(spec)
        _, times, index = _concat(stream, minutes_per_chunk=3)
        assert np.array_equal(times, whole.arrival_times)
        assert np.array_equal(index, whole.function_index)
        assert stream.function_ids == whole.function_ids
        # both index columns take the narrowest dtype for their functions
        assert index.dtype == whole.function_index.dtype == np.uint8

    @pytest.mark.parametrize("minutes_per_chunk", [1, 2, 5, 6, 100])
    def test_chunking_granularity_is_invisible(self, minutes_per_chunk):
        spec = WorkloadSpec(working_set=15, minutes=6, requests_per_minute=90, seed=3)
        whole = build_workload(spec)
        stream = build_workload_streaming(spec)
        chunks, times, index = _concat(stream, minutes_per_chunk)
        assert np.array_equal(times, whole.arrival_times)
        assert np.array_equal(index, whole.function_index)
        assert sum(c.minutes for c in chunks) == spec.minutes
        assert chunks[0].start_minute == 0

    def test_reiteration_is_deterministic(self):
        stream = build_workload_streaming(
            WorkloadSpec(working_set=15, minutes=4, requests_per_minute=60, seed=1)
        )
        _, t1, i1 = _concat(stream, 2)
        _, t2, i2 = _concat(stream, 2)
        assert np.array_equal(t1, t2)
        assert np.array_equal(i1, i2)

    def test_rejects_bad_chunk_size(self):
        stream = build_workload_streaming(WorkloadSpec(minutes=2))
        with pytest.raises(ValueError):
            next(stream.chunks(minutes_per_chunk=0))


class TestMaterialize:
    def test_requests_match_monolithic_build(self):
        spec = WorkloadSpec(working_set=25, minutes=4, requests_per_minute=80, seed=5)
        whole = build_workload(spec)
        stream = build_workload_streaming(spec)
        streamed = []
        for chunk in stream.chunks(minutes_per_chunk=2):
            streamed.extend(stream.materialize(chunk))
        assert len(streamed) == len(whole.requests()) == stream.total_requests
        # a workload numbers its rows 1..n, however it is chunked
        assert [r.request_id for r in whole.requests()] == list(range(1, len(whole) + 1))
        assert [r.request_id for r in streamed] == [r.request_id for r in whole.requests()]
        for got, want in zip(streamed, whole.requests()):
            assert got.function_name == want.function_name
            assert got.arrival_time == want.arrival_time
            assert got.model.instance_id == want.model.instance_id
            assert got.batch_size == want.batch_size
            assert got.sla_s == want.sla_s
            assert got.model.tenant == want.model.tenant

    def test_stream_metadata_matches(self):
        spec = WorkloadSpec(working_set=15, minutes=3, requests_per_minute=50, seed=9)
        whole = build_workload(spec)
        stream = build_workload_streaming(spec)
        assert stream.describe() == whole.describe()
        assert stream.top_function == whole.top_function
        assert stream.top_model_id == whole.top_model_id
        assert stream.duration_s == whole.duration_s
        assert len(stream) == len(whole)
