"""End-to-end streaming replay: parity with batch, flat memory state.

The streaming pipeline (chunked columns → low-water refill → capped
metrics window → KV autocompaction) must change *where requests live*,
never *what the run computes*: while the run fits the metrics window its
summary is byte-identical to the batch pipeline's, for any chunking.
"""

import gc

import pytest

from repro.datastore import EPHEMERAL_HOT_PREFIXES, EphemeralKeyError, KeyValue
from repro.experiments.replay import replay
from repro.metrics.summary import summarize
from repro.runtime import (
    DEFAULT_STREAMING_COMPACT_KEEP,
    FaaSCluster,
    SystemConfig,
    streaming_config,
)
from repro.traces import WorkloadSpec, build_workload, build_workload_streaming


SPEC = WorkloadSpec(working_set=15, minutes=6, sla_s=2.0, seed=0)


def replay_streaming(spec, config=None):
    """The streaming pipeline through the one driver."""
    return replay(
        config if config is not None else streaming_config(),
        build_workload_streaming(spec),
    )


def run_by_hand(system, workload, **chunking):
    """The driver's steps spelled out: the reference arm, and the way to
    vary the chunking parameters ``submit_workload_streaming`` owns."""
    if chunking:
        system.submit_workload_streaming(workload, **chunking)
    else:
        system.submit_workload(workload)
    system.run()
    return summarize(
        system.metrics,
        system.cluster,
        policy="lalbo3",
        working_set=workload.spec.working_set,
        top_model=workload.top_model_id,
    )


@pytest.fixture(scope="module")
def batch_summary():
    return run_by_hand(FaaSCluster(SystemConfig()), build_workload(SPEC))


class TestBatchParity:
    def test_summary_byte_exact_vs_batch(self, batch_summary):
        summary, _ = replay_streaming(SPEC)
        assert summary == batch_summary

    @pytest.mark.parametrize("low_water", [1, 8, 1024])
    def test_low_water_mark_is_invisible(self, batch_summary, low_water):
        summary = run_by_hand(
            FaaSCluster(streaming_config()),
            build_workload_streaming(SPEC),
            low_water=low_water,
        )
        assert summary == batch_summary

    @pytest.mark.parametrize("minutes_per_chunk", [1, 3, 100])
    def test_chunk_size_is_invisible(self, batch_summary, minutes_per_chunk):
        summary = run_by_hand(
            FaaSCluster(streaming_config()),
            build_workload_streaming(SPEC),
            minutes_per_chunk=minutes_per_chunk,
        )
        assert summary == batch_summary

    def test_rejects_bad_low_water(self):
        system = FaaSCluster(streaming_config())
        with pytest.raises(ValueError):
            system.submit_workload_streaming(
                build_workload_streaming(SPEC), low_water=0
            )


class TestFlatMemoryState:
    def test_no_linear_state_retained(self):
        """Retained per-request state is bounded by the cap: nothing once
        the run has outgrown it, at most ``cap`` rows before."""
        cap = 500
        _, system = replay_streaming(SPEC, config=streaming_config(metrics_exact_cap=cap))
        m = system.metrics
        assert m.completed_count > cap and not m.window_open
        assert m.completed == [] and m.lost == []
        assert m._rows is None
        assert m.lat_hist.count == m.completed_count
        # the default preset's window still holds this 2k replay, whole
        _, system = replay_streaming(SPEC)
        m = system.metrics
        assert m.window_open
        assert len(m.completed) == len(m._rows) == m.completed_count <= m.exact_cap

    def test_streaming_config_defaults(self):
        cfg = streaming_config()
        assert cfg.metrics_exact_cap == DEFAULT_STREAMING_COMPACT_KEEP
        assert cfg.kv_autocompact_keep == DEFAULT_STREAMING_COMPACT_KEEP
        assert streaming_config(kv_autocompact_keep=7).kv_autocompact_keep == 7

    def test_autocompaction_engages(self):
        cfg = streaming_config(kv_autocompact_keep=200)
        _, system = replay_streaming(SPEC, config=cfg)
        kv = system.datastore.kv
        assert kv.compacted_revision > 0
        assert kv.revision - kv.compacted_revision <= 2 * 200 + 200

    def test_retained_kv_heap_is_flat_in_request_count(self):
        """What the Datastore retains — MVCC history entries and
        GC-tracked ``KeyValue`` objects (the mass every full-heap
        collection re-scans) — is set by the configured windows, not by
        how many requests were replayed: the per-action keys are
        history-free, so only the live key set (fixed keys + nodes ×
        ``latency_log_keep``) and the durable keys' windowed history
        survive."""
        keep = 200

        def tracked_keyvalues() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is KeyValue)

        def retained(minutes: int) -> tuple[int, int, int]:
            before = tracked_keyvalues()
            cfg = streaming_config(kv_autocompact_keep=keep, latency_log_keep=keep)
            spec = WorkloadSpec(working_set=15, minutes=minutes, seed=0)
            summary, system = replay_streaming(spec, config=cfg)
            kv = system.datastore.kv
            assert kv.compacted_revision > 0
            history = kv.history_entry_count()
            tracked = tracked_keyvalues() - before
            latency_keys = sum(1 for k in kv.keys() if k.startswith("fn/latency/"))
            assert latency_keys <= keep * len(system.cluster.nodes)
            # every retained KeyValue is a live one or a windowed history entry
            assert tracked <= len(kv) + history
            assert history <= keep
            return summary.completed_requests, history, tracked

        n_small, history_small, tracked_small = retained(9)
        n_large, history_large, tracked_large = retained(18)
        assert n_small > 2500 and n_large >= 1.9 * n_small
        slack = 16  # a late model load publishes one durable key
        assert history_large <= history_small + slack
        assert tracked_large <= tracked_small + slack

    def test_retained_kv_heap_holds_no_hot_key_history(self):
        """The 2k §V-A replay under tight retention (the windows engage
        even at this size): nothing under the schema's hot prefixes
        reaches MVCC history, the history-free lane
        takes the writes, only the durable keys' windowed history
        survives, and a historical read of a hot key is a typed error."""
        system = FaaSCluster(SystemConfig(kv_autocompact_keep=500, latency_log_keep=500))
        system.submit_workload(build_workload(SPEC))
        system.run()
        kv = system.datastore.kv
        assert [k for k in kv._history if k.startswith(EPHEMERAL_HOT_PREFIXES)] == []
        assert kv.ephemeral_writes > 0
        assert kv.history_entry_count() / system.scheduler.actions <= 0.05
        with pytest.raises(EphemeralKeyError):
            kv.get("gpu/status/" + system.cluster.gpus[0].gpu_id, revision=1)

    def test_spill_under_default_cap_tees_every_completion(self, tmp_path):
        path = tmp_path / "rows.csv"
        spec = WorkloadSpec(working_set=15, minutes=1, seed=0)
        summary, system = replay_streaming(
            spec, config=SystemConfig(metrics_spill_path=str(path))
        )
        assert system.metrics.window_open
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) - 1 == summary.completed_requests > 0  # minus header


class TestIdleMinutes:
    def test_empty_chunks_are_skipped(self):
        # a 1-minute workload chunked at 1 minute exercises the
        # pull-next-chunk loop ending exactly at the stream's end
        spec = WorkloadSpec(working_set=15, minutes=1, seed=4)
        summary = run_by_hand(
            FaaSCluster(streaming_config()),
            build_workload_streaming(spec),
            minutes_per_chunk=1,
        )
        assert summary.completed_requests > 0
