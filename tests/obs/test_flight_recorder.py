"""Flight-recorder semantics: rings, sampling, spill, and zero-cost-off.

The tracer layer's contract is behavioural, not statistical: "off" means
every component keeps a ``None`` tracer attribute (nothing installed,
nothing recorded); "on" means the four rings capture request lifecycles,
sampled pass/commit wall spans, and instants with exact ``totals``
counters, oldest-first overwrite past ``capacity``, and a decimated
JSONL spill when configured.  The *overhead* gate lives in the bench
(``make bench-check``); this module pins the semantics, filling the
rings the way production does — through a traced replay.
"""

import json

import pytest

from repro.obs import FlightRecorder
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload


def _replay(cfg, minutes=1):
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=minutes, seed=0),
        trace=SyntheticAzureTrace(),
    )
    system = FaaSCluster(cfg)
    system.submit_workload(workload)
    system.run()
    return system


class _FakeSim:
    def __init__(self):
        self._now = 0.0


class TestOffIsNone:
    def test_default_config_installs_no_tracer_anywhere(self):
        system = _replay(SystemConfig())
        assert system.tracer is None
        assert system.scheduler._tracer is None
        assert system.datastore.pending._tracer is None
        assert system.metrics.tracer is None
        assert system.cache.tracer is None


class TestRings:
    def test_replay_fills_every_ring_with_exact_totals(self):
        system = _replay(SystemConfig(tracer="flight"))
        t = system.tracer
        totals = t.totals
        assert totals["requests"] == system.metrics.completed_count
        assert totals["passes"] == system.scheduler.passes_executed
        assert totals["commits"] > 0
        # unsampled spans still count; only every Nth is recorded
        stride = system.config.trace_span_stride
        assert len(t.pass_records()) == totals["passes"] // stride
        assert len(t.commit_records()) == totals["commits"] // stride
        assert len(t.request_records()) == totals["requests"]

    def test_request_records_reflect_final_lifecycle_stamps(self):
        system = _replay(SystemConfig(tracer="flight"))
        rows = system.tracer.request_records()
        models = system.tracer.model_names
        gpus = system.tracer.gpu_names
        for rid, arrival, dispatched, exec_start, completed, m, g, hit, retries in rows:
            assert 0.0 <= arrival <= dispatched <= exec_start <= completed
            assert models[m] and gpus[g]
            assert hit in (0, 1)
            assert retries >= 0

    def test_ring_wraps_oldest_first_and_counts_dropped(self):
        system = _replay(
            SystemConfig(tracer="flight", trace_span_stride=1, tracer_capacity=16)
        )
        t = system.tracer
        assert t.totals["requests"] > 16
        rows = t.request_records()
        assert len(rows) == 16
        assert t.dropped["requests"] == t.totals["requests"] - 16
        # the retained rows are the *last* 16 completions, oldest first
        completions = [row[4] for row in rows]
        assert completions == sorted(completions)
        # the span rings wrap the same way under their in-place writers
        for ring, spans in (("passes", t.pass_records()), ("commits", t.commit_records())):
            assert len(spans) == 16
            assert t.dropped[ring] == t.totals[ring] - 16
            times = [sim_time for sim_time, _, _ in spans]
            assert times == sorted(times) and times[-1] > times[0]

    def test_span_stride_one_records_every_span(self):
        system = _replay(SystemConfig(tracer="flight", trace_span_stride=1))
        t = system.tracer
        assert len(t.pass_records()) == t.totals["passes"]
        assert len(t.commit_records()) == t.totals["commits"]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(_FakeSim(), capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(_FakeSim(), span_stride=0)


class TestSpill:
    def test_spill_writes_decimated_request_records(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        system = _replay(
            SystemConfig(
                tracer="flight", trace_spill_path=path, trace_spill_keep=50
            )
        )
        t = system.tracer
        t.close()
        lines = [json.loads(line) for line in open(path)]
        n = t.totals["requests"]
        assert t.spill_written == len(lines)
        # stride-doubling bound: keep * (1 + log2(n / keep)) — loose check
        assert 50 <= len(lines) < n
        assert {"id", "arrival", "completed", "model", "gpu"} <= set(lines[0])

    def test_no_spill_configured_reports_none(self):
        system = _replay(SystemConfig(tracer="flight"))
        assert system.tracer.spill_path is None
        assert system.tracer.spill_written == 0
        system.tracer.close()  # close without a spill is a no-op


class TestConfig:
    def test_unknown_tracer_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(tracer="jaeger")

    def test_spill_requires_flight_tracer(self):
        with pytest.raises(ValueError):
            SystemConfig(trace_spill_path="x.jsonl")

    def test_stride_and_capacity_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(trace_span_stride=0)
        with pytest.raises(ValueError):
            SystemConfig(tracer_capacity=1)
