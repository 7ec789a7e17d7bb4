"""Flight-recorder semantics: rings, sampling, and zero-cost-off.

The tracer layer's contract is behavioural, not statistical: "off" means
every component keeps a ``None`` tracer attribute (nothing installed,
nothing recorded); "on" means the four rings capture request lifecycles,
sampled pass/commit wall spans, and instants with exact ``totals``
counters and oldest-first overwrite past ``capacity``.  The *overhead*
gate is an exact count —
the ``traced`` shape of ``tests/experiments/test_call_budget.py``; this
module pins the semantics, filling the rings the way production does —
through a traced replay.  Tests that need a small ring or stride 1 swap
a configured recorder class in for the runtime's.
"""

from functools import partial

import pytest

import repro.core.scheduler
import repro.runtime.system
from repro.core import DecisionLog
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


def _install_recorder(monkeypatch, **recorder_kwargs):
    """Make every ``FaaSCluster`` built next install a recorder with
    ``recorder_kwargs`` instead of the class defaults."""
    monkeypatch.setattr(
        repro.runtime.system, "FlightRecorder", partial(FlightRecorder, **recorder_kwargs)
    )


class _FakeSim:
    def __init__(self):
        self._now = 0.0


class TestOffIsNone:
    def test_default_config_installs_no_tracer_anywhere(self):
        system = _replay(SystemConfig())
        assert system.tracer is None
        assert system.scheduler._tracer is None
        assert system.datastore._tracer is None
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
        stride = t.span_stride
        assert stride == 16  # the class default the runtime installs
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

    def test_ring_wraps_oldest_first_and_counts_dropped(self, monkeypatch):
        _install_recorder(monkeypatch, capacity=16, span_stride=1)
        system = _replay(SystemConfig(tracer="flight"))
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

    def test_span_stride_one_records_every_span(self, monkeypatch):
        _install_recorder(monkeypatch, span_stride=1)
        system = _replay(SystemConfig(tracer="flight"))
        t = system.tracer
        assert len(t.pass_records()) == t.totals["passes"]
        assert len(t.commit_records()) == t.totals["commits"]

    def test_pass_records_count_decisions_past_a_full_decision_log(self, monkeypatch):
        """A sampled pass records the decisions it appended, read off the
        log's monotonic count: a full ring's length stays at ``maxlen``, so
        reading the length would record 0 for every pass after the ring
        filled."""
        _install_recorder(monkeypatch, span_stride=1)
        monkeypatch.setattr(
            repro.core.scheduler, "DecisionLog", partial(DecisionLog, maxlen=8)
        )
        system = _replay(SystemConfig(tracer="flight"))
        t = system.tracer
        decisions = system.scheduler.decisions
        assert len(decisions) == 8 and t.dropped["passes"] == 0
        recorded = sum(n for _, _, n in t.pass_records())
        # every decision of a fault-free replay is made inside a pass
        assert recorded >= system.metrics.completed_count > 8
        assert recorded == decisions.appended

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(_FakeSim(), capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(_FakeSim(), span_stride=0)


class TestConfig:
    def test_unknown_tracer_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(tracer="jaeger")
