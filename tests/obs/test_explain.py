"""Scheduler explain mode: cause records, queries, CLI entry, parity.

Explain mode (``SystemConfig(trace_decisions=True)``) annotates every
recorded decision with a :class:`Cause` — pass context, the dirty-signal
state that armed the pass, and the policy's candidate trail — without
changing a single decision (asserted here against a plain replay, for
explain, the flight recorder, and both together).
"""

import hashlib

import pytest

from repro.obs import Cause, ExplainLog, format_request_causes, run_explain
from repro.obs.explain import OUTSIDE_PASS
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces.azure import SyntheticAzureTrace
from repro.traces.workload import WorkloadSpec, build_workload


def _replay(cfg):
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=1, seed=0),
        trace=SyntheticAzureTrace(),
    )
    system = FaaSCluster(cfg)
    system.submit_workload(workload)
    system.run()
    return system


def _decision_sha(system):
    h = hashlib.sha256()
    for d in system.scheduler.decisions:
        h.update(repr(tuple(d)).encode())
    return h.hexdigest()


class TestExplainLog:
    def test_every_decision_gets_a_cause(self):
        system = _replay(SystemConfig(trace_decisions=True))
        explain = system.scheduler.explain
        assert explain is not None
        assert len(explain) == len(system.scheduler.decisions)
        # seq is the global decision order
        assert [c.seq for c in explain.causes] == list(range(len(explain)))

    def test_causes_carry_pass_context_and_trails(self):
        system = _replay(SystemConfig(trace_decisions=True))
        explain = system.scheduler.explain
        in_pass = [c for c in explain.causes if c.pass_seq != OUTSIDE_PASS]
        assert in_pass, "dispatch decisions happen inside passes"
        assert all(c.armed.startswith("idle=") for c in in_pass)
        assert any(c.trail for c in in_pass), "policies narrate their walks"

    def test_for_request_returns_that_requests_chain(self):
        system = _replay(SystemConfig(trace_decisions=True))
        explain = system.scheduler.explain
        rid = explain.causes[0].request_id
        chain = explain.for_request(rid)
        assert chain and all(c.request_id == rid for c in chain)
        assert explain.for_request(-99) == []

    def test_elided_passes_are_counted_with_signals(self):
        system = _replay(SystemConfig(trace_decisions=True))
        explain = system.scheduler.explain
        assert explain.elided_count == system.scheduler.passes_elided
        if explain.last_elided:
            t, signals = explain.last_elided[-1]
            assert t >= 0.0 and "queued=" in signals

    @pytest.mark.parametrize(
        "lens",
        [
            {"trace_decisions": True},
            {"tracer": "flight"},
            {"trace_decisions": True, "tracer": "flight"},
        ],
        ids=["explain", "tracer", "both"],
    )
    def test_decisions_identical_with_explain_on(self, lens):
        """Neither lens, nor both together, changes a decision."""
        observed = _replay(SystemConfig(**lens))
        plain = _replay(SystemConfig())
        assert (observed.scheduler.explain is not None) == ("trace_decisions" in lens)
        assert (observed.tracer is not None) == ("tracer" in lens)
        assert _decision_sha(observed) == _decision_sha(plain)


class TestFormatting:
    def test_format_names_pass_and_kind(self):
        system = _replay(SystemConfig(trace_decisions=True))
        explain = system.scheduler.explain
        rid = explain.causes[0].request_id
        text = format_request_causes(explain, rid)
        assert text.startswith(f"request {rid}:")
        assert "pass " in text or "outside any pass" in text

    def test_format_handles_unknown_request(self):
        log = ExplainLog()
        assert "no decisions" in format_request_causes(log, 42)

    def test_cause_is_a_plain_tuple(self):
        cause = Cause(0, 1.0, "DISPATCH_HIT", 7, "g", 1, 3, "idle=1", ())
        assert tuple(cause)[:4] == (0, 1.0, "DISPATCH_HIT", 7)


class TestRunExplain:
    def test_small_replay_explains_one_request(self):
        text = run_explain(3, n_requests=300)
        assert "explaining request 3\n" in text
        assert "\nrequest 3: " in text and "decision(s)" in text

    @pytest.mark.parametrize("request_id", [0, 326])
    def test_out_of_range_request_raises_with_the_range(self, request_id):
        with pytest.raises(ValueError, match=r"out of range: .* \(1\.\.325\)"):
            run_explain(request_id, n_requests=300)
