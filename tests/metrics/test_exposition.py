"""Prometheus text exposition: format shape and counter fidelity."""

import re

import pytest

from repro.metrics import prometheus_exposition
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


_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+einf]+$'
)


def test_every_line_is_help_type_or_sample():
    text = prometheus_exposition(_replay(SystemConfig()))
    for line in text.strip().splitlines():
        assert (
            line.startswith("# HELP ")
            or line.startswith("# TYPE ")
            or _SAMPLE.match(line)
        ), line


def test_counters_match_the_run():
    system = _replay(SystemConfig())
    text = prometheus_exposition(system)
    assert (
        f"repro_requests_completed_total {system.metrics.completed_count}"
        in text
    )
    assert (
        f'repro_scheduler_passes_total{{outcome="executed"}} '
        f"{system.scheduler.passes_executed}" in text
    )
    assert f"repro_kv_revision {system.datastore.kv.revision}" in text


def test_tracer_rings_exposed_when_tracing():
    system = _replay(SystemConfig(tracer="flight"))
    text = prometheus_exposition(system)
    totals = system.tracer.totals
    assert f'repro_trace_records_total{{ring="requests"}} {totals["requests"]}' in text
    assert f'repro_trace_records_total{{ring="passes"}} {totals["passes"]}' in text
    assert 'repro_trace_records_dropped_total{ring="requests"} 0' in text


def test_no_tracer_metrics_without_tracer():
    text = prometheus_exposition(_replay(SystemConfig()))
    assert "repro_trace_records_total" not in text


@pytest.mark.parametrize(
    "cfg",
    [SystemConfig(), SystemConfig(metrics_exact_cap=0)],
    ids=["window-open", "window-closed"],
)
def test_latency_histogram_rendered_in_every_configuration(cfg):
    system = _replay(cfg)
    assert system.metrics.window_open == (cfg.metrics_exact_cap is None)
    text = prometheus_exposition(system)
    assert "# TYPE repro_request_latency_seconds histogram" in text
    n = system.metrics.completed_count
    assert f'repro_request_latency_seconds_bucket{{le="+Inf"}} {n}' in text
    assert re.search(r"^repro_request_latency_seconds_sum \S+$", text, re.M)
    count = re.search(r"^repro_request_latency_seconds_count (\d+)$", text, re.M)
    assert count and int(count.group(1)) == n > 0


def test_histogram_is_the_same_on_either_side_of_the_close():
    def histogram_lines(cfg):
        text = prometheus_exposition(_replay(cfg))
        return [ln for ln in text.splitlines() if "request_latency_seconds" in ln]

    assert histogram_lines(SystemConfig()) == histogram_lines(
        SystemConfig(metrics_exact_cap=0)
    )
