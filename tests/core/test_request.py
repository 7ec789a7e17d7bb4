"""Unit tests for the inference-request lifecycle record."""

import pytest

from repro.core.request import InferenceRequest, RequestState


def test_request_id_is_required(make_instance):
    """IDs are minted by the code that builds the request; there is no default."""
    with pytest.raises(TypeError, match="request_id"):
        InferenceRequest("f", make_instance(), arrival_time=0.0)


def test_model_id_is_instance_identity(make_request):
    a = make_request("fn-1", "resnet50")
    b = make_request("fn-2", "resnet50")
    assert a.model_id != b.model_id  # same architecture, distinct cache items


def test_latency_and_derived_times(make_request):
    r = make_request(arrival=10.0)
    r.dispatched_at = 12.0
    r.exec_start_at = 14.0
    r.completed_at = 15.5
    assert r.latency == pytest.approx(5.5)
    assert r.queueing_delay == pytest.approx(2.0)
    assert r.service_time == pytest.approx(3.5)


def test_latency_before_completion_raises(make_request):
    with pytest.raises(RuntimeError):
        _ = make_request().latency
    with pytest.raises(RuntimeError):
        _ = make_request().queueing_delay


def test_invalid_construction(make_instance):
    inst = make_instance()
    with pytest.raises(ValueError):
        InferenceRequest("f", inst, arrival_time=-1.0, request_id=1)
    with pytest.raises(ValueError):
        InferenceRequest("f", inst, arrival_time=0.0, request_id=1, batch_size=0)


def test_initial_state(make_request):
    r = make_request()
    assert r.state is RequestState.QUEUED
    assert r.cache_hit is None
    assert r.false_miss is False
    assert r.visits == 0


def test_sla_tracking(make_instance):
    from repro.core.request import InferenceRequest

    inst = make_instance()
    r = InferenceRequest("f", inst, arrival_time=0.0, request_id=1, sla_s=5.0)
    r.completed_at = 4.0
    assert r.met_sla is True
    r.completed_at = 6.0
    assert r.met_sla is False


def test_no_sla_returns_none(make_request):
    r = make_request()
    r.completed_at = 100.0
    assert r.met_sla is None


def test_invalid_sla_rejected(make_instance):
    import pytest
    from repro.core.request import InferenceRequest

    with pytest.raises(ValueError):
        InferenceRequest("f", make_instance(), arrival_time=0.0, request_id=1, sla_s=0.0)
