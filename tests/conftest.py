"""Shared fixtures for core tests."""

import itertools

import pytest

from repro.core.request import InferenceRequest
from repro.models import ModelInstance, get_profile


@pytest.fixture
def make_instance():
    def _make(instance_id="fn-1", architecture="resnet50", tenant="default"):
        return ModelInstance(instance_id, get_profile(architecture), tenant=tenant)

    return _make


@pytest.fixture
def make_request(make_instance):
    ids = itertools.count(1)  # per test: request IDs run 1, 2, ... in build order

    def _make(
        instance_id="fn-1",
        architecture="resnet50",
        arrival=0.0,
        function=None,
        tenant="default",
        batch_size=32,
        model=None,
        request_id=None,
    ):
        """``model`` shares one deployed instance between requests (same
        cache item); by default each request deploys its own, owned by
        ``tenant``."""
        return InferenceRequest(
            function_name=function or instance_id,
            model=model or make_instance(instance_id, architecture, tenant),
            arrival_time=arrival,
            request_id=next(ids) if request_id is None else request_id,
            batch_size=batch_size,
        )

    return _make
