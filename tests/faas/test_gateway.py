"""Integration tests: Gateway CRUD + the full invocation path."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.faas import (
    Autoscaler,
    FunctionNotFound,
    FunctionSpec,
    Gateway,
    InvocationStatus,
    default_template,
)
from repro.runtime import FaaSCluster, SystemConfig


@pytest.fixture
def system():
    return FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3"))


@pytest.fixture
def gateway(system):
    return Gateway(system)


class TestCRUD:
    def test_register_and_get(self, gateway):
        spec = FunctionSpec(name="classify", model_architecture="resnet50")
        fn = gateway.register(spec)
        assert gateway.get("classify") is fn
        assert gateway.list_functions() == ["classify"]

    def test_register_writes_meta_to_datastore(self, system, gateway):
        gateway.register(FunctionSpec(name="classify", model_architecture="vgg16"))
        meta = system.datastore.kv.get_value("fn/meta/classify")
        assert meta["model"] == "vgg16"
        assert meta["gpu_enabled"] is True

    def test_duplicate_register_rejected(self, gateway):
        gateway.register(FunctionSpec(name="f", model_architecture="alexnet"))
        with pytest.raises(ValueError):
            gateway.register(FunctionSpec(name="f", model_architecture="alexnet"))

    def test_inference_without_gpu_flag_rejected(self, gateway):
        spec = FunctionSpec(
            name="f",
            dockerfile=default_template(gpu=False),
            model_architecture="alexnet",
        )
        with pytest.raises(ValueError, match="GPU-enable"):
            gateway.register(spec)

    def test_get_unknown_raises(self, gateway):
        with pytest.raises(FunctionNotFound):
            gateway.get("ghost")

    def test_delete_removes_function_and_meta(self, system, gateway):
        gateway.register(FunctionSpec(name="f", model_architecture="alexnet"))
        gateway.delete("f")
        assert gateway.list_functions() == []
        assert system.datastore.kv.get_value("fn/meta/f") is None

    def test_update_replaces_spec(self, system, gateway):
        gateway.register(FunctionSpec(name="f", model_architecture="alexnet"))
        gateway.update(FunctionSpec(name="f", model_architecture="vgg19"))
        assert system.datastore.kv.get_value("fn/meta/f")["model"] == "vgg19"

    def test_update_unknown_raises(self, gateway):
        with pytest.raises(FunctionNotFound):
            gateway.update(FunctionSpec(name="ghost", model_architecture="alexnet"))


class TestInvocationPath:
    def test_gpu_inference_end_to_end(self, system, gateway):
        gateway.register(FunctionSpec(name="classify", model_architecture="resnet50"))
        responses = []
        inv = gateway.invoke("classify", payload=None, on_response=responses.append)
        system.run()
        assert inv.status is InvocationStatus.SUCCEEDED
        assert responses == [inv]
        # end-to-end latency covers build + cold start + load + inference
        assert inv.latency >= 2.67 + 1.28

    def test_second_invocation_faster_warm_and_cached(self, system, gateway):
        gateway.register(FunctionSpec(name="classify", model_architecture="resnet50"))
        first = gateway.invoke("classify")
        system.run()
        second = gateway.invoke("classify")
        system.run()
        assert second.latency == pytest.approx(1.28)  # hit: inference only
        assert second.latency < first.latency

    def test_completed_request_recorded_by_runtime(self, system, gateway):
        gateway.register(FunctionSpec(name="classify", model_architecture="alexnet"))
        gateway.invoke("classify")
        system.run()
        assert len(system.completed) == 1
        assert system.completed[0].function_name == "classify"

    def test_plain_function_executes_handler(self, system, gateway):
        gateway.register(
            FunctionSpec(
                name="echo",
                dockerfile=default_template(gpu=False),
                handler=lambda x: x * 2,
                handler_time_s=0.1,
            )
        )
        inv = gateway.invoke("echo", payload=21)
        system.run()
        assert inv.status is InvocationStatus.SUCCEEDED
        assert inv.response == 42

    def test_handler_exception_fails_invocation(self, system, gateway):
        def boom(_):
            raise RuntimeError("kaput")

        gateway.register(
            FunctionSpec(name="bad", dockerfile=default_template(gpu=False), handler=boom)
        )
        inv = gateway.invoke("bad")
        system.run()
        assert inv.status is InvocationStatus.FAILED
        assert "kaput" in inv.error

    def test_pre_and_postprocess_run_on_container(self, system, gateway):
        seen = {}

        def pre(payload):
            seen["pre"] = payload
            return payload

        def post(result):
            seen["post"] = True
            return "label-7"

        gateway.register(
            FunctionSpec(
                name="classify",
                model_architecture="resnet50",
                preprocess=pre,
                postprocess=post,
            )
        )
        inv = gateway.invoke("classify", payload="raw-image")
        system.run()
        assert seen == {"pre": "raw-image", "post": True}
        assert inv.response == "label-7"

    def test_preprocess_error_fails_without_gpu_dispatch(self, system, gateway):
        def bad_pre(_):
            raise ValueError("corrupt image")

        gateway.register(
            FunctionSpec(name="classify", model_architecture="resnet50", preprocess=bad_pre)
        )
        inv = gateway.invoke("classify")
        system.run()
        assert inv.status is InvocationStatus.FAILED
        assert len(system.completed) == 0  # never reached the scheduler

    def test_real_network_inference_through_gateway(self, system, gateway):
        """Wire a real NumPy network through the intercepted API."""
        fn = gateway.register(FunctionSpec(name="classify", model_architecture="squeezenet1.1"))
        from repro.models.nn import build_model

        fn.model_handle.instance.metadata["network"] = build_model("squeezenet1.1")
        batch = np.random.default_rng(0).standard_normal((4, 3, 32, 32))
        inv = gateway.invoke("classify", payload=batch)
        system.run()
        assert inv.response.shape == (4, 10)
        np.testing.assert_allclose(inv.response.sum(axis=-1), 1.0, rtol=1e-9)

    def test_watchdog_metrics_written(self, system, gateway):
        gateway.register(FunctionSpec(name="classify", model_architecture="alexnet"))
        inv = gateway.invoke("classify")
        system.run()
        rec = system.datastore.kv.get_value(f"fn/metrics/classify/{inv.invocation_id}")
        assert rec["status"] == "succeeded"
        assert rec["latency_s"] > 0


class TestAutoscaler:
    def test_scales_up_under_load(self, system, gateway):
        gateway.register(
            FunctionSpec(
                name="hot",
                dockerfile=default_template(gpu=False),
                handler=lambda x: x,
                min_replicas=1,
                max_replicas=6,
            )
        )
        scaler = Autoscaler(system.sim, gateway, period_s=10.0, target_per_replica=10.0)
        scaler.start()
        system.run(until=3.0)  # build done, replica warm
        for i in range(80):
            system.sim.schedule(4.0 + i * 0.05, gateway.invoke, "hot", i)
        system.run(until=30.0)
        fn = gateway.get("hot")
        assert fn.pool.replica_count() > 1
        assert any(name == "hot" for _, name, _ in scaler.decisions)

    def test_respects_max_replicas(self, system, gateway):
        gateway.register(
            FunctionSpec(
                name="hot",
                dockerfile=default_template(gpu=False),
                handler=lambda x: x,
                max_replicas=2,
            )
        )
        scaler = Autoscaler(system.sim, gateway, period_s=5.0, target_per_replica=1.0)
        scaler.start()
        system.run(until=3.0)
        for i in range(50):
            system.sim.schedule(3.0 + i * 0.01, gateway.invoke, "hot", i)
        system.run(until=20.0)
        assert gateway.get("hot").pool.replica_count() <= 2

    def test_stop_halts_scaling(self, system, gateway):
        scaler = Autoscaler(system.sim, gateway, period_s=1.0)
        scaler.start()
        scaler.stop()
        system.run(until=5.0)
        assert scaler.decisions == []

    def test_invalid_parameters(self, system, gateway):
        with pytest.raises(ValueError):
            Autoscaler(system.sim, gateway, target_per_replica=0)


class TestOwnedIds:
    """The Gateway mints invocation and container IDs, and its system the
    model handles' request IDs: nothing carries over between gateways."""

    @staticmethod
    def _drive():
        system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 2)))
        gateway = Gateway(system)
        gateway.register(FunctionSpec(name="classify", model_architecture="alexnet"))
        gateway.register(
            FunctionSpec(
                name="echo", dockerfile=default_template(gpu=False), handler=lambda x: x
            )
        )
        system.run(until=3.0)  # images built, first replicas warm
        # a burst: more concurrent calls than warm replicas, so both pools
        # cold-start extra containers
        names = ["classify", "echo"] * 6
        invocations = [gateway.invoke(name, i) for i, name in enumerate(names)]
        system.run()
        pools = [gateway.get(name).pool for name in ("classify", "echo")]
        kv = system.datastore.kv
        return (
            [inv.invocation_id for inv in invocations],
            [c.container_id for pool in pools for c in pool.containers],
            {k.key: k.value for k in kv.items() if k.key.startswith("fn/metrics/")},
            sorted(r.request_id for r in system.completed),
        )

    def test_two_fresh_gateways_mint_the_same_ids(self):
        first = self._drive()
        assert self._drive() == first
        invocation_ids, container_ids, metrics, request_ids = first
        assert invocation_ids == list(range(1, 13))
        assert len(container_ids) > 2 and len(set(container_ids)) == len(container_ids)
        assert len(metrics) == 12
        assert request_ids == list(range(1, 7))

    def test_container_ids_stay_unique_across_update(self, system, gateway):
        gateway.register(FunctionSpec(name="f", model_architecture="alexnet", min_replicas=2))
        system.run()
        before = [c.container_id for c in gateway.get("f").pool.containers]
        gateway.update(FunctionSpec(name="f", model_architecture="vgg19", min_replicas=2))
        system.run()
        after = [c.container_id for c in gateway.get("f").pool.containers]
        assert before == ["f-1", "f-2"]
        assert after == ["f-3", "f-4"]
