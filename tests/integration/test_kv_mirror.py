"""The Datastore mirrors the control plane at every action boundary.

Paper §III-E makes the Datastore the blackboard the GPU Managers and the
Cache Manager publish GPU status, finish times and LRU lists to.  A
post-event hook registered after the Datastore's own flush hook audits
the committed keys against the in-memory state after *every* simulator
event, not only once the replay drains:

* ``gpu/status/<g>`` is the status the device state and the manager's
  draining flag imply (``offline`` / ``draining`` / ``idle`` / ``busy``);
* ``gpu/lru/<g>`` is ``tuple(cache.lru_list(gpu))`` (a GPU that never
  held a model has no key, read as ``()``);
* the live ``cache/locations/*`` keys are exactly the models cached
  somewhere, each holding the ``gpu_id`` of every device in
  ``cache.locations(m)``;
* an online GPU's ``gpu/finish_time/<g>``, clamped to now, is
  ``estimator.busy_until(gpu)`` (a missing key reads as now).
"""

import pytest

from repro.cluster import PAPER_TESTBED, ClusterSpec
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload, spec_for_requests

POLICIES = ["lb", "lalb", "lalbo3", "locality"]
LOCATIONS = "cache/locations/"


def _status(gpu, manager) -> str:
    if not gpu.is_online:
        return "offline"
    if manager.is_draining(gpu):
        return "draining"
    return "idle" if gpu.is_idle else "busy"


def audit_mirror(system: FaaSCluster) -> list[int]:
    """Subscribe the audit after the Datastore's flush hook; the returned
    one-element list counts the events it checked."""
    kv = system.datastore.kv
    cache, estimator, sim = system.cache, system.estimator, system.sim
    gpus = system.cluster.gpus
    managers = system.gpu_managers()
    checked = [0]

    def audit() -> None:
        now = sim.now
        for gpu in gpus:
            g = gpu.gpu_id
            where = (now, g)
            assert kv.get_value(f"gpu/status/{g}") == _status(
                gpu, managers[gpu.node_id]
            ), where
            assert kv.get_value(f"gpu/lru/{g}", ()) == tuple(cache.lru_list(gpu)), where
            if gpu.is_online:
                finish = kv.get_value(f"gpu/finish_time/{g}", now)
                assert max(finish, now) == estimator.busy_until(gpu), where
        cached = set().union(*(cache.models_on(gpu) for gpu in gpus))
        live = {row.key[len(LOCATIONS):]: row.value for row in kv.range(LOCATIONS)}
        assert set(live) == cached, now
        for model_id, value in live.items():
            assert value == tuple(g.gpu_id for g in cache.locations(model_id)), (now, model_id)
        checked[0] += 1

    sim.subscribe_post_event(audit)
    return checked


@pytest.mark.parametrize("policy", POLICIES)
def test_mirror_holds_through_a_gpu_crash_and_recovery(policy):
    _crash_and_recover(SystemConfig(cluster=ClusterSpec.homogeneous(2, 3), policy=policy))


@pytest.mark.parametrize("replacement", ["fifo", "lfu", "size"])
def test_mirror_holds_under_each_replacement_policy(replacement):
    """Each policy reorders its eviction list on its own events (LFU on a
    use, FIFO only on a load); the published order tracks every one."""
    _crash_and_recover(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(2, 3), policy="lalbo3", replacement=replacement
        )
    )


def _crash_and_recover(config: SystemConfig) -> None:
    system = FaaSCluster(config)
    checked = audit_mirror(system)
    kinds = []
    system.cache.subscribe(lambda kind, *_: kinds.append(kind))
    workload = build_workload(
        WorkloadSpec(working_set=25, minutes=2, requests_per_minute=300, seed=3)
    )
    n = len(workload)
    system.submit_workload(workload)
    gpu_id = system.cluster.gpus[2].gpu_id
    system.sim.schedule_at(40.0, system.fail_gpu, gpu_id)
    system.sim.schedule_at(52.0, system.recover_gpu, gpu_id)
    system.run()
    assert len(system.completed) == n
    assert "evict" in kinds  # the LRU and location keys churn
    assert checked[0] == system.sim.processed_events


def test_mirror_holds_under_the_recoverable_profile():
    system = FaaSCluster(
        SystemConfig(cluster=PAPER_TESTBED, fault_profile="recoverable", seed=7)
    )
    checked = audit_mirror(system)
    workload = build_workload(spec_for_requests(2000))
    n = len(workload)
    system.submit_workload(workload)
    system.run()
    assert system.metrics.faults_injected > 0
    assert len(system.completed) == n
    assert checked[0] == system.sim.processed_events
