"""Every shipped fault kind changes what the scheduler decides.

A fault that is counted in ``faults_injected`` but leaves the decision log
untouched is noise in the robustness numbers.  Each kind below is armed
alone against a small loaded replay; the replay's decision log must differ
from the same replay with no faults.
"""

import pytest

from repro.chaos import FaultPlan
from repro.chaos.plan import GPUCrash, LeaseExpiry, Straggler
from repro.cluster import ClusterSpec
from repro.runtime import FaaSCluster, SystemConfig

FAULTS = {
    "gpu_crash": GPUCrash(at_s=2.0, gpu_index=0, recover_after_s=4.0),
    "straggler": Straggler(at_s=1.0, gpu_index=0, factor=4.0, duration_s=8.0),
    "lease_expiry": LeaseExpiry(at_s=2.0, gpu_index=0, duration_s=6.0),
}


def _decisions(plan, make_instance, make_request):
    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(1, 2), policy="lalbo3", fault_plan=plan
        )
    )
    models = [make_instance(f"fn-{i}", "resnet50") for i in range(4)]
    # both arms number their requests alike: only the fault may differ
    requests = [
        make_request(model=models[i % 4], arrival=i * 0.15, request_id=i + 1)
        for i in range(80)
    ]
    for r in requests:
        system.submit_at(r)
    system.run()
    assert all(r.completed_at is not None for r in requests)
    return list(system.scheduler.decisions)


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_one_fault_changes_the_decision_log(kind, make_instance, make_request):
    baseline = _decisions(None, make_instance, make_request)
    faulted = _decisions(
        FaultPlan(kind, faults=(FAULTS[kind],)), make_instance, make_request
    )
    assert faulted != baseline
