"""Multi-tenant GPU FaaS with quotas and demand-driven autoscaling (§VI).

Two tenants share the cluster:

* ``burst`` floods the platform with invocations of its functions — the
  autoscaler grows its container pool, but its GPU usage is capped by a
  per-tenant process quota, so it cannot monopolize GPU memory;
* ``steady`` sends a trickle and keeps meeting its latency expectations
  despite the noisy neighbour.

Run:  python examples/multi_tenant_autoscaling.py
"""

import numpy as np

from repro.core import TenantQuota
from repro.faas import Autoscaler, FunctionSpec, Gateway
from repro.runtime import FaaSCluster, SystemConfig


def main() -> None:
    system = FaaSCluster(
        SystemConfig(
            policy="lalbo3",
            quotas={"burst": TenantQuota(max_processes=4)},  # isolation lever
        )
    )
    gateway = Gateway(system)
    scaler = Autoscaler(system.sim, gateway, period_s=10.0, target_per_replica=20.0)
    scaler.start()

    # the bursty tenant deploys several models; the steady one deploys one
    for i, arch in enumerate(["vgg19", "vgg16", "wideresnet1012", "densenet201"]):
        gateway.register(
            FunctionSpec(name=f"burst-{i}", model_architecture=arch, tenant="burst",
                         max_replicas=6)
        )
    gateway.register(
        FunctionSpec(name="steady", model_architecture="resnet18", tenant="steady")
    )
    system.run(until=3.0)  # builds + first replicas
    # the runtime keeps no finished request: tally burst's GPU time as each completes
    burst_service_s = []

    def tally(request) -> None:
        if request.model.tenant == "burst":
            burst_service_s.append(request.service_time)

    system.subscribe_completion(tally)

    rng = np.random.default_rng(0)
    # burst tenant: 240 invocations over one minute across its functions
    for t in sorted(rng.uniform(3.0, 63.0, size=240)):
        name = f"burst-{rng.integers(0, 4)}"
        system.sim.schedule_at(t, gateway.invoke, name)
    # steady tenant: one invocation every 5 seconds
    steady_invs = []
    for k in range(12):
        system.sim.schedule_at(
            3.0 + 5.0 * k, lambda: steady_invs.append(gateway.invoke("steady"))
        )
    system.run(until=120.0)  # let the autoscaler react while load flows
    scaler.stop()            # the periodic timer would keep run() alive
    system.run()             # drain everything that remains

    # -- report -----------------------------------------------------------
    steady_lat = [inv.latency for inv in steady_invs if inv.completed_at is not None]
    burst_fns = [gateway.get(f"burst-{i}") for i in range(4)]
    peak_replicas = {
        f"burst-{i}": max(
            (n for _, name, n in scaler.decisions if name == f"burst-{i}"), default=1
        )
        for i in range(4)
    }
    print(f"burst replicas at peak           : {list(peak_replicas.values())}")
    print(f"burst replicas after cool-down   : "
          f"{[fn.pool.replica_count() for fn in burst_fns]}")
    print(f"autoscaler decisions             : {len(scaler.decisions)}")
    processes = system.tenancy.processes("burst")
    gpu_time_s = sum(burst_service_s)
    print(f"burst GPU processes (capped at 4): {processes}")
    print(f"burst GPU time consumed          : {gpu_time_s:.0f} s")
    print(f"steady p50 latency               : {np.median(steady_lat):.2f} s")
    print(f"steady worst latency             : {max(steady_lat):.2f} s")

    assert processes <= 4, "quota must cap burst's resident models"
    assert len(steady_lat) == 12, "steady tenant must complete despite the noise"
    assert any(n > 1 for n in peak_replicas.values()), "autoscaler scaled up under load"


if __name__ == "__main__":
    main()
