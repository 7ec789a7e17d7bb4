"""Operating through GPU failures, with a live timeline.

Runs two minutes of the Azure workload on the 12-GPU testbed, kills a
whole node (4 GPUs) one minute in — losing every model cached there and
the requests in flight — then brings it back.  A timeline probe records
queue depths and GPU states so you can watch the system absorb the hit:
requests are re-queued at their arrival positions, retried on survivors,
and nothing is lost.

Run:  python examples/failure_recovery.py
"""

from repro.metrics import TimelineProbe
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import SyntheticAzureTrace, WorkloadSpec, build_workload


def main() -> None:
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    workload = build_workload(
        WorkloadSpec(working_set=15, minutes=2), trace=SyntheticAzureTrace()
    )
    probe = TimelineProbe(system, period_s=10.0)

    for request in workload.requests:
        system.submit_at(request)

    node1 = system.cluster.nodes[1]
    victims = [g.gpu_id for g in node1.gpus]
    for gpu_id in victims:
        system.sim.schedule_at(60.0, system.fail_gpu, gpu_id)     # node dies
        system.sim.schedule_at(90.0, system.recover_gpu, gpu_id)  # comes back

    system.run()

    print("time   idle  load  infer  queue  completed")
    for s in probe.samples:
        marker = "  <- node1 down" if 60.0 <= s.time_s < 90.0 else ""
        print(
            f"{s.time_s:5.0f}  {s.gpus_idle:4d}  {s.gpus_loading:4d}  "
            f"{s.gpus_inferring:5d}  {s.global_queue_depth:5d}  "
            f"{s.completed_requests:9d}{marker}"
        )

    retried = [r for r in workload.requests if r.retries > 0]
    print(f"\ncompleted : {len(system.completed)}/{len(workload.requests)}")
    print(f"retried   : {len(retried)} requests survived the node failure")
    avg = sum(r.latency for r in system.completed) / len(system.completed)
    print(f"avg latency (with failure + recovery): {avg:.2f} s")

    assert len(system.completed) == len(workload.requests), "no request lost"
    assert retried, "the failure really interrupted work"


if __name__ == "__main__":
    main()
