"""The simulator against queueing theory: one GPU serving one model is M/D/1.

Every other correctness check compares the system with itself (production
against spec, batched against write-through, run against re-run).  Here
the sim kernel, the GPU state machine and the request lifecycle are
checked against closed forms instead.

Setup: one GPU, one function on alexnet (Table I: S = 1.25 s per batch,
a 2.81 s upload), Poisson arrivals at rate λ = ρ / S.  The first request
uploads the model; every later one is a hit served for exactly S, one at
a time, first come first served — an M/D/1 queue.

* **Pollaczek–Khinchine.**  The stationary mean wait (arrival → dispatch)
  is Wq = ρS / (2(1 − ρ)).
* **Utilization law.**  The SMs are busy N·S seconds in total, so the SM
  utilization is λS = ρ up to the Poisson count and the one upload.
* **Locality is moot.**  With one model on one GPU every registered
  policy serves the same requests at the same instants.

Tolerances are stated here and derived, not tuned:

* Mean wait — non-overlapping batch means.  Each ρ runs ``SEEDS``
  independent seeds of ``N`` requests; each run is cut into ``BATCHES``
  batches of 2,000 requests and its first batch (the warm-up that starts
  with the 2.81 s upload in front of an empty queue) is dropped.  The
  27 batch means give a two-sided 99 % Student-t confidence interval
  (26 degrees of freedom, t = 2.779) for the stationary mean, and P–K's
  value must fall inside it.  A batch of 2,000 requests spans about six
  M/D/1 relaxation times S / (1 − √ρ)² even at ρ = 0.9 (~340 requests),
  so adjacent batch means are close to independent.  On the fixed seeds the
  intervals are 0.639 ± 0.029, 2.65 ± 0.23 and 5.84 ± 0.79 s around
  0.625, 2.50 and 5.63 s.
* Utilization — the N-th Poisson arrival falls at N/λ with relative
  standard deviation 1/√N, so |U − ρ| ≤ ρ · 4/√N (four standard
  deviations) plus the upload's share L / T of the run.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, GPUState
from repro.core.policies import SCHEDULING_POLICY_NAMES
from repro.core.request import InferenceRequest
from repro.models.profiles import PAPER_BATCH_SIZE, ModelInstance
from repro.models.zoo import get_profile
from repro.runtime import FaaSCluster, SystemConfig

ALEXNET = get_profile("alexnet")
S = ALEXNET.infer_time(PAPER_BATCH_SIZE)
L = ALEXNET.load_time_s
RHOS = (0.5, 0.8, 0.9)

SEEDS = 3
N = 20_000
BATCHES = 10
#: two-sided 99 % Student-t quantile at (SEEDS · (BATCHES − 1) − 1) = 26
#: degrees of freedom
T_99_DF26 = 2.779


def _replay(rho, seed, n, policy="lb"):
    """One M/D/1 run; returns the drained system and its requests."""
    instance = ModelInstance("fn-0", ALEXNET)
    arrivals = np.cumsum(np.random.default_rng(seed).exponential(S / rho, n))
    requests = [
        InferenceRequest("fn-0", instance, t, i) for i, t in enumerate(arrivals.tolist(), 1)
    ]
    system = FaaSCluster(SystemConfig(cluster=ClusterSpec.homogeneous(1, 1), policy=policy))
    system.submit_workload(requests)
    system.run()
    assert system.metrics.completed_count == n
    return system, requests


@pytest.fixture(scope="module", params=RHOS, ids=lambda rho: f"rho={rho}")
def mdl_runs(request):
    """(ρ, one record per seed): the waits and the GPU's time accounting."""
    rho = request.param
    runs = []
    for seed in range(SEEDS):
        system, requests = _replay(rho, seed, N)
        gpu = system.cluster.gpus[0]
        runs.append(
            {
                "waits": np.array([r.dispatched_at - r.arrival_time for r in requests]),
                "utilization": gpu.sm_utilization(),
                "inferring_s": gpu.time_in(GPUState.INFERRING),
                "loading_s": gpu.time_in(GPUState.LOADING),
                "elapsed_s": system.sim.now,
            }
        )
    return rho, runs


def test_mean_wait_matches_pollaczek_khinchine(mdl_runs):
    rho, runs = mdl_runs
    batch_means = np.concatenate(
        [run["waits"].reshape(BATCHES, -1).mean(axis=1)[1:] for run in runs]
    )
    assert len(batch_means) == 27
    mean = batch_means.mean()
    half_width = T_99_DF26 * batch_means.std(ddof=1) / np.sqrt(len(batch_means))
    pk = rho * S / (2 * (1 - rho))
    assert abs(mean - pk) <= half_width, (
        f"ρ={rho}: simulated mean wait {mean:.3f} ± {half_width:.3f} s (99 % CI), "
        f"Pollaczek–Khinchine {pk:.3f} s"
    )


def test_sm_utilization_is_lambda_s(mdl_runs):
    rho, runs = mdl_runs
    for run in runs:
        # every request infers once for exactly S, after exactly one upload
        assert run["inferring_s"] == pytest.approx(N * S, rel=1e-9)
        assert run["loading_s"] == pytest.approx(L, rel=1e-9)
        tolerance = rho * 4 / np.sqrt(N) + L / run["elapsed_s"]
        assert abs(run["utilization"] - rho) <= tolerance, (rho, run["utilization"])


@pytest.mark.parametrize("rho", RHOS)
def test_every_policy_serves_the_same_schedule(rho):
    """With one model on one GPU there is no locality to exploit: every
    registered policy dispatches each request to the same GPU at the same
    instant, hit or miss alike, and it completes at the same instant.

    The decision logs themselves differ only in route bookkeeping — the
    ``locality`` strawman parks each waiting request in the GPU's local
    queue (a MOVE_TO_LOCAL row, then DISPATCH_LOCAL), and LALB's first
    scan counts one O3 visit on the very first request — so what is
    compared is the dispatch rows' (time, request, GPU) and each
    request's (GPU, hit, dispatch time, completion time)."""

    def schedule(policy):
        system, requests = _replay(rho, 0, 1000, policy)
        dispatches = [
            (d.time_s, d.request_id, d.gpu_id)
            for d in system.scheduler.decisions
            if d.kind.value.startswith("dispatch")
        ]
        served = [(r.gpu_id, r.cache_hit, r.dispatched_at, r.completed_at) for r in requests]
        return dispatches, served

    reference = schedule("lb")
    assert len(reference[0]) == 1000
    for policy in SCHEDULING_POLICY_NAMES:
        assert schedule(policy) == reference, policy
