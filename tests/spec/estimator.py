"""The literal queued-cost walk: the spec of the estimator's running sums.

``FinishTimeEstimator.queued_cost`` is an O(1) read of a per-GPU sum the
estimator keeps up to date from local-queue push/pop hooks.  The walk
below recomputes it from the queue itself, the oracle the
incremental-vs-reference tests compare the running sums against.
"""

from repro.cluster.gpu import GPUDevice
from repro.core.estimator import FinishTimeEstimator

__all__ = ["reference_queued_cost"]


def reference_queued_cost(estimator: FinishTimeEstimator, gpu: GPUDevice) -> float:
    """Total profiled inference time of the requests in ``gpu``'s local queue."""
    cost = 0.0
    for request in estimator.local_queues.requests(gpu):
        cost += estimator.infer_time(request, gpu)
    return cost
