"""Exact call budget of the hot path (a count, not a timing).

cProfile's call count over a replay is the same to the digit run to run
under one hash seed and moves by < 0.01 calls/request under another, so
one forwarding hop re-added on the per-request path reads as +1.00 here,
where a wall-clock benchmark on a shared box cannot resolve 5 %.  Two
shapes, because the global queue takes a different route on each: the 2k
§V-A replay never queues more than a handful of requests (O3 skips are
counted eagerly on the unattached tail), the over-capacity replay holds
6,086 of its 8,000 requests in the global queue when arrivals stop at
t = 240 s (skips are read off the bump counter).  The gate leaves 3 %
(six calls per request) for interpreter differences; ``make profile``
prints the shallow number with a per-subsystem breakdown to compare
against ``ACHIEVED`` directly.
"""

import sys

import pytest

from repro.experiments.bench import profile_replay
from repro.traces import WorkloadSpec, spec_for_requests

SHALLOW_2K = spec_for_requests(2000)
DEEP_8K = WorkloadSpec(working_set=25, minutes=4, requests_per_minute=2000, seed=0)

#: calls per request at this commit (± 0.01 across hash seeds); the parent
#: commit read 176.33 shallow and 159.76 deep.  They may only go down.
ACHIEVED = {"shallow": 176.27, "deep": 159.43}
#: headroom for interpreter-version differences in what counts as a call
HEADROOM = 1.03


needs_the_profiler = pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed in this process"
)


def _assert_within_budget(shape, spec, requests):
    _, total_calls, completed = profile_replay(spec)
    assert completed == requests
    per_request = total_calls / completed
    budget = ACHIEVED[shape] * HEADROOM
    assert per_request <= budget, (
        f"{per_request:.2f} Python + builtin calls per request on the {shape} "
        f"replay, budget {budget:.2f} (achieved {ACHIEVED[shape]}): run `make profile` "
        "and look for the bucket that grew"
    )


@needs_the_profiler
def test_calls_per_request_within_budget():
    _assert_within_budget("shallow", SHALLOW_2K, 1950)


@needs_the_profiler
def test_deep_queue_calls_per_request_within_budget():
    _assert_within_budget("deep", DEEP_8K, 8000)
