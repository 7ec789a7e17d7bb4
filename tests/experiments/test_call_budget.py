"""Exact call budget of the hot path (a count, not a timing).

cProfile's call count over the 2k §V-A replay is the same to the digit run
to run under one hash seed and moves by < 0.01 calls/request under
another, so one forwarding hop re-added on the per-request path reads as
+1.00 here, where a wall-clock benchmark on a shared box cannot resolve
5 %.  The gate leaves 3 % (six calls per request) for interpreter
differences; ``make profile`` prints the same number with a
per-subsystem breakdown to compare against ``ACHIEVED_2K`` directly.
"""

import sys

import pytest

from repro.experiments.bench import profile_replay

#: calls per request at this commit (202.92 ± 0.01 across hash seeds; the
#: parent commit read 269.45)
ACHIEVED_2K = 202.92
#: headroom for interpreter-version differences in what counts as a call
BUDGET = ACHIEVED_2K * 1.03


@pytest.mark.skipif(
    sys.getprofile() is not None, reason="another profiler is installed in this process"
)
def test_calls_per_request_within_budget():
    _, total_calls, completed = profile_replay(2000)
    assert completed == 1950
    per_request = total_calls / completed
    assert per_request <= BUDGET, (
        f"{per_request:.2f} Python + builtin calls per request on the 2k §V-A "
        f"replay, budget {BUDGET:.2f} (achieved {ACHIEVED_2K}): run `make profile` "
        "and look for the bucket that grew"
    )
