"""What a replay leaves behind: the cyclic collector's books and the bytes
(counts, not timings).

Every full collection walks every GC-tracked container alive, so a record
type that stays tracked costs wall time in proportion to the requests
replayed so far.  CPython untracks only *exact* tuples whose items are all
untracked — never a NamedTuple, never a tuple holding an enum member — so
the per-request records are stored as atoms and named on read (decisions
in typed columns, ephemeral KV rows and latency values as exact tuples),
and the arrival
column stays a column in the sim kernel instead of one ``Event`` per
request.  This census is exact run to run: one record type going back on
the books moves it by one or more objects per request.

Beside it, a byte count: what tracemalloc sees a replay retain per extra
completed request, also exact run to run and across hash seeds.  The open
metrics window and the decision ring store typed columns, so either going
back to a tuple per row moves it by ~50 bytes per request.
"""

import gc
import tracemalloc
from collections import Counter

from repro.core import decisions
from repro.core.decisions import Decision
from repro.core.gpu_manager import LatencyRecord
from repro.datastore.kv import KeyValue
from repro.runtime import FaaSCluster, SystemConfig
from repro.sim import Event
from repro.traces import build_workload, spec_for_requests


def _tracked() -> Counter:
    # twice: a tuple is untracked on the pass that finds all its items
    # untracked, so a KV row holding a latency tuple settles one pass
    # after the value does
    gc.collect()
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects())


def _replay(requests: int):
    """Census deltas of one §V-A replay: after injection, and after the drain
    (system still alive)."""
    before = _tracked()
    workload = build_workload(spec_for_requests(requests))
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    system.submit_workload(workload)
    injected = _tracked() - before
    system.run()
    drained = _tracked() - before
    return system, injected, drained


def test_replay_records_are_off_the_collectors_books():
    system, injected, drained = _replay(2000)
    completed = system.metrics.completed_count
    assert completed == 1950 and len(system.scheduler.decisions) >= completed
    assert len(system.sim) == 0
    # the arrival column was injected as a column: no Event per request
    assert injected[Event] == 0
    assert drained[Decision] == drained[LatencyRecord] == drained[Event] == 0
    kv = system.datastore.kv
    # the hot keys are one row per GPU (status, finish time, LRU) plus one
    # latency record per function: bounded by the cluster, not the trace
    functions = {r.function_name for r in system.completed}
    ephemeral_keys = sum(kv.is_ephemeral(key) for key in kv.keys())
    assert 0 < ephemeral_keys <= 3 * len(system.cluster.gpus) + len(functions)
    # every tracked KeyValue the run left is a durable key's
    ephemeral = [
        obj for obj in gc.get_objects()
        if type(obj) is KeyValue and kv.is_ephemeral(obj.key)
    ]
    assert ephemeral == []
    # the reads still name what they return
    assert all(type(d) is Decision for d in system.scheduler.decisions.last(3))
    assert all(type(item) is KeyValue for item in kv.items())


def test_tracked_objects_grow_by_one_request_per_request():
    """Between a 2k and a 4k replay the tracked set grows by the
    ``InferenceRequest`` the open metrics window keeps, and nothing else
    that scales (≤ 1.05 objects per extra completed request)."""
    _replay(2000)  # first-use caches (profiles, trace tables) fill here
    small, _, drained_small = _replay(2000)
    large, _, drained_large = _replay(4000)
    extra = large.metrics.completed_count - small.metrics.completed_count
    assert extra == 1950
    growth = sum(drained_large.values()) - sum(drained_small.values())
    assert growth <= 1.05 * extra, (drained_large - drained_small).most_common(5)


#: bytes retained per extra completed request between the 2k and the 4k
#: §V-A replay: 414.2 measured (CPython 3.11), plus 4 % headroom for
#: interpreter builds.  The commit before the metrics window and the
#: decision log became typed columns read 525.0 (a 9-tuple row plus its
#: list slot per completion, a 6-tuple row plus its deque slot per
#: decision).  The decision ring grows in 1,024-row blocks, and both
#: replays lie past its first block (2,737 and 5,360 decisions).
RETAINED_BYTES_PER_REQUEST = 430.0


def _retained(requests: int):
    """Bytes one §V-A replay leaves allocated (system still alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload = build_workload(spec_for_requests(requests))
        system = FaaSCluster(SystemConfig(policy="lalbo3"))
        system.submit_workload(workload)
        system.run()
        del workload
        gc.collect()
        return system, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_retained_bytes_per_request():
    """The per-request records of a replay are columns: between a 2k and a
    4k replay the retained bytes grow by at most
    :data:`RETAINED_BYTES_PER_REQUEST` per extra completed request (the
    request object the open window keeps is most of it)."""
    _retained(2000)  # first-use caches (profiles, trace tables) fill here
    small, small_bytes = _retained(2000)
    large, large_bytes = _retained(4000)
    extra = large.metrics.completed_count - small.metrics.completed_count
    assert extra == 1950
    per_request = (large_bytes - small_bytes) / extra
    assert per_request <= RETAINED_BYTES_PER_REQUEST, f"{per_request:.1f} B/request"
    assert len(small.scheduler.decisions) > decisions.BLOCK
