"""What a replay leaves on the cyclic collector's books (a count, not a timing).

Every full collection walks every GC-tracked container alive, so a record
type that stays tracked costs wall time in proportion to the requests
replayed so far.  CPython untracks only *exact* tuples whose items are all
untracked — never a NamedTuple, never a tuple holding an enum member — so
the per-request records (decision rows, ephemeral KV rows, latency values)
are stored as exact tuples of atoms and named on read, and the arrival
column stays a column in the sim kernel instead of one ``Event`` per
request.  This census is exact run to run: one record type going back on
the books moves it by one or more objects per request.
"""

import gc
from collections import Counter

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
    # every tracked KeyValue the run left is a durable key's
    kv = system.datastore.kv
    assert sum(kv.is_ephemeral(key) for key in kv.keys()) > completed
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
