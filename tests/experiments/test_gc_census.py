"""What a replay leaves behind: the cyclic collector's books and the bytes
(counts, not timings).

Every full collection walks every GC-tracked container alive, so a record
type that stays tracked costs wall time in proportion to the requests
replayed so far.  CPython untracks only *exact* tuples whose items are all
untracked — never a NamedTuple, never a tuple holding an enum member — so
the per-request records are stored as atoms and named on read (decisions
in typed columns, ephemeral KV rows and latency values as exact tuples),
the arrival column stays a column in the sim kernel instead of one
``Event`` per request, an ``InferenceRequest`` is built at its arrival
and freed at its completion (the metrics window keeps its row, not the
object), and a queued request is one object: the global queue holds
the ``InferenceRequest`` itself, its slot and O3 state in fields of the
request.  This census is exact run to run: one record type going back
on the books moves it by one or more objects per request.

Beside it, a byte count: what tracemalloc sees a replay retain per extra
completed request, also exact run to run and across hash seeds.  The open
metrics window holds one packed 40-byte record per completion and the
decision ring 21 bytes of narrow columns per decision, so either going
back to a tuple per row moves it by ~80 bytes per request, and keeping the
request objects again by ~270.  And the peak: what tracemalloc's high-water
mark grows by per extra request, which building every request before the
first event (rather than at its arrival) raises by ~130 bytes.  Two exact
per-row widths pin the layouts themselves: the bytes a full decision ring
holds per row and the bytes the open window holds per completion.  On an
over-capacity replay, two more pin what a *queued* request costs: the
tracked objects and the bytes the global queue holds per request it
holds, which a wrapper object per queued request moves by one object and
~200 bytes.
"""

import gc
import tracemalloc
from array import array
from collections import Counter

import pytest

from repro.core import decisions
from repro.core.decisions import Decision, DecisionLog
from repro.core.gpu_manager import LatencyRecord
from repro.core.queues import GlobalQueue
from repro.core.request import InferenceRequest
from repro.datastore.kv import KeyValue
from repro.metrics.summary import per_architecture_breakdown, summarize
from repro.runtime import FaaSCluster, SystemConfig
from repro.sim import Event
from repro.traces import WorkloadSpec, build_workload, spec_for_requests


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
    # the arrival column was injected as a column: no Event per request,
    # and no request exists before its arrival
    assert injected[Event] == injected[InferenceRequest] == 0
    assert drained[Decision] == drained[LatencyRecord] == drained[Event] == 0
    # ... and no request object outlives its completion
    assert drained[InferenceRequest] == 0
    kv = system.datastore.kv
    # the hot keys are one row per GPU (status, finish time, LRU) plus one
    # latency record per function: bounded by the cluster, not the trace
    functions = system.metrics.model_names  # one model instance per function
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


def test_a_replay_keeps_no_tracked_object_per_request():
    """Between a 2k and a 4k replay the tracked set grows by ≤ 0.05
    objects per extra completed request: nothing a replay keeps scales with
    it — no request object, decision row, KV row or event (1 object in
    1,950 measured, one durable ``KeyValue``).  Nor does the Datastore's
    per-key commit-lane memo, which holds the keys the cluster writes."""
    _replay(2000)  # first-use caches (profiles, trace tables) fill here
    small, _, drained_small = _replay(2000)
    large, _, drained_large = _replay(4000)
    extra = large.metrics.completed_count - small.metrics.completed_count
    assert extra == 1950
    growth = sum(drained_large.values()) - sum(drained_small.values())
    assert growth <= 0.05 * extra, (drained_large - drained_small).most_common(5)
    assert len(large.datastore._hot) == len(small.datastore._hot) <= len(large.datastore.kv)


#: bytes retained per extra completed request between the 2k and the 4k
#: §V-A replay: 80.4 measured (CPython 3.11, the same to the digit under
#: hash seeds 0, 1 and 2), plus 4 % headroom for interpreter builds.  The
#: commit before the decision ring and the metrics window were packed into
#: narrow rows read 141.9 (a 41-byte decision row, a 72-byte window row of
#: nine float64 fields, an int64 ``function_index``).  The one before a
#: finished request was freed
#: read 414.2 (the metrics window kept each ``InferenceRequest`` and its
#: list slot), and the one before the metrics window and the decision log
#: became typed columns 525.0 (a 9-tuple row plus its list slot per
#: completion, a 6-tuple row plus its deque slot per decision).  The
#: decision ring grows in 1,024-row blocks, and both replays lie past its
#: first block (2,737 and 5,360 decisions).
RETAINED_BYTES_PER_REQUEST = 83.6


def _traced(requests: int):
    """Bytes one §V-A replay leaves allocated (system still alive), and its
    high-water mark, both from before the workload is built."""
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
        retained, peak = tracemalloc.get_traced_memory()
        return system, retained - before, peak - before
    finally:
        tracemalloc.stop()


def test_retained_bytes_per_request():
    """The per-request records of a replay are columns: between a 2k and a
    4k replay the retained bytes grow by at most
    :data:`RETAINED_BYTES_PER_REQUEST` per extra completed request (the
    window's 40-byte row and the decision rows are most of it)."""
    _traced(2000)  # first-use caches (profiles, trace tables) fill here
    small, small_bytes, _ = _traced(2000)
    large, large_bytes, _ = _traced(4000)
    extra = large.metrics.completed_count - small.metrics.completed_count
    assert extra == 1950
    per_request = (large_bytes - small_bytes) / extra
    assert per_request <= RETAINED_BYTES_PER_REQUEST, f"{per_request:.1f} B/request"
    assert len(small.scheduler.decisions) > decisions.BLOCK


#: tracemalloc's peak traced bytes per extra completed request between an
#: 8k and a 16k §V-A replay: 57.7 measured (CPython 3.11, the same to the
#: digit under hash seeds 0, 1 and 2), plus 4 % headroom for interpreter
#: builds.  The commit before the decision ring and the metrics window were
#: packed into narrow rows (and ``function_index`` narrowed to ``uint8``)
#: read 147.8.  The one before a replay built each request at its arrival
#: read 328.0: ``Workload.requests`` built every ``InferenceRequest``
#: before the first event, so the peak held the whole stream as objects.
#: The one before a flat workload was injected in 8-minute chunks read
#: 201.1: the kernel lane's time and args lists and the arrival callback's
#: row lists covered the whole stream until its last arrival.  What remains
#: is columns: the workload's two, the metrics window's row and the
#: decision ring; those lists now hold one chunk.
PEAK_BYTES_PER_REQUEST = 60.0


def test_peak_bytes_per_request():
    """A replay never holds its stream as objects: between an 8k and a 16k
    replay the peak grows by at most :data:`PEAK_BYTES_PER_REQUEST` per
    extra completed request."""
    _traced(2000)  # first-use caches (profiles, trace tables) fill here
    small, _, small_peak = _traced(8000)
    large, _, large_peak = _traced(16000)
    extra = large.metrics.completed_count - small.metrics.completed_count
    assert extra == 7800
    per_request = (large_peak - small_peak) / extra
    assert per_request <= PEAK_BYTES_PER_REQUEST, f"{per_request:.1f} B/request"


#: bytes of typed buffer a full decision ring holds per row (a list slot
#: counted as its 8-byte pointer): 21.05 measured (a float64 time, uint32
#: request id and visits, a one-byte kind, uint16 model and GPU codes,
#: plus the per-kind counts).  The commit before the ring was packed read
#: 41.05: int64 request ids and visits, and a list slot per model and GPU
#: string.
RING_BYTES_PER_ROW = 25.0
#: bytes the open metrics window holds per completion: 40 (one packed
#: record).  The commit before it was packed read 72: nine float64 fields.
WINDOW_BYTES_PER_ROW = 40.0


def _held_bytes(obj) -> int:
    """Bytes in ``obj``'s typed-buffer attributes, plus 8 per list slot."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, list):
            total += 8 * len(value)
        elif isinstance(value, (bytearray, array)):
            total += memoryview(value).nbytes
    return total


@pytest.fixture(scope="module")
def replayed():
    """One 2k §V-A replay, drained (system still alive)."""
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    system.submit_workload(build_workload(spec_for_requests(2000)))
    system.run()
    return system


def test_ring_bytes_per_row(replayed):
    """The replay's decisions, appended past a full ring of one block,
    cost at most :data:`RING_BYTES_PER_ROW` bytes per held row."""
    ring = DecisionLog(maxlen=decisions.BLOCK)
    for decision in replayed.scheduler.decisions:
        ring.record(decision)
    assert ring.appended == 2737 and len(ring) == decisions.BLOCK
    per_row = _held_bytes(ring) / len(ring)
    assert per_row <= RING_BYTES_PER_ROW, f"{per_row:.2f} B/row"


def test_window_bytes_per_row(replayed):
    """The open metrics window holds at most :data:`WINDOW_BYTES_PER_ROW`
    bytes per completed request."""
    metrics = replayed.metrics
    assert metrics.window_open and metrics.completed_count == 1950
    per_row = memoryview(metrics._window).nbytes / metrics.completed_count
    assert per_row <= WINDOW_BYTES_PER_ROW, f"{per_row:.2f} B/row"


#: tracemalloc bytes per completed row that ``summarize`` and
#: ``per_architecture_breakdown`` may allocate at their peak, and keep,
#: on the 16k replay: 8.5 and 0.2 measured for ``summarize`` (one float64
#: latency column, reduced in place: mean, variance, then percentiles
#: that may reorder it) and 7.2 and 0.5 for the breakdown (one fresh
#: column per architecture).  The commit before the one-column summaries
#: read 17.4 and 17.3 (the latency column plus a variance temporary or a
#: percentile copy), and the one before they read the metrics window in
#: place read 62.5 and 46.2 for ``summarize``: it copied all nine columns
#: out of the window and cached the copies.
SUMMARIZE_PEAK_BYTES_PER_ROW = 10.0
SUMMARIZE_RETAINED_BYTES_PER_ROW = 1.0


def test_summarize_reads_the_window_in_place():
    """The summaries reduce the metrics window where it lies: no column
    copy, none cached, and the window still grows afterwards."""
    warm = FaaSCluster(SystemConfig(policy="lalbo3"))
    warm.submit_workload(build_workload(spec_for_requests(2000)))
    warm.run()
    # first-use caches (NumPy's percentile path, interned names) fill here
    summarize(warm.metrics, warm.cluster)
    per_architecture_breakdown(warm.metrics)
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    system.submit_workload(build_workload(spec_for_requests(16000)))
    system.run()
    metrics = system.metrics
    rows = metrics.completed_count
    assert metrics.window_open and rows == 15925
    for reduce in (
        lambda: summarize(metrics, system.cluster),
        lambda: per_architecture_breakdown(metrics),
    ):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reduce()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peak_per_row = (peak - before) / rows
        retained_per_row = (retained - before) / rows
        assert peak_per_row <= SUMMARIZE_PEAK_BYTES_PER_ROW, f"{peak_per_row:.1f} B/row peak"
        assert retained_per_row <= SUMMARIZE_RETAINED_BYTES_PER_ROW, (
            f"{retained_per_row:.1f} B/row retained"
        )
    # no view of the buffer outlived the reads: the window still extends
    row = len(metrics._window) // rows
    metrics._window.extend(metrics._window[-row:])


#: the over-capacity replay of ``tests/experiments/test_call_budget.py``:
#: 6,086 of its 8,000 requests wait in the global queue when arrivals
#: stop at t = 240 s
DEEP_8K = WorkloadSpec(working_set=25, minutes=4, requests_per_minute=2000, seed=0)
#: GC-tracked objects the deep replay adds between injection and t = 240
#: s, per queued request: 1.07 measured (the request itself, plus the
#: in-flight requests, KV rows and lists the run grows).  The commit
#: before the queue held the request itself read 2.08: a ``_Entry``
#: wrapper per queued request.
TRACKED_PER_QUEUED_REQUEST = 1.1
#: tracemalloc bytes the global queue holds per queued request at t =
#: 240 s (freed when the queue goes): 308.6 measured (CPython 3.11, the
#: same to the digit under hash seeds 0, 1 and 2), plus 4 % headroom for
#: interpreter builds.  The commit before the queue held the request
#: itself read 521.2: a 112-byte ``_Entry``, an ``(arrival, seq)`` key
#: tuple and its ``seq`` int, and a ``request_id`` → entry dict slot.
QUEUE_BYTES_PER_QUEUED_REQUEST = 320.9


@pytest.fixture(scope="module")
def deep_queue():
    """The deep replay at t = 240 s: (queued requests, tracked objects
    grown since injection, bytes the global queue frees when it goes)."""
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    system.submit_workload(build_workload(DEEP_8K))
    before = _tracked()
    tracemalloc.start()
    try:
        system.run(until=240)
        scheduler = system.scheduler
        queued = len(scheduler.global_queue)
        grown = _tracked() - before
        held = tracemalloc.get_traced_memory()[0]
        scheduler.global_queue = GlobalQueue(o3_limit=scheduler.policy.limit)
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return queued, grown, freed


def test_a_queued_request_is_one_tracked_object(deep_queue):
    """Holding a request in the global queue adds no tracked object of its
    own: at most :data:`TRACKED_PER_QUEUED_REQUEST` per queued request."""
    queued, grown, _ = deep_queue
    assert queued == 6086
    per_request = sum(grown.values()) / queued
    assert per_request <= TRACKED_PER_QUEUED_REQUEST, (
        f"{per_request:.2f} tracked objects per queued request", grown.most_common(5)
    )


def test_queue_bytes_per_queued_request(deep_queue):
    """The global queue and the requests it holds cost at most
    :data:`QUEUE_BYTES_PER_QUEUED_REQUEST` bytes per queued request."""
    queued, _, freed = deep_queue
    per_request = freed / queued
    assert per_request <= QUEUE_BYTES_PER_QUEUED_REQUEST, f"{per_request:.1f} B/request"
