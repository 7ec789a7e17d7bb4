"""Property-based tests for the scheduler queues (hypothesis)."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.queues import _ATTACHED, _STARVED, GlobalQueue
from repro.core.request import InferenceRequest
from repro.models import ModelInstance, get_profile

_PROFILE = get_profile("alexnet")

# operations: ("push", model_idx, arrival) | ("pop_head",) | ("remove_for_model", model_idx)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 4), st.floats(0, 100)),
        st.tuples(st.just("pop_head")),
        st.tuples(st.just("remove_for_model"), st.integers(0, 4)),
    ),
    max_size=60,
)


def _run_ops(ops):
    """Drive the GlobalQueue and a naive reference model side by side."""
    q = GlobalQueue()
    reference: OrderedDict[int, InferenceRequest] = OrderedDict()
    instances = {i: ModelInstance(f"m{i}", _PROFILE) for i in range(5)}
    arrival_clock = 0.0
    for step, op in enumerate(ops, 1):
        if op[0] == "push":
            _, idx, extra = op
            arrival_clock += extra  # arrivals non-decreasing, like real submissions
            r = InferenceRequest(f"fn{idx}", instances[idx], arrival_clock, step)
            q.push(r)
            reference[r.request_id] = r
        elif op[0] == "pop_head":
            head = q.head()
            if head is not None:
                q.remove(head)
                del reference[head.request_id]
        else:  # remove_for_model
            _, idx = op
            target = q.first_for_model(instances[idx].instance_id)
            if target is not None:
                q.remove(target)
                del reference[target.request_id]
    return q, reference, instances


@given(_ops)
@settings(max_examples=80, deadline=None)
def test_queue_matches_reference_order(ops):
    q, reference, _ = _run_ops(ops)
    assert [r.request_id for r in q] == list(reference)
    assert len(q) == len(reference)
    head = q.head()
    if reference:
        assert head is next(iter(reference.values()))
    else:
        assert head is None


@given(_ops)
@settings(max_examples=80, deadline=None)
def test_model_index_always_consistent(ops):
    """first_for_model must always equal a linear scan of the queue."""
    q, reference, instances = _run_ops(ops)
    for inst in instances.values():
        expected = next(
            (r for r in reference.values() if r.model_id == inst.instance_id), None
        )
        assert q.first_for_model(inst.instance_id) is expected
    # queued_models is exactly the distinct models present
    assert q.queued_models() == {r.model_id for r in reference.values()}


@given(_ops)
@settings(max_examples=50, deadline=None)
def test_arrival_order_is_nondecreasing(ops):
    q, _, _ = _run_ops(ops)
    arrivals = [r.arrival_time for r in q]
    assert arrivals == sorted(arrivals)


# ---------------------------------------------------------------------------
# O3 visit accounting against a literal model (Alg. 1 lines 11/15)
# ---------------------------------------------------------------------------
# Sized to cross the queue's three internal regimes inside one sequence: the
# 32-entry unattached tail (push bursts up to 40), the 64-slot hole
# compaction (bulk removals, then a push) and a counter growth (> 64 live
# entries), with partial-prefix bumps, removals and re-insertions between.
_o3_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(1, 40)),
        st.tuples(st.just("remove"), st.integers(0, 10**6), st.integers(1, 50)),
        st.tuples(st.just("push_sorted"), st.integers(0, 10**6)),
        st.tuples(st.just("bump"), st.one_of(st.none(), st.integers(0, 10**6))),
    ),
    max_size=30,
)


class _LiteralO3Queue:
    """The specification: a list in queue order, ``visits += 1`` per live,
    non-starved request before the stop, starved once past the limit."""

    def __init__(self, limit):
        self.limit = limit
        self.rows = []  # [request, visits, starved], oldest first

    def insert(self, request, visits):
        at = sum(row[0].arrival_time <= request.arrival_time for row in self.rows)
        self.rows.insert(at, [request, visits, visits > self.limit])

    def bump(self, stop, exempt=()):
        for row in self.rows[:stop]:
            if not row[2] and row[0].model_id not in exempt:
                row[1] += 1
                row[2] = row[1] > self.limit


# The attached entries' counts are read off scan stop positions, and
# starvation is looked for only at the head of the regular chain and at the
# listed irregular entries.  These sequences are the cases where a count
# does *not* follow from position; each must starve on exactly the scan the
# literal list says.  (A backlog of 32 or 40 is attached at once; a later
# push of 24 or 32 hands the tail over again.)
_BUMP = ("bump", None)
#: (a) an old request re-queued at the head with *fewer* visits than the
#: entries behind it: they cross the limit first, it crosses two scans later
_REQUEUED_AT_HEAD_WITH_FEWER = [
    ("remove", 0, 1), _BUMP, _BUMP, ("push_sorted", 0), ("push", 32), _BUMP, _BUMP, _BUMP,
]
#: (b) the newest request comes back to the tail carrying more visits than
#: the re-queued entries ahead of it: it starves while they are still within
#: the limit (it alone saw the second scan; the third re-queue picks it)
_TAIL_PUSH_WITH_VISITS = [
    _BUMP, ("remove", 0, 39), _BUMP, ("remove", 0, 1),
    ("push_sorted", 0), ("push_sorted", 0), ("push_sorted", 37), ("push", 32), _BUMP, _BUMP,
]
#: (c) counts settle through a counter growth (slot 64) and a hole
#: compaction (50 of 80 removed) in the middle of a backlog
_REINDEX_MID_BACKLOG = [
    _BUMP, ("bump", 20), ("push", 40), _BUMP, ("bump", 50), ("remove", 0, 50), ("push", 1),
    _BUMP, ("bump", 10), ("push_sorted", 7), _BUMP,
]
#: (d) the chain reaches the unattached tail, which is handed over later
#: and must still be found
_CHAIN_MEETS_THE_TAIL = [_BUMP, _BUMP, ("push", 8), _BUMP, ("push", 24), _BUMP, _BUMP]
#: (e) an exempt attached entry at the head trails the entries behind it:
#: they cross the limit on the third scan, it crosses one scan later
_EXEMPT_AHEAD_OF_CROSSERS = [("bump", None, (0,)), _BUMP, _BUMP, _BUMP]
#: (f) exempt entries in the middle of the attached backlog, then in the
#: unattached tail, which is handed over with the next full tail
_EXEMPT_MID_BACKLOG_AND_TAIL = [
    ("bump", None, (5, 6)), ("bump", None, (35, 36)), ("push", 24), _BUMP, _BUMP, _BUMP,
]
#: (g) exempt before a partial stop, then removed and re-queued
_EXEMPT_BEFORE_A_PARTIAL_STOP = [
    ("bump", 20, (3, 30)), ("bump", 10, (3,)), _BUMP, ("remove", 3, 1), _BUMP,
    ("push_sorted", 0), _BUMP,
]


@given(st.sampled_from([0, 2, 25]), st.integers(0, 80), _o3_ops)
@example(2, 40, _REQUEUED_AT_HEAD_WITH_FEWER)
@example(2, 40, _TAIL_PUSH_WITH_VISITS)
@example(2, 40, _REINDEX_MID_BACKLOG)
@example(25, 40, _REINDEX_MID_BACKLOG)
@example(2, 32, _CHAIN_MEETS_THE_TAIL)
@example(2, 40, _EXEMPT_AHEAD_OF_CROSSERS)
@example(2, 40, _EXEMPT_MID_BACKLOG_AND_TAIL)
@example(0, 40, _EXEMPT_MID_BACKLOG_AND_TAIL)
@example(2, 40, _EXEMPT_BEFORE_A_PARTIAL_STOP)
@settings(max_examples=120, deadline=None)
def test_o3_accounting_matches_literal_model(limit, backlog, ops):
    q = GlobalQueue(o3_limit=limit)
    spec = _LiteralO3Queue(limit)
    removed = []  # (request, visits when it left the queue)
    pushed = 0

    def push(n):
        nonlocal pushed
        for _ in range(n):
            pushed += 1
            r = InferenceRequest(
                f"fn{pushed}", ModelInstance(f"m{pushed}", _PROFILE), float(pushed), pushed
            )
            q.push(r)
            spec.insert(r, 0)

    def check():
        assert len(q) == len(spec.rows)
        assert [r.request_id for r in q] == [row[0].request_id for row in spec.rows]
        assert [q.visits(r) for r in q] == [row[1] for row in spec.rows]
        assert q.starved_entries_before(None) == [
            row[0] for row in spec.rows if row[2]
        ]
        assert q.starved_count == sum(row[2] for row in spec.rows)
        assert [r.visits for r, _ in removed] == [v for _, v in removed]
        excluded = {row[0].model_id for row in spec.rows[::2]}
        for excluding in (excluded, exempt):
            assert q.head(excluding) is next(
                (row[0] for row in spec.rows if row[0].model_id not in excluding), None
            )

    exempt = set()  # the last bump's exempt models

    push(backlog)
    check()
    for op in ops:
        if op[0] == "push":
            push(op[1])
        elif op[0] == "remove":
            for _ in range(min(op[2], len(spec.rows))):
                request, visits, _ = spec.rows.pop(op[1] % len(spec.rows))
                q.remove(request)
                removed.append((request, visits))
        elif op[0] == "push_sorted" and removed:
            request, visits = removed.pop(op[1] % len(removed))
            q.push_sorted(request)  # visits preserved, maybe already past the limit
            spec.insert(request, visits)
        elif op[0] == "bump" and spec.rows:
            exempt = {
                spec.rows[i % len(spec.rows)][0].model_id for i in (op[2] if len(op) > 2 else ())
            }
            if op[1] is None:
                q.bump_visits_before(None, exempt)
                spec.bump(len(spec.rows), exempt)
            else:
                stop = op[1] % len(spec.rows)
                first = q.first_for_model(spec.rows[stop][0].model_id)
                q.bump_visits_before(first.slot, exempt)
                spec.bump(stop, exempt)
        check()


# ---------------------------------------------------------------------------
# Re-queues: the queue holds the request itself
# ---------------------------------------------------------------------------
# A removed request keeps lazily cleaned references in its model bucket
# (and, attached, in the irregular list) until a walk passes them; filed
# again by ``push_sorted`` it must not read as queued twice.  Three models
# share the buckets, and a burst pushes its requests at one arrival time,
# so re-queues land among equal arrivals.
_requeue_ops = st.lists(
    st.one_of(
        # n requests at one arrival time, models base, base+1, ...; then
        # the clock advances or not
        st.tuples(st.just("push"), st.integers(1, 40), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 10**6), st.integers(1, 8)),
        st.tuples(st.just("requeue"), st.integers(0, 10**6)),
        st.tuples(st.just("bump"), st.one_of(st.none(), st.integers(0, 10**6))),
    ),
    max_size=25,
)
#: a request removed from the middle of its model's bucket comes back
#: among requests of its own arrival time
_REQUEUE_MID_BUCKET = [
    ("push", 6, 0, False), ("remove", 3, 1), ("push", 1, 0, True), ("requeue", 0),
    ("remove", 0, 2), ("requeue", 0), ("requeue", 0),
]
#: a re-queued request is handed over to the bump counter as irregular,
#: leaves, and is re-queued and handed over again: its first irregular
#: reference must not come back to life beside the second
_REQUEUE_IRREGULAR_TWICE = [
    ("push", 40, 0, True), ("bump", None), ("remove", 0, 1), ("requeue", 0),
    ("push", 32, 1, False), ("remove", 39, 1), ("requeue", 0), ("push", 32, 2, False),
    ("bump", None), ("bump", None),
]


@given(st.sampled_from([None, 0, 2]), _requeue_ops)
@example(None, _REQUEUE_MID_BUCKET)
@example(2, _REQUEUE_MID_BUCKET)
@example(2, _REQUEUE_IRREGULAR_TWICE)
@settings(max_examples=150, deadline=None)
def test_requeued_requests_are_held_once(limit, ops):
    q = GlobalQueue(o3_limit=limit)
    other = GlobalQueue(o3_limit=limit)  # holds requests of its own
    instances = [ModelInstance(f"m{i}", _PROFILE) for i in range(3)]
    spec = []  # (arrival, push order, request): the literal queue
    removed = []
    pushes = 0  # push order, both queues
    clock = 0.0

    def file(queue, request):
        nonlocal pushes
        pushes += 1
        if queue is q:
            spec.append((request.arrival_time, pushes, request))
            spec.sort(key=lambda row: row[:2])

    def check():
        held = [row[2] for row in spec]
        assert list(q) == held and len(q) == len(held)
        for r in held:
            assert any(x is r for x in q) and not any(x is r for x in other)
            assert sum(x is r for x in q._buckets[r.model_id]) == 1
            with pytest.raises(ValueError):
                q.push(r)
            with pytest.raises(ValueError):
                q.push_sorted(r)
        for r in removed:
            assert not any(x is r for x in q) and r.slot == -1
        for r in other:
            assert not any(x is r for x in q)
        for inst in instances:
            first = next((r for r in held if r.model_id == inst.instance_id), None)
            assert q.first_for_model(inst.instance_id) is first
        if limit is not None:
            starved = [r for r in held if r.o3_phase == _STARVED]
            assert q._starved == starved  # live only, in queue order
            live_irregular = [r for r in q._irregular if r in q]
            assert len({id(r) for r in live_irregular}) == len(live_irregular)
            assert all(r.o3_phase == _ATTACHED and not r.regular for r in live_irregular)
            assert all(r.slot == -1 for r in q._irregular if r not in q)

    for i in range(3):
        r = InferenceRequest("other", instances[i], 0.0, 10_000 + i)
        other.push(r)
        file(other, r)
    for op in ops:
        if op[0] == "push":
            _, n, base, advance = op
            for i in range(n):
                r = InferenceRequest("fn", instances[(base + i) % 3], clock, pushes + 1)
                q.push(r)
                file(q, r)
            clock += advance
        elif op[0] == "remove" and spec:
            for _ in range(min(op[2], len(spec))):
                _, _, r = spec.pop(op[1] % len(spec))
                q.remove(r)
                removed.append(r)
        elif op[0] == "requeue" and removed:
            r = removed.pop(op[1] % len(removed))
            q.push_sorted(r)
            file(q, r)
        elif op[0] == "bump" and spec and limit is not None:
            stop = None if op[1] is None else spec[op[1] % len(spec)][2].slot
            q.bump_visits_before(stop)
        check()
