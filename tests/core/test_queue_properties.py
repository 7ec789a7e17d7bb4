"""Property-based tests for the scheduler queues (hypothesis)."""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.queues import GlobalQueue
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
    for op in ops:
        if op[0] == "push":
            _, idx, extra = op
            arrival_clock += extra  # arrivals non-decreasing, like real submissions
            r = InferenceRequest(f"fn{idx}", instances[idx], arrival_time=arrival_clock)
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
        st.tuples(st.just("set_visits"), st.integers(0, 10**6), st.integers(0, 4)),
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

    def bump(self, stop):
        for row in self.rows[:stop]:
            if not row[2]:
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
#: (b) direct writes to attached regular entries: one mid-queue raised above
#: its neighbours, then the head lowered below them
_WRITTEN_WHILE_ATTACHED = [
    ("set_visits", 5, 2), _BUMP, _BUMP, ("set_visits", 0, 0), _BUMP, _BUMP, _BUMP,
]
#: (c) the newest request comes back to the tail carrying visits: it starves
#: while every entry ahead of it is still within the limit
_TAIL_PUSH_WITH_VISITS = [
    ("set_visits", 39, 2), ("remove", 39, 1), ("push_sorted", 0), ("push", 32), _BUMP, _BUMP,
]
#: (d) counts settle through a counter growth (slot 64) and a hole
#: compaction (50 of 80 removed) in the middle of a backlog
_REINDEX_MID_BACKLOG = [
    _BUMP, ("bump", 20), ("push", 40), _BUMP, ("bump", 50), ("remove", 0, 50), ("push", 1),
    _BUMP, ("bump", 10), ("push_sorted", 7), _BUMP,
]
#: (e) the chain reaches the unattached tail, which is handed over later
#: and must still be found
_CHAIN_MEETS_THE_TAIL = [_BUMP, _BUMP, ("push", 8), _BUMP, ("push", 24), _BUMP, _BUMP]


@given(st.sampled_from([0, 2, 25]), st.integers(0, 80), _o3_ops)
@example(2, 40, _REQUEUED_AT_HEAD_WITH_FEWER)
@example(2, 40, _WRITTEN_WHILE_ATTACHED)
@example(2, 40, _TAIL_PUSH_WITH_VISITS)
@example(2, 40, _REINDEX_MID_BACKLOG)
@example(25, 40, _REINDEX_MID_BACKLOG)
@example(2, 32, _CHAIN_MEETS_THE_TAIL)
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
                f"fn{pushed}", ModelInstance(f"m{pushed}", _PROFILE), arrival_time=float(pushed)
            )
            q.push(r)
            spec.insert(r, 0)

    def check():
        assert len(q) == len(spec.rows)
        assert [r.request_id for r in q] == [row[0].request_id for row in spec.rows]
        assert [r.visits for r in q] == [row[1] for row in spec.rows]
        assert [e.request for e in q.starved_entries_before(None)] == [
            row[0] for row in spec.rows if row[2]
        ]
        assert q.starved_count == sum(row[2] for row in spec.rows)
        assert [r.visits for r, _ in removed] == [v for _, v in removed]

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
            if op[1] is None:
                q.bump_visits_before(None)
                spec.bump(len(spec.rows))
            else:
                stop = op[1] % len(spec.rows)
                entry = q.first_entry_for_model(spec.rows[stop][0].model_id)
                q.bump_visits_before(entry.slot)
                spec.bump(stop)
        elif op[0] == "set_visits":
            # the reference scan's direct write; it only ever reaches
            # requests that have not starved yet (Alg. 1 line 11 comes first)
            live = [row for row in spec.rows if not row[2]]
            if live:
                row = live[op[1] % len(live)]
                row[0].visits = row[1] = op[2]
                row[2] = row[1] > limit
        check()
