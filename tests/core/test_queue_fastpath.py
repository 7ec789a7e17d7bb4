"""Unit tests for the GlobalQueue's index-driven fast-path machinery:

lazy O3-visit accounting (prefix bumps + materialization), the ordered
starved set, positional ``push_sorted``, and the allocation-free live walk.
The end-to-end guarantees are covered by ``test_differential``; these
tests pin the queue-level contracts directly.
"""

from collections import Counter

import pytest

from repro.core.queues import _MAX_PENDING_LEAVES, GlobalQueue, _BumpCounter
from repro.core.request import InferenceRequest
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload


def _push_n(q, make_request, n, prefix="fn", arch="alexnet"):
    reqs = [make_request(f"{prefix}-{i}", arch, arrival=float(i)) for i in range(n)]
    for r in reqs:
        q.push(r)
    return reqs


class TestLazyVisits:
    def test_bump_counts_prefix_only(self, make_request):
        q = GlobalQueue(o3_limit=25)
        reqs = _push_n(q, make_request, 5)
        stop = q.first_for_model(reqs[3].model_id)
        assert stop is reqs[3]  # each request deploys its own instance
        assert stop.slot == 3
        q.bump_visits_before(stop.slot)
        assert [q.visits(r) for r in reqs] == [1, 1, 1, 0, 0]
        q.bump_visits_before(None)  # whole queue
        assert [q.visits(r) for r in reqs] == [2, 2, 2, 1, 1]

    def test_visits_materialized_on_remove(self, make_request):
        q = GlobalQueue(o3_limit=25)
        reqs = _push_n(q, make_request, 3)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        assert q.visits(reqs[1]) == 2  # the queue owns the count while queued
        q.remove(reqs[1])
        assert reqs[1].visits == 2  # written to the request at removal
        q.bump_visits_before(None)
        assert reqs[1].visits == 2  # no longer tracked
        assert q.visits(reqs[0]) == 3

    def test_no_counter_write_once_every_attached_entry_has_left(
        self, make_request, counter_calls
    ):
        """Scans pay the bump counter only while attached entries wait:
        after the last one leaves, a scan records nothing there (a stale
        attached count keeps writing it for nobody)."""
        q = GlobalQueue(o3_limit=25)
        attached = _push_n(q, make_request, _MAX_PENDING_LEAVES)  # attach at the cap
        assert q._attached == _MAX_PENDING_LEAVES
        for r in attached:
            q.remove(r)
        tail = _push_n(q, make_request, 3, prefix="tail")
        adds = counter_calls["add"]
        q.bump_visits_before(None)
        assert counter_calls["add"] == adds
        assert [q.visits(r) for r in tail] == [1, 1, 1]

    def test_untracked_queue_rejects_bumps(self, make_request):
        q = GlobalQueue()
        assert not q.tracks_visits
        with pytest.raises(RuntimeError):
            q.bump_visits_before(None)


class TestStarvedSet:
    def test_starved_surface_in_queue_order(self, make_request):
        q = GlobalQueue(o3_limit=1)
        reqs = _push_n(q, make_request, 4)
        q.bump_visits_before(3)  # visits=1 for slots 0..2
        assert q.starved_entries_before(None) == []
        q.bump_visits_before(2)  # slots 0..1 cross the limit
        starved = q.starved_entries_before(None)
        assert starved == reqs[:2]
        assert all(q.visits(r) == 2 for r in starved)  # frozen at limit+1

    def test_starved_never_bumped_again(self, make_request):
        q = GlobalQueue(o3_limit=0)
        reqs = _push_n(q, make_request, 2)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        assert [q.visits(r) for r in reqs] == [1, 1]  # starved counts freeze

    def test_stop_slot_filters_starved(self, make_request):
        q = GlobalQueue(o3_limit=0)
        reqs = _push_n(q, make_request, 3)
        q.bump_visits_before(None)  # limit 0: every covered request starves
        stop = q.first_for_model(reqs[2].model_id)
        assert q.starved_entries_before(stop.slot) == reqs[:2]
        assert len(q.starved_entries_before(None)) == 3

    def test_requeued_request_keeps_starvation(self, make_request):
        """Fairness: resubmit preserves visits, so a starved request must
        surface immediately after re-insertion."""
        q = GlobalQueue(o3_limit=2)
        reqs = _push_n(q, make_request, 2)
        for _ in range(3):
            q.bump_visits_before(None)
        q.remove(reqs[0])
        assert reqs[0].visits == 3
        q.push_sorted(reqs[0])
        starved = q.starved_entries_before(None)
        assert reqs[0] in starved
        assert reqs[0] is q.head()  # re-inserted at its arrival position


class TestPushSortedIncremental:
    def test_model_index_order_after_reinsertion(self, make_request):
        q = GlobalQueue(o3_limit=25)
        a0 = make_request("fn-a", arrival=0.0)
        b = make_request("fn-b", arrival=1.0)
        a2 = make_request("fn-a", arrival=2.0)
        for r in (a0, b, a2):
            q.push(r)
        q.remove(a0)
        assert q.first_for_model(a0.model_id) is a2
        q.push_sorted(a0)
        assert q.first_for_model(a0.model_id) is a0  # back in front of a2
        assert [r.arrival_time for r in q] == [0.0, 1.0, 2.0]

    def test_visits_survive_reindex(self, make_request):
        q = GlobalQueue(o3_limit=25)
        reqs = _push_n(q, make_request, 4)
        q.bump_visits_before(None)
        q.remove(reqs[1])
        q.push_sorted(reqs[1])  # forces a full re-index
        assert [q.visits(r) for r in reqs] == [1, 1, 1, 1]
        q.bump_visits_before(None)
        assert [q.visits(r) for r in reqs] == [2, 2, 2, 2]


class TestLiveIteration:
    def test_iter_requests_skips_removed_ahead(self, make_request):
        q = GlobalQueue()
        reqs = _push_n(q, make_request, 4)
        seen = []
        for r in q.iter_requests():
            seen.append(r)
            if r is reqs[0]:
                q.remove(reqs[2])
        assert seen == [reqs[0], reqs[1], reqs[3]]

    @pytest.mark.parametrize("reindex", ["push_sorted", "hole_compaction"])
    def test_a_reindex_mid_walk_raises(self, make_request, reindex):
        """Renumbered slots would make a walk that kept its index repeat or
        skip requests; no scheduling pass pushes, so the walk refuses."""
        q = GlobalQueue()
        reqs = _push_n(q, make_request, 200)
        seen = []
        with pytest.raises(RuntimeError, match="re-indexed"):
            for r in q.iter_requests():
                seen.append(r)
                if r is reqs[160]:
                    if reindex == "push_sorted":
                        q.push_sorted(make_request("fn-early", arrival=0.5))
                    else:
                        for gone in reqs[:150]:
                            q.remove(gone)
                        q.push(make_request("fn-extra", arrival=500.0))  # 51 of 201 live
        assert seen == reqs[:161]

    def test_hole_compaction_preserves_order(self, make_request):
        q = GlobalQueue(o3_limit=25)
        reqs = _push_n(q, make_request, 200)
        q.bump_visits_before(None)
        for r in reqs[:150]:
            q.remove(r)
        # appending past the hole threshold compacts the entry array
        extra = make_request("fn-extra", arrival=500.0)
        q.push(extra)
        assert list(q) == reqs[150:] + [extra]
        assert [q.visits(r) for r in reqs[150:]] == [1] * 50
        q.bump_visits_before(None)
        assert [q.visits(r) for r in reqs[150:]] == [2] * 50
        assert q.visits(extra) == 1


class TestReindexTriggers:
    def test_holes_compact_once_they_outnumber_live_entries_past_64_slots(
        self, make_request
    ):
        """A push compacts the entry array when it holds more than 64
        slots and fewer than half of them are live — not at 64 slots, and
        not at exactly half."""
        q = GlobalQueue()
        reqs = _push_n(q, make_request, 64)
        for r in reqs[:40]:
            q.remove(r)
        late = [make_request(f"late-{i}", arrival=100.0 + i) for i in range(43)]
        q.push(late[0])  # 64 slots, 24 live: not past 64
        assert len(q._entries) == 65
        q.push(late[1])  # 65 slots, 25 live: compacts, then appends
        assert len(q._entries) == 26
        for r in late[2:42]:
            q.push(r)  # 66 slots, all live
        for r in reqs[40:64] + late[:9]:
            q.remove(r)  # 33 of 66 live: exactly half
        q.push(late[42])
        assert len(q._entries) == 67
        assert list(q) == late[9:43]

    def test_counter_grows_before_a_slot_past_its_stops(self, make_request):
        """The bump counter records stops 1..size, so the push that would
        file slot ``size`` re-indexes first.  One hole at slot 0 shifts the
        second tail hand-over onto slot 64: a queue that filed it there
        would hold an attached entry its next settle cannot read."""
        q = GlobalQueue(o3_limit=25)
        q.remove(_push_n(q, make_request, 1, prefix="gone")[0])
        reqs = [make_request(f"fn-{i}", arrival=1.0 + i) for i in range(66)]
        for r in reqs[:64]:
            q.push(r)
        q.bump_visits_before(None)
        for r in reqs[64:]:
            q.push(r)
        q.bump_visits_before(None)
        assert [q.visits(r) for r in reqs] == [2] * 64 + [1] * 2


def _backlog_system(n, n_models=25):
    """``n`` requests over ``n_models`` instances submitted within a few
    milliseconds: the GPUs fill and the rest waits in the global queue."""
    system = FaaSCluster(SystemConfig(policy="lalbo3"))
    names = model_names()
    instances = [
        ModelInstance(f"m{i}", get_profile(names[i % len(names)])) for i in range(n_models)
    ]
    for i in range(n):
        system.submit_at(
            InferenceRequest(f"fn{i % n_models}", instances[i % n_models], i * 1e-6, i + 1)
        )
    return system


@pytest.fixture
def counter_calls(monkeypatch):
    calls = Counter()
    for name in ("add", "cover", "covers"):
        def counted(self, *args, _fn=getattr(_BumpCounter, name), _name=name):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(_BumpCounter, name, counted)
    return calls


class TestExemptAfterReindex:
    def test_a_removed_request_in_a_bucket_does_not_end_the_exempt_walk(
        self, make_request
    ):
        """A re-index renumbers live requests only; a removed request left
        in the middle of a model's bucket reads slot -1 there.  The exempt
        walk must pass over it: here the removed X sits between the live X
        at slot 6 and the live X at slot 18, and a scan stopping at 19 that
        passed model X over (quota refusal) must not count a skip for
        either."""
        q = GlobalQueue(o3_limit=25)
        shared = ModelInstance("X", get_profile("alexnet"))
        reqs = [
            make_request("X", arrival=float(i), model=shared) if i in (5, 20, 30)
            else make_request(f"fn-{i}", "alexnet", arrival=float(i))
            for i in range(40)
        ]
        for r in reqs:
            q.push(r)
        for r in [reqs[20], *reqs[6:18]]:
            q.remove(r)  # X at 20 dies behind the live X at 5
        q.push_sorted(make_request("late", "alexnet", arrival=4.5))  # re-index
        assert [r.slot for r in q._buckets["X"]] == [6, -1, 18]
        q.bump_visits_before(19, {"X"})
        assert q.visits(reqs[5]) == q.visits(reqs[30]) == 0
        assert q.visits(reqs[18]) == q.visits(reqs[4]) == 1


class TestRouteSelection:
    """Both sides of the queue's one route choice — eager skip counts on
    the unattached tail vs the bump counter for entries that outlived the
    cap — pinned with exact call counts on whole-system replays."""

    def test_shallow_queue_never_touches_the_counter(self, counter_calls, monkeypatch):
        """§V-A headline shape (WS15, 99.9 % hits, queue depth ~0): O3
        accounting costs no counter call at all."""
        bumps = []
        bump = GlobalQueue.bump_visits_before

        def spy(self, stop_slot, exempt=()):
            bumps.append(stop_slot)
            return bump(self, stop_slot, exempt)

        monkeypatch.setattr(GlobalQueue, "bump_visits_before", spy)
        workload = build_workload(WorkloadSpec(working_set=15, minutes=6))
        system = FaaSCluster(SystemConfig(policy="lalbo3"))
        system.submit_workload(workload)
        system.run()
        assert system.metrics.completed_count == len(workload) == 1950
        assert len(bumps) > 1000  # the bumps did run
        assert counter_calls == Counter()

    def test_backlog_is_counted_by_stop_slot(self, counter_calls, monkeypatch):
        """≥ 2k queued behind busy GPUs: the tail attaches at the cap, each
        scan is one counter write, no scan walks a full tail, and spotting
        the starved costs a constant number of reads per scan."""
        tails = []
        bump = GlobalQueue.bump_visits_before

        def spy(self, stop_slot, exempt=()):
            tails.append(len(self._pending_leaves))
            return bump(self, stop_slot, exempt)

        monkeypatch.setattr(GlobalQueue, "bump_visits_before", spy)
        system = _backlog_system(2200)
        system.run(until=0.01)
        assert len(system.scheduler.global_queue) >= 2000
        assert system.cluster.idle_count == 0
        system.run()
        assert system.metrics.completed_count == 2200
        assert counter_calls["add"] > 1000
        assert tails and max(tails) <= _MAX_PENDING_LEAVES - 1
        # per scan: the chain head, each request it starves, and the
        # dispatched request's final count; the hand-over read is per push
        assert counter_calls["cover"] <= 2200 + 3 * counter_calls["add"]

    def test_scan_reads_one_cover_per_live_irregular(self, counter_calls):
        """The one bound the counter adds: a scan reads one ``cover`` per
        *live irregular* entry before its stop slot, on top of the chain
        head.  N failure-requeued requests in a 2k-deep queue cost N reads
        a scan while they wait and nothing once they have been served."""
        n = 5
        system = _backlog_system(2200)
        system.run(until=0.01)
        queue = system.scheduler.global_queue
        assert len(queue) >= 2000 and queue._attached >= 1900
        victims = list(queue)[10:60:10]
        assert len(victims) == n
        for request in victims:  # what a GPU failure does to its requests
            queue.remove(request)
            queue.push_sorted(request)
        # the re-inserted entries are handed over with the next full tail
        for i in range(_MAX_PENDING_LEAVES):
            queue.push(InferenceRequest("fn-pad", victims[0].model, 1.0 + i, 2201 + i))
        assert queue._irregular == victims

        def reads_per_scan(stop_slot):
            before = counter_calls["cover"]
            queue.bump_visits_before(stop_slot)
            return counter_calls["cover"] - before

        assert n <= reads_per_scan(None) <= n + 2
        assert reads_per_scan(25) <= 2 + 2  # only two of them sit before slot 25
        adds = counter_calls["add"]
        for request in victims:
            queue.remove(request)  # dispatched: O(1), no counter write
        assert counter_calls["add"] == adds == 2
        assert reads_per_scan(None) <= 2  # dead entries are dropped unread
        assert queue._irregular == []
