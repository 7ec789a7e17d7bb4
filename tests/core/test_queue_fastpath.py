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
        stop = q.first_entry_for_model(reqs[3].model_id)
        assert stop.request is reqs[3]  # each request deploys its own instance
        assert stop.slot == 3
        q.bump_visits_before(stop.slot)
        assert [r.visits for r in reqs] == [1, 1, 1, 0, 0]
        q.bump_visits_before(None)  # whole queue
        assert [r.visits for r in reqs] == [2, 2, 2, 1, 1]

    def test_visits_materialized_on_remove(self, make_request):
        q = GlobalQueue(o3_limit=25)
        reqs = _push_n(q, make_request, 3)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        q.remove(reqs[1])
        assert reqs[1].visits == 2  # frozen at removal
        q.bump_visits_before(None)
        assert reqs[1].visits == 2  # no longer tracked
        assert reqs[0].visits == 3

    def test_direct_writes_stay_consistent(self, make_request):
        """The reference scan's `visits += 1` and lazy bumps may interleave."""
        q = GlobalQueue(o3_limit=25)
        (r,) = _push_n(q, make_request, 1)
        q.bump_visits_before(None)
        r.visits += 1
        q.bump_visits_before(None)
        assert r.visits == 3

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
        assert [e.request for e in starved] == reqs[:2]
        assert all(e.request.visits == 2 for e in starved)  # frozen at limit+1

    def test_starved_never_bumped_again(self, make_request):
        q = GlobalQueue(o3_limit=0)
        reqs = _push_n(q, make_request, 2)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        q.bump_visits_before(None)
        assert [r.visits for r in reqs] == [1, 1]  # starved counts freeze

    def test_stop_slot_filters_starved(self, make_request):
        q = GlobalQueue(o3_limit=0)
        reqs = _push_n(q, make_request, 3)
        q.bump_visits_before(None)  # limit 0: every covered request starves
        entry = q.first_entry_for_model(reqs[2].model_id)
        assert [e.request for e in q.starved_entries_before(entry.slot)] == reqs[:2]
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
        assert reqs[0] in [e.request for e in starved]
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
        assert [r.visits for r in reqs] == [1, 1, 1, 1]
        q.bump_visits_before(None)
        assert [r.visits for r in reqs] == [2, 2, 2, 2]


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

    def test_iter_requests_survives_reindex(self, make_request):
        q = GlobalQueue()
        reqs = _push_n(q, make_request, 4)
        late = make_request("fn-late", arrival=1.5)
        seen = []
        for r in q.iter_requests():
            seen.append(r)
            if r is reqs[1]:
                q.push_sorted(late)  # renumbers every slot mid-walk
        assert seen == [reqs[0], reqs[1], late, reqs[2], reqs[3]]

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
        assert [r.visits for r in reqs[150:]] == [1] * 50
        q.bump_visits_before(None)
        assert [r.visits for r in reqs[150:]] == [2] * 50
        assert extra.visits == 1


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
            InferenceRequest(f"fn{i % n_models}", instances[i % n_models], arrival_time=i * 1e-6)
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


class TestRouteSelection:
    """Both sides of the queue's one route choice — eager skip counts on
    the unattached tail vs the bump counter for entries that outlived the
    cap — pinned with exact call counts on whole-system replays."""

    def test_shallow_queue_never_touches_the_counter(self, counter_calls):
        """§V-A headline shape (WS15, 99.9 % hits, queue depth ~0): O3
        accounting costs no counter call at all."""
        workload = build_workload(WorkloadSpec(working_set=15, minutes=6))
        system = FaaSCluster(SystemConfig(policy="lalbo3"))
        system.submit_workload(workload)
        system.run()
        assert system.metrics.completed_count == len(workload) == 1950
        assert system.scheduler.policy.fast_scans > 1000  # the bumps did run
        assert counter_calls == Counter()

    def test_backlog_is_counted_by_stop_slot(self, counter_calls, monkeypatch):
        """≥ 2k queued behind busy GPUs: the tail attaches at the cap, each
        scan is one counter write, no scan walks a full tail, and spotting
        the starved costs a constant number of reads per scan."""
        tails = []
        bump = GlobalQueue.bump_visits_before

        def spy(self, stop_slot):
            tails.append(len(self._pending_leaves))
            return bump(self, stop_slot)

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
            queue.push(InferenceRequest("fn-pad", victims[0].model, arrival_time=1.0 + i))
        assert [e.request for e in queue._irregular] == victims

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
