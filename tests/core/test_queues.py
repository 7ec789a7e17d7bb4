"""Unit tests for the global and local scheduler queues."""

import pytest

from repro.core.queues import GlobalQueue, LocalQueues


class TestGlobalQueue:
    def test_arrival_order_preserved(self, make_request):
        q = GlobalQueue()
        reqs = [make_request(f"fn-{i}", arrival=float(i)) for i in range(5)]
        for r in reqs:
            q.push(r)
        assert list(q) == reqs
        assert q.head() is reqs[0]
        assert len(q) == 5

    def test_duplicate_push_rejected(self, make_request):
        q = GlobalQueue()
        r = make_request()
        q.push(r)
        with pytest.raises(ValueError):
            q.push(r)

    def test_remove_middle_keeps_order(self, make_request):
        q = GlobalQueue()
        reqs = [make_request(f"fn-{i}") for i in range(3)]
        for r in reqs:
            q.push(r)
        q.remove(reqs[1])
        assert list(q) == [reqs[0], reqs[2]]
        assert not any(r is reqs[1] for r in q)

    def test_remove_absent_raises(self, make_request):
        q = GlobalQueue()
        with pytest.raises(KeyError):
            q.remove(make_request())

    def test_model_index_returns_oldest_first(self, make_request):
        q = GlobalQueue()
        a1 = make_request("fn-a", arrival=0.0)
        b = make_request("fn-b", arrival=1.0)
        a2_req = make_request("fn-a", arrival=2.0)
        for r in (a1, b, a2_req):
            q.push(r)
        assert q.first_for_model(a1.model_id) is a1
        q.remove(a1)
        assert q.first_for_model(a2_req.model_id) is a2_req

    def test_model_index_cleared_on_removal(self, make_request):
        q = GlobalQueue()
        r = make_request("fn-x")
        q.push(r)
        q.remove(r)
        assert q.first_for_model(r.model_id) is None
        assert q.queued_models() == set()

    def test_queued_models_set(self, make_request):
        q = GlobalQueue()
        a = make_request("fn-a")
        b = make_request("fn-b")
        q.push(a)
        q.push(b)
        assert q.queued_models() == {a.model_id, b.model_id}

    def test_iteration_snapshot_allows_mutation(self, make_request):
        q = GlobalQueue()
        reqs = [make_request(f"fn-{i}") for i in range(4)]
        for r in reqs:
            q.push(r)
        seen = []
        for r in q:
            seen.append(r)
            if r is reqs[0]:
                q.remove(reqs[2])  # mutate during iteration
        assert seen == reqs  # snapshot iteration sees the original order

    def test_empty_queue(self):
        q = GlobalQueue()
        assert q.head() is None
        assert len(q) == 0
        assert list(q) == []


class TestLocalQueues:
    def test_fifo_per_gpu(self, make_request):
        lq = LocalQueues()
        a = make_request("fn-a")
        b = make_request("fn-b")
        lq.push("g0", a)
        lq.push("g0", b)
        lq.push("g1", make_request("fn-c"))
        assert lq.length("g0") == 2
        assert lq.peek("g0") is a
        assert lq.pop("g0") is a
        assert lq.pop("g0") is b
        assert lq.total() == 1

    def test_pop_empty_raises(self):
        lq = LocalQueues()
        with pytest.raises(IndexError):
            lq.pop("g0")

    def test_push_marks_request_local(self, make_request):
        from repro.core.request import RequestState

        lq = LocalQueues()
        r = make_request()
        lq.push("g0", r)
        assert r.state is RequestState.LOCAL_QUEUED

    def test_nonempty_set_follows_the_empty_transitions(self, make_request):
        """The guard's local-work signal: a key is in ``_nonempty`` exactly
        while its queue holds a request."""
        lq = LocalQueues()
        lq.push("g2", make_request())
        lq.push("g2", make_request())
        assert lq._nonempty == {"g2"}
        lq.pop("g2")
        assert lq._nonempty == {"g2"}
        lq.pop("g2")
        assert lq._nonempty == set()

    def test_requests_returns_copy(self, make_request):
        lq = LocalQueues()
        r = make_request()
        lq.push("g0", r)
        snapshot = lq.requests("g0")
        snapshot.clear()
        assert lq.length("g0") == 1
