"""Unit tests for the discrete-event simulation kernel."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, SimError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_priority_breaks_same_time_ties():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "late", priority=1)
    sim.schedule(1.0, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "late"]


def test_negative_delay_rejected():
    with pytest.raises(SimError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimError):
        sim.schedule_at(9.9, lambda: None)


def test_nan_time_rejected():
    with pytest.raises(SimError):
        Simulator().schedule_at(float("nan"), lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []
    assert sim.now == 0.0  # cancelled events do not advance the clock


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(1.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == 2.0


def test_call_soon_runs_after_pending_same_time_events():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, "first")
    sim.call_soon(fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.5)
    assert fired == ["a"]
    assert sim.now == 2.5
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_includes_events_exactly_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_fires_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.now == 1.0


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() == math.inf
    sim.schedule(4.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek() == 2.0


def test_len_counts_pending_non_cancelled():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert len(sim) == 2
    ev.cancel()
    assert len(sim) == 1


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimError):
        sim.run(max_events=100)


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(1.0, reenter)
    with pytest.raises(SimError):
        sim.run()


def test_processed_events_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_drain_yields_pending_events_without_firing():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    ev = sim.schedule(2.0, fired.append, "b")
    ev.cancel()
    drained = list(sim.drain())
    assert len(drained) == 1
    assert fired == []
    assert sim.step() is False


class TestScheduleMany:
    """Bulk injection must be bit-identical to a loop of schedule_at."""

    def _fire_all(self, sim):
        fired = []
        probe = fired.append
        return sim, fired, probe

    def test_equivalent_to_loop_of_schedule_at(self):
        times = [0.5, 1.0, 1.0, 2.5, 2.5, 7.0]
        loop_sim, bulk_sim = Simulator(), Simulator()
        loop_fired, bulk_fired = [], []
        for i, t in enumerate(times):
            loop_sim.schedule_at(t, loop_fired.append, (t, i))
        bulk_sim.schedule_many(times, bulk_fired.append, (((t, i),) for i, t in enumerate(times)))
        loop_sim.run()
        bulk_sim.run()
        assert bulk_fired == loop_fired
        assert bulk_sim.now == loop_sim.now
        assert bulk_sim.processed_events == loop_sim.processed_events

    def test_same_instant_ties_keep_submission_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_many([1.0] * 10, fired.append, ((i,) for i in range(10)))
        sim.run()
        assert fired == list(range(10))

    def test_unsorted_times_still_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_many([3.0, 1.0, 2.0], fired.append, ((t,) for t in (3.0, 1.0, 2.0)))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_interleaves_with_previously_scheduled_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "old")
        sim.schedule_many([1.0, 2.0], fired.append, (("a",), ("b",)))
        sim.run()
        assert fired == ["a", "old", "b"]

    def test_without_args_seq(self):
        sim = Simulator()
        fired = []
        sim.schedule_many([1.0, 2.0], lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 2.0]

    def test_returned_events_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many([1.0, 2.0, 3.0], fired.append, ((i,) for i in range(3)))
        events[1].cancel()
        assert len(sim) == 2
        sim.run()
        assert fired == [0, 2]

    def test_validation_rolls_back_whole_batch(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimError):
            sim.schedule_many([6.0, 4.0], lambda: None)  # 4.0 is in the past
        assert len(sim) == 0
        assert sim.step() is False

    def test_length_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_many([1.0, 2.0], lambda x: None, [(1,)])

    def test_large_presorted_column(self):
        sim = Simulator()
        fired = []
        times = [i * 0.001 for i in range(5000)]
        sim.schedule_many(times, fired.append, ((i,) for i in range(5000)))
        sim.run()
        assert fired == list(range(5000))

    def test_validation_failure_leaves_active_lane_untouched(self):
        sim = Simulator(start_time=5.0)
        fired = []
        events = sim.schedule_many([6.0, 7.0], fired.append, [("a",), ("b",)])
        nan = float("nan")
        for bad in ([8.0, 4.0], [8.0, nan], [nan, 8.0], [nan], [4.0], [4.0, 8.0]):
            with pytest.raises(SimError):
                sim.schedule_many(bad, fired.append, [("x",)] * len(bad))
        with pytest.raises(ValueError):
            sim.schedule_many([8.0], fired.append, [])
        assert len(sim) == len(events) == 2 and sim.peek() == 6.0
        sim.run()
        assert fired == ["a", "b"] and sim.processed_events == 2

    def test_two_outcomes_lane_segment_or_schedule_at_loop(self):
        sim = Simulator()
        lane = sim.schedule_many([1.0, 2.0, 2.0], lambda: None)
        assert not sim._heap and len(sim) == 3  # a column, not three heap entries
        assert [type(ev) for ev in lane] == [Event] * 3  # handles minted on access
        appended = sim.schedule_many([2.0, 3.0], lambda: None)  # starts at the tail
        assert not sim._heap and len(sim._lane) == 2 and len(appended) == 2
        for column in ([2.5, 2.0], [1.5, 4.0]):  # unsorted; starts before the tail
            events = sim.schedule_many(column, lambda: None)
            assert type(events) is list and [ev.time for ev in events] == column
        assert len(sim._heap) == 4 and len(sim) == 9
        assert sim.schedule_many([], lambda: None) == []

    def test_lane_handle_cancel_is_idempotent_and_ignored_once_fired(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_many([1.0, 2.0, 3.0], fired.append, ((i,) for i in range(3)))
        events[2].cancel()
        events[2].cancel()  # a second handle to the same entry
        assert len(sim) == 2
        sim.run(until=1.0)
        events[0].cancel()  # already fired
        assert len(sim) == 1 and sim.peek() == 2.0
        sim.run()
        assert fired == [0, 1] and len(sim) == 0 and not sim._lane


class TestSlabRecycling:
    def test_cancelled_slot_recycles_without_misfire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(5.0, fired.append, "stale")
        ev.cancel()
        # the recycled slot is taken by a fresh event; the stale heap tuple
        # must not resurrect it
        sim.schedule(1.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]
        assert sim.processed_events == 1

    def test_cancel_releases_payload_slot_immediately(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        slot = ev._slot
        ev.cancel()
        assert sim._slab[slot] is None
        assert slot in sim._free


# ---------------------------------------------------------------------------
# lane ≡ loop of schedule_at: a random program run on two simulators, one
# handing its columns to schedule_many, one expanding them entry by entry
# ---------------------------------------------------------------------------
_gap = st.sampled_from([0.0, 0.0, 0.25, 1.0, 10.0])  # zeros make same-instant ties
_priority = st.sampled_from([0, 0, 0, -1, 1])
# (start offset, gaps between entries, order, priority)
_column = st.tuples(
    _gap,
    st.lists(_gap, min_size=1, max_size=8),
    st.sampled_from(["ascending", "ascending", "shuffled"]),
    _priority,
)
# a streaming refill: at the own timestamp of entry k of the column just
# injected, at priority -1, inject the next column starting `shift` from
# that column's tail (negative = not appendable)
_refill = st.tuples(st.integers(0, 7), _column, st.sampled_from([-1.0, 0.0, 0.25]))
_program = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _gap, _priority),
        st.tuples(st.just("schedule_at"), _gap, _priority),
        st.tuples(st.just("many"), _column, st.none() | _refill),
        st.tuples(st.just("cancel"), st.integers(0, 400)),
        st.tuples(st.just("run"), _gap),
        st.tuples(st.just("step")),
        st.tuples(st.just("probe")),
        st.tuples(st.just("drain")),
    ),
    max_size=30,
)


class _Arm:
    """One simulator plus everything observable about it."""

    def __init__(self, bulk: bool) -> None:
        self.sim = Simulator()
        self.bulk = bulk
        self.log = []  # firings and probe readings, in order
        self.handles = []  # zero-argument cancellers
        self.columns = 0

    def fire(self, tag) -> None:
        self.log.append(("fired", self.sim.now, tag))

    def many(self, column, refill, origin: float) -> None:
        start, gaps, order, priority = column
        times, t = [], max(origin + start, self.sim.now)
        for gap in gaps:
            times.append(t)
            t += gap
        tail = times[-1]
        if order == "shuffled":
            random.Random(len(times)).shuffle(times)
        self.columns += 1
        args = [((self.columns, i),) for i in range(len(times))]
        if self.bulk:
            events = self.sim.schedule_many(times, self.fire, args, priority=priority)
        else:
            events = [
                self.sim.schedule_at(t, self.fire, *a, priority=priority)
                for t, a in zip(times, args)
            ]
        assert len(events) == len(times)
        self.handles.extend(
            (lambda events=events, i=i: events[i].cancel()) for i in range(len(times))
        )
        if refill is not None:
            k, next_column, shift = refill
            self.sim.schedule_at(
                times[k % len(times)], self.many, next_column, None, tail + shift, priority=-1
            )

    def execute(self, program) -> list:
        sim, log = self.sim, self.log
        for op in program:
            if op[0] == "schedule":
                self.handles.append(sim.schedule(op[1], self.fire, "s", priority=op[2]).cancel)
            elif op[0] == "schedule_at":
                ev = sim.schedule_at(sim.now + op[1], self.fire, "a", priority=op[2])
                self.handles.append(ev.cancel)
            elif op[0] == "many":
                self.many(op[1], op[2], sim.now)
            elif op[0] == "cancel":
                if self.handles:
                    self.handles[op[1] % len(self.handles)]()
            elif op[0] == "run":
                sim.run(until=sim.now + op[1])
            elif op[0] == "step":
                log.append(("step", sim.step()))
            elif op[0] == "probe":
                log.append(("probe", sim.peek(), len(sim)))
            else:
                log.append(
                    ("drain", [(ev.time, ev.priority, ev.seq, ev.args) for ev in sim.drain()])
                )
            log.append((sim.now, sim.processed_events, len(sim)))
        sim.run()
        log.append((sim.now, sim.processed_events, len(sim), sim.peek()))
        return log


@given(_program)
@settings(max_examples=300, deadline=None)
def test_schedule_many_is_a_loop_of_schedule_at(program):
    assert _Arm(bulk=True).execute(program) == _Arm(bulk=False).execute(program)
