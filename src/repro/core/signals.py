"""Dirty signals and the pass guard: the event-driven elision layer.

The classic event-driven-simulation move is to react to state *deltas*
instead of re-deriving decisions from full state on every action.  This
module supplies the two halves the scheduling engine needs:

* **Dirty signals** — compact, O(1)-to-read digests of the mutable state
  a scheduling pass depends on, maintained incrementally by the
  components that own the state:

  ====================  ==============================================
  signal                published by
  ====================  ==============================================
  idle-set delta        :class:`~repro.cluster.topology.Cluster`
                        (``idle_count``, which every GPU state change
                        updates in line, and ``by_frequency``: all GPUs
                        in use-frequency order, re-filed only as a GPU
                        returns to idle, so a pass walks it in place)
  queue length / heads  :class:`~repro.core.queues.GlobalQueue`
                        (O(1) ``len``, per-model head index, the scan
                        span past the head cursor)
  starved/O3 counter    :class:`~repro.core.queues.GlobalQueue`
                        (its live starved list, ``starved_count``)
  cache residency       :class:`~repro.core.cache_manager.CacheManager`
                        (``models_on`` — an O(1) cached frozenset, so
                        both membership and cardinality are signals)
  local-queue delta     :class:`~repro.core.queues.LocalQueues`
                        (``_nonempty``: the devices with local work,
                        whose ``is_idle`` flags the guard reads)
  ====================  ==============================================

* **The pass guard** — the predicate stating when one scheduling pass
  can possibly produce a decision.  The Scheduler consults it before
  every would-be pass (the initial pass of an action and every
  re-invocation after a productive pass) and *elides* the pass when the
  guard proves it a no-op; policies read the same predicate mid-pass
  (``SchedulerOps.pass_work_remaining``) to stop walking idle GPUs.

Correctness contract
--------------------
The guard may return False **only** when the pass it would have admitted
provably makes no decision, records nothing, and mutates nothing
observable (including the lazy O3 ``visits`` accounting — a pass that
never reaches a per-GPU scan never bumps visits).

One proof covers every policy, because it is a proof about the
:class:`~repro.core.policies.SchedulerOps` actions rather than about any
policy's logic.  A pass changes state only through those actions, and
each one either dispatches to an idle GPU (``dispatch``), serves an idle
GPU's local head (``dispatch_local_head``), or takes a global-queue entry
(``dispatch``, ``move_to_local``).  So a pass can act only when at least
one GPU is idle AND (the global queue is non-empty OR some idle GPU has
local-queue work) — paper §IV-A's "a request is waiting and a GPU is
idle", with "waiting" narrowed to work an idle GPU can take.  The
conservative run conditions (any queued work anywhere) are the
executable spec, ``tests/spec/guard.py``, which the differential suite's
``passes`` arm installs to show elision changes no decision.
"""

from __future__ import annotations

__all__ = ["PassGuard"]


class PassGuard:
    """Preconditions under which a scheduling pass can produce a decision.

    ``may_act`` stays a class-level method called through the instance,
    so instrumentation can time the guard by wrapping it on the class.
    """

    def may_act(self, engine) -> bool:
        """True when a pass might act; ``engine`` is the Scheduler."""
        if not engine.cluster.idle_count:
            return False
        # the queue's live count and the local-work set, read directly:
        # this predicate runs per would-be pass *and* per mid-pass
        # narrowing probe, so even len()/bool() method calls show up.  The
        # set is almost always empty here (Algorithm 2 binds requests to
        # *busy* GPUs, and a GPU's local queue drains before it idles)
        if engine.global_queue._live:
            return True
        for gpu in engine.local_queues._nonempty:
            if gpu.is_idle:
                return True
        return False
