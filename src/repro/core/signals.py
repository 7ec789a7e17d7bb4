"""Dirty signals and pass guards: the event-driven elision layer.

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
                        (the ``starved_count`` field)
  cache residency       :class:`~repro.core.cache_manager.CacheManager`
                        (``models_on`` — an O(1) cached frozenset, so
                        both membership and cardinality are signals)
  local-queue delta     :class:`~repro.core.queues.LocalQueues`
                        (``nonempty_gpu_ids``), joined with the idle
                        flags by :class:`IdleLocalWorkIndex`
  ====================  ==============================================

* **Pass guards** — per-policy predicates stating the preconditions
  under which one scheduling pass can possibly produce a decision.  The
  Scheduler consults the guard before every would-be pass (the initial
  pass of an action and every re-invocation after a productive pass) and
  *elides* the pass when the guard proves it a no-op.

Correctness contract
--------------------
A guard may return False **only** when the pass it would have admitted
provably makes no decision, records nothing, and mutates nothing
observable (including the lazy O3 ``visits`` accounting — a pass that
never reaches a per-GPU scan never bumps visits).  Under that contract,
eliding the pass is byte-identical to running it, which is what
``tests/core/test_differential.py`` asserts for every policy by
replaying under the base guard below.

For the paper's four policies one shared proof covers the guard
(:class:`DispatchableWorkGuard`): every decision either serves an *idle*
GPU's local queue or consumes a *global-queue* entry during a per-idle-GPU
scan, so a pass can act only when at least one GPU is idle AND (the
global queue is non-empty OR some idle GPU has local-queue work).  The
base :class:`PassGuard` is the fail-safe for policies that declare
nothing: it reproduces the engine's historical run conditions exactly
(any idle GPU, any queued work anywhere), so custom policies are never
elided more aggressively than the pre-elision engine would have run them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.gpu import GPUDevice
    from ..cluster.topology import Cluster
    from .queues import LocalQueues
    from .request import InferenceRequest

__all__ = ["IdleLocalWorkIndex", "PassGuard", "DispatchableWorkGuard"]


class IdleLocalWorkIndex:
    """Answers "does any *idle* GPU have pending local-queue work?".

    A lazy join of two dirty signals: the local queues' O(1)-maintained
    non-empty set and each GPU's ``is_idle`` flag.  The join is evaluated
    at query time rather than maintained eagerly because its inputs
    change on the hottest paths (every GPU state flip, every local
    push/pop) while the question is only asked when a guard has already
    found the global queue empty — and the non-empty set is almost always
    empty then (Algorithm 2 binds requests to *busy* GPUs, and the engine
    drains an idle GPU's local queue before going back to sleep).
    """

    __slots__ = ("_gpu_by_id", "_nonempty")

    def __init__(self, cluster: "Cluster", local_queues: "LocalQueues") -> None:
        self._gpu_by_id = {g.gpu_id: g for g in cluster.gpus}
        self._nonempty = local_queues.nonempty_gpu_ids()

    def __bool__(self) -> bool:
        nonempty = self._nonempty
        if not nonempty:
            return False
        by_id = self._gpu_by_id
        for gpu_id in nonempty:
            gpu = by_id.get(gpu_id)
            if gpu is not None and gpu.is_idle:
                return True
        return False


class PassGuard:
    """Preconditions under which a policy's pass can produce a decision.

    The base guard is the conservative fail-safe: it admits a pass
    whenever the pre-elision engine would have run one (some GPU idle and
    any request waiting in the global queue or *any* local queue).  It
    never consults policy-specific structure, so it is sound for any
    :class:`~repro.core.policies.SchedulingPolicy` subclass.
    """

    def may_act(self, engine) -> bool:
        """True when a pass might act; ``engine`` is the Scheduler."""
        if not engine.cluster.idle_count:
            return False
        return len(engine.global_queue) != 0 or engine.local_queues.total() != 0


class DispatchableWorkGuard(PassGuard):
    """Shared guard for LB / LALB / LALBO3 / locality.

    Every decision these policies can make either serves an idle GPU's
    local queue or consumes a global-queue entry inside a per-idle-GPU
    scan, so a pass is provably a no-op unless at least one GPU is idle
    AND (the global queue is non-empty OR some *idle* GPU has local
    work).  Compared to the fail-safe base guard this replaces "any local
    queue anywhere has work" (which busy GPUs satisfy for hours at a
    time) with the exact :class:`IdleLocalWorkIndex` membership test.
    """

    def may_act(self, engine) -> bool:
        if not engine.cluster.idle_count:
            return False
        # the queue's live count and the local-work set, read directly:
        # this predicate runs per would-be pass *and* per mid-pass
        # narrowing probe, so even the len()/bool() method calls showed up
        if engine.global_queue._live:
            return True
        idle_local = engine.idle_local_work
        return bool(idle_local._nonempty) and bool(idle_local)
