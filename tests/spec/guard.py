"""The conservative pass guard: the spec of production pass elision.

Production's :class:`~repro.core.signals.PassGuard` admits a pass only
when an idle GPU exists and either the global queue is non-empty or some
*idle* GPU has local-queue work.  The guard here admits one whenever any
queued work exists anywhere — the engine's historical run conditions,
which no policy can be over-elided by.  The differential suite's
``passes`` arm installs it (with an always-True mid-pass probe) and
requires byte-identical decisions.
"""

from repro.core.signals import PassGuard

__all__ = ["SpecPassGuard"]


class SpecPassGuard(PassGuard):
    """Some GPU idle and any request waiting, globally or in any local queue."""

    def may_act(self, engine) -> bool:
        if not engine.cluster.idle_count:
            return False
        return len(engine.global_queue) != 0 or engine.local_queues.total() != 0
