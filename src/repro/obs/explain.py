"""Scheduler explain mode: structured cause records per decision.

With ``SystemConfig(trace_decisions=True)`` the runtime installs an
:class:`ExplainLog` on the Scheduler.  The policies then narrate their
Algorithm 1/2 walks — candidates considered, why each was rejected,
which branch won — as cheap ``note()`` tuples, and the Scheduler
attaches the accumulated trail to every :class:`~repro.core.decisions.
Decision` it records, together with the pass context (which pass the
decision fell in, and the dirty-signal state that armed that pass).

Explain mode is a *debugging* lens: its memory is linear in decisions
(one :class:`Cause` each) and its notes build small tuples and strings,
so it is kept off the default replay path — the parity suite asserts
the :class:`~repro.core.decisions.DecisionLog` is byte-identical with
it on or off.

``python -m repro.experiments explain <request_id>`` re-runs the
deterministic 2k §V-A replay with explain on and prints the decision
chain for one request (:func:`run_explain`).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Cause", "ExplainLog", "run_explain", "format_request_causes"]

#: ``pass_seq`` of decisions recorded outside any scheduling pass
#: (resubmits, stranded drops)
OUTSIDE_PASS = -1


class Cause(NamedTuple):
    """Why one decision happened: pass context plus the policy's trail."""

    #: global decision order (index into the explain log)
    seq: int
    time_s: float
    #: DecisionKind name (``"DISPATCH_HIT"``, ``"MOVE_TO_LOCAL"``, ...)
    kind: str
    request_id: int
    gpu_id: str | None
    visits: int
    #: which executed pass produced it (:data:`OUTSIDE_PASS` for
    #: entry-point decisions like resubmits and drops)
    pass_seq: int
    #: dirty-signal state that armed the pass ("idle=2 queued=14 local=0")
    armed: str
    #: ordered policy notes since the previous decision:
    #: ``(tag, *detail)`` tuples, e.g. ``("alg2:load_beats_wait", "n0-g1")``
    trail: tuple


class ExplainLog:
    """Accumulates :class:`Cause` records; indexed by request id."""

    __slots__ = (
        "causes", "_by_request", "_trail", "_pass_seq", "_armed",
        "elided_count", "last_elided",
    )

    def __init__(self) -> None:
        self.causes: list[Cause] = []
        self._by_request: dict[int, list[Cause]] = {}
        self._trail: list[tuple] = []
        self._pass_seq = OUTSIDE_PASS
        self._armed = ""
        #: passes the guard proved no-ops while explain was on
        self.elided_count = 0
        #: most recent elisions as ``(time_s, signal_state)`` pairs
        self.last_elided: list[tuple[float, str]] = []

    # -- scheduler hooks ------------------------------------------------
    def pass_begin(self, pass_seq: int, armed: str) -> None:
        self._pass_seq = pass_seq
        self._armed = armed
        self._trail.clear()

    def pass_end(self) -> None:
        self._pass_seq = OUTSIDE_PASS
        self._armed = ""
        self._trail.clear()

    def pass_elided(self, time_s: float, signals: str) -> None:
        self.elided_count += 1
        recent = self.last_elided
        recent.append((time_s, signals))
        if len(recent) > 100:
            del recent[:-100]

    # -- policy hook ----------------------------------------------------
    def note(self, tag: str, *detail) -> None:
        """Record one step of the policy's walk (consumed by the next
        decision's :class:`Cause`)."""
        self._trail.append((tag, *detail))

    # -- decision hook --------------------------------------------------
    def attach(self, decision) -> None:
        """Mint a :class:`Cause` for a just-recorded decision."""
        cause = Cause(
            len(self.causes), decision.time_s, decision.kind.name,
            decision.request_id, decision.gpu_id, decision.visits,
            self._pass_seq, self._armed, tuple(self._trail),
        )
        self._trail.clear()
        self.causes.append(cause)
        per_request = self._by_request.get(decision.request_id)
        if per_request is None:
            self._by_request[decision.request_id] = [cause]
        else:
            per_request.append(cause)

    # -- queries --------------------------------------------------------
    def for_request(self, request_id: int) -> list[Cause]:
        return list(self._by_request.get(request_id, ()))

    def __len__(self) -> int:
        return len(self.causes)


def format_request_causes(explain: ExplainLog, request_id: int) -> str:
    """Human-readable decision chain for one request."""
    causes = explain.for_request(request_id)
    if not causes:
        return f"request {request_id}: no decisions recorded"
    lines = [f"request {request_id}: {len(causes)} decision(s)"]
    for cause in causes:
        where = (
            "outside any pass" if cause.pass_seq == OUTSIDE_PASS
            else f"pass {cause.pass_seq} (armed: {cause.armed})"
        )
        gpu = f" gpu={cause.gpu_id}" if cause.gpu_id else ""
        lines.append(
            f"  [{cause.seq}] t={cause.time_s:.6f}s {cause.kind}{gpu} "
            f"visits={cause.visits} — {where}"
        )
        for step in cause.trail:
            tag, *detail = step
            suffix = f" {' '.join(str(d) for d in detail)}" if detail else ""
            lines.append(f"      {tag}{suffix}")
    return "\n".join(lines)


def run_explain(
    request_id: int,
    *,
    n_requests: int = 2000,
    seed: int = 0,
    config=None,
) -> str:
    """Re-run the deterministic §V-A replay and explain one request
    (``ValueError`` when the replay has no request ``request_id``)."""
    # local imports: repro.runtime imports this module for ExplainLog,
    # so the heavy runtime imports must not run at module import time
    from ..experiments.replay import replay
    from ..runtime.config import SystemConfig
    from ..traces.azure import SyntheticAzureTrace
    from ..traces.workload import build_workload, spec_for_requests

    workload = build_workload(
        spec_for_requests(n_requests, seed=seed), trace=SyntheticAzureTrace()
    )
    n = len(workload)
    if not 1 <= request_id <= n:
        raise ValueError(
            f"request {request_id} out of range: this replay has "
            f"{n} requests (1..{n})"
        )
    done: list = []
    _, system = replay(
        config or SystemConfig(trace_decisions=True),
        workload,
        prepare=lambda system: system.subscribe_completion(done.append),
    )
    # every request completes or is lost (and stays listed while the
    # metrics window is open, as it always is by default)
    target = next(r for r in done + system.metrics.lost if r.request_id == request_id)
    header = (
        f"replay: {n} requests, policy={system.config.policy}, "
        f"seed={seed} — explaining request {request_id}\n"
        f"function={target.function_name} model={target.model_id} "
        f"arrival={target.arrival_time:.6f}s state={target.state.value}"
    )
    body = format_request_causes(system.scheduler.explain, request_id)
    footer = ""
    if target.completed_at is not None:
        footer = (
            f"\noutcome: completed at t={target.completed_at:.6f}s on "
            f"{target.gpu_id} — latency={target.latency:.6f}s "
            f"hit={target.cache_hit} retries={target.retries}"
        )
    return f"{header}\n{body}{footer}"
