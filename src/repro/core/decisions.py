"""Scheduling decision log.

Records every action the Scheduler takes — dispatches (hit/miss), local-
queue moves, O3 promotions — with the reason, so tests can assert the
Algorithm-1/2 semantics directly and operators can audit why a request
landed where it did.

The log is bounded (ring buffer) so long experiments cannot grow it
without limit.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from typing import Iterator, NamedTuple

__all__ = ["DecisionKind", "Decision", "DecisionLog"]


class DecisionKind(enum.Enum):
    DISPATCH_HIT = "dispatch_hit"          # model cached on the target GPU
    DISPATCH_MISS = "dispatch_miss"        # upload required on the target GPU
    DISPATCH_LOCAL = "dispatch_local"      # served from a GPU's local queue
    MOVE_TO_LOCAL = "move_to_local"        # Alg. 2 line 12: wait beats load
    RESUBMIT = "resubmit"                  # failure handling: back to global queue
    TIMEOUT = "timeout"                    # per-request deadline expired while queued
    LOST = "lost"                          # retry budget exhausted; request dropped


class Decision(NamedTuple):
    """One recorded scheduling action (NamedTuple: minted on every dispatch)."""

    time_s: float
    kind: DecisionKind
    request_id: int
    model_id: str
    gpu_id: str | None
    #: request skipped this many times before the action (O3 accounting)
    visits: int = 0


class DecisionLog:
    """Bounded, queryable record of scheduling actions."""

    def __init__(self, maxlen: int = 100_000) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._maxlen = maxlen
        self._log: deque[Decision] = deque(maxlen=maxlen)
        # keyed by the kind's value string, read via the enum's _value_
        # slot: Enum.__hash__ is a Python-level call, twice per record
        self._counts: Counter[str] = Counter()

    def record(self, decision: Decision) -> None:
        log = self._log
        if len(log) == self._maxlen:
            self._counts[log[0].kind._value_] -= 1  # about to be evicted
        log.append(decision)
        self._counts[decision.kind._value_] += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._log)

    def count(self, kind: DecisionKind) -> int:
        return self._counts[kind._value_]

    def for_request(self, request_id: int) -> list[Decision]:
        return [d for d in self._log if d.request_id == request_id]

    def for_gpu(self, gpu_id: str) -> list[Decision]:
        return [d for d in self._log if d.gpu_id == gpu_id]

    def last(self, n: int = 10) -> list[Decision]:
        return list(self._log)[-n:]

    def hit_rate(self) -> float:
        """Hit fraction among plain dispatches (local/moves are hits too)."""
        hits = self.count(DecisionKind.DISPATCH_HIT)
        misses = self.count(DecisionKind.DISPATCH_MISS)
        total = hits + misses
        return hits / total if total else 0.0
