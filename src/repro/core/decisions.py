"""Scheduling decision log.

Records every action the Scheduler takes — dispatches (hit/miss), local-
queue moves, O3 promotions — with the reason, so tests can assert the
Algorithm-1/2 semantics directly and operators can audit why a request
landed where it did.

The log is bounded (ring buffer) so long experiments cannot grow it
without limit.  An entry is stored as an exact 6-tuple of atoms in
:class:`Decision` field order, the kind as its value string, and named on
read: CPython's cyclic collector untracks only *exact* tuples of untracked
items, so a NamedTuple — or a row holding the enum member, a GC object —
would stay on its books for the whole replay, 100k of them.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from itertools import islice
from typing import Iterator, NamedTuple

__all__ = ["DecisionKind", "Decision", "DecisionLog"]


class DecisionKind(enum.Enum):
    DISPATCH_HIT = "dispatch_hit"          # model cached on the target GPU
    DISPATCH_MISS = "dispatch_miss"        # upload required on the target GPU
    DISPATCH_LOCAL = "dispatch_local"      # served from a GPU's local queue
    MOVE_TO_LOCAL = "move_to_local"        # Alg. 2 line 12: wait beats load
    RESUBMIT = "resubmit"                  # failure handling: back to global queue
    TIMEOUT = "timeout"                    # per-request deadline expired while queued
    LOST = "lost"                          # retry budget exhausted, or stranded at drain


class Decision(NamedTuple):
    """One recorded scheduling action (the named view of a log row, minted on read)."""

    time_s: float
    kind: DecisionKind
    request_id: int
    model_id: str
    gpu_id: str | None
    #: request skipped this many times before the action (O3 accounting)
    visits: int = 0


def _named(row: tuple) -> Decision:
    return Decision(row[0], DecisionKind(row[1]), *row[2:])


class DecisionLog:
    """Bounded, queryable record of scheduling actions."""

    def __init__(self, maxlen: int = 100_000) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._maxlen = maxlen
        self._log: deque[tuple] = deque(maxlen=maxlen)  # exact-tuple rows
        # keyed by the kind's value string, read via the enum's _value_
        # slot: Enum.__hash__ is a Python-level call, twice per record
        self._counts: Counter[str] = Counter()

    def append(self, time_s: float, kind: DecisionKind, request_id: int,
               model_id: str, gpu_id: str | None, visits: int = 0) -> None:
        """Record one action from its fields (the Scheduler's hot path)."""
        log = self._log
        value = kind._value_
        if len(log) == self._maxlen:
            self._counts[log[0][1]] -= 1  # about to be evicted
        log.append((time_s, value, request_id, model_id, gpu_id, visits))
        self._counts[value] += 1

    def record(self, decision: Decision) -> None:
        self.append(*decision)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self) -> Iterator[Decision]:
        return map(_named, self._log)

    def count(self, kind: DecisionKind) -> int:
        return self._counts[kind._value_]

    def for_request(self, request_id: int) -> list[Decision]:
        return [_named(row) for row in self._log if row[2] == request_id]

    def for_gpu(self, gpu_id: str) -> list[Decision]:
        return [_named(row) for row in self._log if row[4] == gpu_id]

    def last(self, n: int = 10) -> list[Decision]:
        """The newest ``n`` decisions, oldest first (``[]`` for ``n <= 0``)."""
        rows = list(islice(reversed(self._log), max(n, 0)))
        return [_named(row) for row in reversed(rows)]

    def hit_rate(self) -> float:
        """Hit fraction among plain dispatches (local/moves are hits too)."""
        hits = self.count(DecisionKind.DISPATCH_HIT)
        misses = self.count(DecisionKind.DISPATCH_MISS)
        total = hits + misses
        return hits / total if total else 0.0
