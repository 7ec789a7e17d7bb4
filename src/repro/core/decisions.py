"""Scheduling decision log.

Records every action the Scheduler takes — dispatches (hit/miss), local-
queue moves, O3 promotions — with the reason, so tests can assert the
Algorithm-1/2 semantics directly and operators can audit why a request
landed where it did.

The log is a bounded ring stored as typed columns, one slot per field of
:class:`Decision`: the time in an ``array('d')``, the request id and visits
in ``array('q')``, the kind as a one-byte code, and the model and GPU id
as references to the strings the requests and devices already hold.  A
row costs ~49 bytes, where a 6-tuple plus its deque slot cost ~104, and
nothing in it is an object the cyclic collector tracks.  The columns grow
in blocks of :data:`BLOCK` rows up to ``maxlen`` (a small system never pays
for the whole ring), a row is written by item assignment (no call per
row), and :class:`Decision` views are minted only on read.
"""

from __future__ import annotations

import enum
from array import array
from itertools import chain, starmap
from typing import Iterator, NamedTuple

__all__ = ["DecisionKind", "Decision", "DecisionLog"]

#: rows the columns grow by until the ring reaches ``maxlen``
BLOCK = 1024


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


#: a kind's column code is its definition index; keyed by the value string
#: because Enum.__hash__ is a Python-level call
_KINDS = tuple(DecisionKind)
_CODE = {kind._value_: code for code, kind in enumerate(_KINDS)}


def _named(time_s, code, request_id, model_id, gpu_id, visits) -> Decision:
    return Decision(time_s, _KINDS[code], request_id, model_id, gpu_id, visits)


class DecisionLog:
    """Bounded, queryable record of scheduling actions."""

    def __init__(self, maxlen: int = 100_000) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._maxlen = maxlen
        #: rows appended since construction (monotonic; the ring holds the
        #: newest ``min(appended, maxlen)`` of them)
        self.appended = 0
        self._capacity = 0
        self._time = array("d")
        self._kind = bytearray()
        self._request = array("q")
        self._model: list[str | None] = []
        self._gpu: list[str | None] = []
        self._visits = array("q")
        self._counts = [0] * len(_KINDS)  # rows appended, by kind code

    def _grow(self) -> None:
        block = min(BLOCK, self._maxlen - self._capacity)
        self._capacity += block
        zeros = bytes(8 * block)
        self._time.frombytes(zeros)
        self._kind += zeros[:block]
        self._request.frombytes(zeros)
        self._model += [None] * block
        self._gpu += [None] * block
        self._visits.frombytes(zeros)

    def append(self, time_s: float, kind: DecisionKind, request_id: int,
               model_id: str, gpu_id: str | None, visits: int = 0) -> None:
        """Record one action from its fields (the Scheduler's hot path)."""
        n = self.appended
        i = n % self._maxlen
        if i == self._capacity:
            self._grow()
        code = _CODE[kind._value_]
        self._time[i] = time_s
        self._kind[i] = code
        self._request[i] = request_id
        self._model[i] = model_id
        self._gpu[i] = gpu_id
        self._visits[i] = visits
        self._counts[code] += 1
        self.appended = n + 1

    def record(self, decision: Decision) -> None:
        self.append(*decision)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(self.appended, self._maxlen)

    def _slots(self, start: int, stop: int):
        """Raw rows of ring slots ``[start, stop)``, kind as its code."""
        return zip(
            self._time[start:stop], self._kind[start:stop], self._request[start:stop],
            self._model[start:stop], self._gpu[start:stop], self._visits[start:stop],
        )

    def _newest(self, k: int):
        """Raw rows of the newest ``k`` decisions (``0 <= k <= len``), oldest
        first: O(k) whatever the ring holds."""
        maxlen = self._maxlen
        end = (self.appended - 1) % maxlen + 1 if self.appended else 0
        start = end - k
        if start >= 0:
            return self._slots(start, end)
        return chain(self._slots(maxlen + start, maxlen), self._slots(0, end))

    def __iter__(self) -> Iterator[Decision]:
        return starmap(_named, self._newest(len(self)))

    def count(self, kind: DecisionKind) -> int:
        return self._counts[_CODE[kind._value_]]

    def counts(self) -> dict[str, int]:
        """Decisions ever appended per kind value (monotonic, like ``appended``)."""
        return {kind._value_: n for kind, n in zip(_KINDS, self._counts) if n}

    def for_request(self, request_id: int) -> list[Decision]:
        return [_named(*row) for row in self._newest(len(self)) if row[2] == request_id]

    def for_gpu(self, gpu_id: str) -> list[Decision]:
        return [_named(*row) for row in self._newest(len(self)) if row[4] == gpu_id]

    def last(self, n: int = 10) -> list[Decision]:
        """The newest ``n`` decisions, oldest first (``[]`` for ``n <= 0``)."""
        return list(starmap(_named, self._newest(max(0, min(n, len(self))))))

    def hit_rate(self) -> float:
        """Hit fraction among every plain dispatch appended (local/moves hit too)."""
        hits = self.count(DecisionKind.DISPATCH_HIT)
        misses = self.count(DecisionKind.DISPATCH_MISS)
        total = hits + misses
        return hits / total if total else 0.0
