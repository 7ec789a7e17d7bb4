"""Scheduling decision log.

Records every action the Scheduler takes — dispatches (hit/miss), local-
queue moves, O3 promotions — with the reason, so tests can assert the
Algorithm-1/2 semantics directly and operators can audit why a request
landed where it did.

The log is a bounded ring stored as narrow typed columns, one slot per
field of :class:`Decision`: the time in an ``array('d')``, the request id
and visits as ``uint32``, the kind as a one-byte code, and the model and GPU
id as ``uint16`` codes minted by a :class:`CodeTable` each, whose code →
string tables grow with the model set and the cluster, never with the
trace.  A row costs 21 bytes, none of them in an object the cyclic
collector tracks; a value that does not fit its column raises
``OverflowError`` and the row is not appended.  The columns grow in blocks
of :data:`BLOCK` rows up to ``maxlen``, 16 blocks (~344 KB) by default:
``appended`` and the per-kind counts cover every decision, and the runtime
reads only the newest row.  A row is written by item assignment (no call
per row), and :class:`Decision` views are minted only on read.
"""

from __future__ import annotations

import enum
from array import array
from itertools import chain
from typing import Hashable, Iterator, NamedTuple

__all__ = ["DecisionKind", "Decision", "DecisionLog"]

#: rows the columns grow by until the ring reaches ``maxlen``
BLOCK = 1024


class DecisionKind(enum.Enum):
    DISPATCH_HIT = "dispatch_hit"          # model cached on the target GPU
    DISPATCH_MISS = "dispatch_miss"        # upload required on the target GPU
    DISPATCH_LOCAL = "dispatch_local"      # served from a GPU's local queue
    MOVE_TO_LOCAL = "move_to_local"        # Alg. 2 line 12: wait beats load
    RESUBMIT = "resubmit"                  # failure handling: back to global queue
    LOST = "lost"                          # stranded in a queue when the replay drains


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


class CodeTable(dict):
    """Value → dense code, ``names[code]`` the value back.

    A subscript mints the next code for a value not seen yet (in
    ``__missing__``, so a known value costs a dict lookup and no call);
    ``get`` looks up without minting.  Past :attr:`LIMIT` codes a new
    value raises ``OverflowError`` instead of taking a code its ``uint16``
    column cannot hold.
    """

    __slots__ = ("names",)
    #: codes a ``uint16`` column holds
    LIMIT = 1 << 16

    def __init__(self) -> None:
        super().__init__()
        self.names: list = []

    def __missing__(self, value: Hashable) -> int:
        code = len(self.names)
        if code >= self.LIMIT:
            raise OverflowError(f"more than {self.LIMIT} distinct values: {value!r}")
        self[value] = code
        self.names.append(value)
        return code


class DecisionLog:
    """Bounded, queryable record of scheduling actions."""

    def __init__(self, maxlen: int = 16 * BLOCK) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._maxlen = maxlen
        #: rows appended since construction (monotonic; the ring holds the
        #: newest ``min(appended, maxlen)`` of them)
        self.appended = 0
        self._capacity = 0
        self._time = array("d")
        self._kind = bytearray()
        self._request = array("I")
        self._model = array("H")
        self._gpu = array("H")
        self._visits = array("I")
        self._models = CodeTable()
        self._gpus = CodeTable()
        self._counts = [0] * len(_KINDS)  # rows appended, by kind code

    def _grow(self) -> None:
        block = min(BLOCK, self._maxlen - self._capacity)
        self._capacity += block
        zeros = bytes(8 * block)
        self._time.frombytes(zeros)
        self._kind += zeros[:block]
        self._request.frombytes(zeros[: 4 * block])
        self._model.frombytes(zeros[: 2 * block])
        self._gpu.frombytes(zeros[: 2 * block])
        self._visits.frombytes(zeros[: 4 * block])

    def append(self, time_s: float, kind: DecisionKind, request_id: int,
               model_id: str, gpu_id: str | None, visits: int = 0) -> None:
        """Record one action from its fields (the Scheduler's hot path)."""
        n = self.appended
        i = n % self._maxlen
        if i == self._capacity:
            self._grow()
        code = _CODE[kind._value_]
        model = self._models[model_id]
        gpu = self._gpus[gpu_id]
        self._request[i] = request_id
        self._visits[i] = visits
        self._model[i] = model
        self._gpu[i] = gpu
        self._time[i] = time_s
        self._kind[i] = code
        self._counts[code] += 1
        self.appended = n + 1

    def record(self, decision: Decision) -> None:
        self.append(*decision)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(self.appended, self._maxlen)

    def _slots(self, start: int, stop: int):
        """Raw rows of ring slots ``[start, stop)``: the kind, model and GPU
        as their codes."""
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

    def _named(self, rows) -> Iterator[Decision]:
        models, gpus = self._models.names, self._gpus.names
        return (
            Decision(time_s, _KINDS[kind], request_id, models[model], gpus[gpu], visits)
            for time_s, kind, request_id, model, gpu, visits in rows
        )

    def __iter__(self) -> Iterator[Decision]:
        return self._named(self._newest(len(self)))

    def count(self, kind: DecisionKind) -> int:
        return self._counts[_CODE[kind._value_]]

    def counts(self) -> dict[str, int]:
        """Decisions ever appended per kind value (monotonic, like ``appended``)."""
        return {kind._value_: n for kind, n in zip(_KINDS, self._counts) if n}

    def for_request(self, request_id: int) -> list[Decision]:
        return list(self._named(row for row in self._newest(len(self)) if row[2] == request_id))

    def for_gpu(self, gpu_id: str | None) -> list[Decision]:
        code = self._gpus.get(gpu_id)
        if code is None:  # never appended: no row names it
            return []
        return list(self._named(row for row in self._newest(len(self)) if row[4] == code))

    def last(self, n: int = 10) -> list[Decision]:
        """The newest ``n`` decisions, oldest first (``[]`` for ``n <= 0``)."""
        return list(self._named(self._newest(max(0, min(n, len(self))))))

    def hit_rate(self) -> float:
        """Hit fraction among every plain dispatch appended (local/moves hit too)."""
        hits = self.count(DecisionKind.DISPATCH_HIT)
        misses = self.count(DecisionKind.DISPATCH_MISS)
        total = hits + misses
        return hits / total if total else 0.0
