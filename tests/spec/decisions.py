"""The literal decision log: the spec of the columnar ring.

:class:`~repro.core.decisions.DecisionLog` stores its rows as typed
columns in a ring that grows in blocks.  This is the same log as one
``deque(maxlen=...)`` of :class:`~repro.core.decisions.Decision` rows plus
a per-kind tally of every append, the oracle the ring's property test
compares every read against.
"""

from collections import Counter, deque
from itertools import islice

from repro.core.decisions import BLOCK, Decision, DecisionKind

__all__ = ["SpecDecisionLog"]


class SpecDecisionLog:
    """Bounded deque of named rows with a per-kind count of every append."""

    def __init__(self, maxlen: int = 16 * BLOCK) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be positive")
        self._log: deque[Decision] = deque(maxlen=maxlen)
        self._counts: Counter[DecisionKind] = Counter()
        self.appended = 0

    def append(self, time_s, kind, request_id, model_id, gpu_id, visits=0) -> None:
        self._log.append(Decision(time_s, kind, request_id, model_id, gpu_id, visits))
        self._counts[kind] += 1
        self.appended += 1

    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self):
        return iter(self._log)

    def count(self, kind: DecisionKind) -> int:
        return self._counts[kind]

    def counts(self) -> dict[str, int]:
        return {kind.value: n for kind, n in self._counts.items() if n}

    def for_request(self, request_id: int) -> list[Decision]:
        return [d for d in self._log if d.request_id == request_id]

    def for_gpu(self, gpu_id: str) -> list[Decision]:
        return [d for d in self._log if d.gpu_id == gpu_id]

    def last(self, n: int = 10) -> list[Decision]:
        return list(islice(reversed(self._log), max(n, 0)))[::-1]

    def hit_rate(self) -> float:
        hits = self.count(DecisionKind.DISPATCH_HIT)
        misses = self.count(DecisionKind.DISPATCH_MISS)
        total = hits + misses
        return hits / total if total else 0.0
