"""Fixed-size log-bucketed histograms: the metrics fold target.

The :class:`~repro.metrics.collector.MetricsCollector`'s exact window
keeps one row per completion, which makes memory linear in replay size —
fine at 100k requests, an OOM at 10M.  :class:`LogHistogram` is what the
rows fold into when the window closes: per-request latency samples land
in a **fixed** array of log-spaced buckets (the HdrHistogram shape),
alongside running compensated sums, so a million-request replay carries
the same few kilobytes of metric state as a two-thousand-request one.

Accuracy contract
-----------------
* ``count`` / ``min`` / ``max`` are exact.
* ``sum`` (and therefore ``mean``) uses Neumaier-compensated summation:
  exact to the last float64 rounding of the true sum — in practice it
  matches NumPy's pairwise ``mean`` to ~1 ulp, and the collector only
  relies on it once its exact window has closed (while the window is
  open, summaries are NumPy reductions of the retained rows).
* ``variance`` derives from the compensated sum of squares; same regime.
* ``quantile`` reports the **geometric midpoint** of the bucket holding
  the q-th sample.  With bucket boundaries growing by ``growth`` per
  bucket, every sample in a bucket is within a factor ``sqrt(growth)``
  of the midpoint, so the *relative* quantile error is bounded by
  ``sqrt(growth) - 1`` — **≈ 1.0 %** at the default ``growth = 1.02``.
  Samples below ``lo`` clamp into the first bucket (absolute error
  ≤ ``lo``, default 1 µs); samples at or above ``hi`` clamp into the
  last.  Both clamps leave sums/min/max exact.

The default range [1 µs, 100 000 s] at 2 % bucket growth needs
⌈ln(1e11)/ln(1.02)⌉ = 1280 buckets — 10 KB of int64 per histogram,
regardless of how many samples fold in.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["LogHistogram", "DEFAULT_GROWTH", "quantile_error_bound"]

#: default per-bucket boundary growth factor (2 % wide buckets)
DEFAULT_GROWTH = 1.02


def quantile_error_bound(growth: float = DEFAULT_GROWTH) -> float:
    """Worst-case relative quantile error for a given bucket growth.

    A bucket spans ``[b, b * growth)``; reporting its geometric midpoint
    ``b * sqrt(growth)`` puts every in-range sample within a factor
    ``sqrt(growth)`` of the reported value.

    >>> round(quantile_error_bound(1.02), 4)
    0.01
    """
    return round(math.sqrt(growth) - 1.0, 10)


class LogHistogram:
    """Histogram over positive float samples, fixed memory.

    >>> h = LogHistogram()
    >>> for v in (0.5, 1.0, 2.0, 4.0):
    ...     h.record(v)
    >>> h.count, round(h.mean(), 10), h.min, h.max
    (4, 1.875, 0.5, 4.0)
    >>> abs(h.quantile(0.5) / 1.0 - 1.0) <= h.relative_error
    True
    """

    __slots__ = (
        "lo", "hi", "growth", "counts", "count",
        "min", "max", "_sum", "_sum_c", "_sum_sq", "_sum_sq_c",
        "_log_lo", "_inv_log_growth", "_n_buckets", "_sqrt_growth",
    )

    def __init__(
        self, lo: float = 1e-6, hi: float = 1e5, growth: float = DEFAULT_GROWTH
    ) -> None:
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1")
        self.lo = lo
        self.hi = hi
        self.growth = growth
        self._log_lo = math.log(lo)
        self._inv_log_growth = 1.0 / math.log(growth)
        self._sqrt_growth = math.sqrt(growth)
        self._n_buckets = max(1, math.ceil((math.log(hi) - self._log_lo) * self._inv_log_growth))
        self.counts = np.zeros(self._n_buckets, dtype=np.int64)
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        # Neumaier-compensated running sums (value and value²)
        self._sum = 0.0
        self._sum_c = 0.0
        self._sum_sq = 0.0
        self._sum_sq_c = 0.0

    # ------------------------------------------------------------------
    def _bucket(self, value: float) -> int:
        if value < self.lo:
            return 0
        i = int((math.log(value) - self._log_lo) * self._inv_log_growth)
        last = self._n_buckets - 1
        return last if i > last else i

    def record(self, value: float) -> None:
        """Fold one sample in (O(1), no allocation)."""
        self.counts[self._bucket(value)] += 1
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Neumaier: the compensation term recovers what the naive
        # accumulator drops when |sum| and |value| differ in magnitude
        s = self._sum
        t = s + value
        self._sum_c += (s - t) + value if abs(s) >= abs(value) else (value - t) + s
        self._sum = t
        sq = value * value
        s = self._sum_sq
        t = s + sq
        self._sum_sq_c += (s - t) + sq if abs(s) >= abs(sq) else (sq - t) + s
        self._sum_sq = t

    def record_many(self, values) -> None:
        """Fold an iterable of samples (convenience; loops :meth:`record`)."""
        for v in values:
            self.record(v)

    # ------------------------------------------------------------------
    @property
    def sum(self) -> float:
        return self._sum + self._sum_c

    @property
    def relative_error(self) -> float:
        """Documented worst-case relative quantile error."""
        return quantile_error_bound(self.growth)

    def mean(self) -> float:
        if not self.count:
            raise ValueError("empty histogram")
        return self.sum / self.count

    def variance(self) -> float:
        """Population variance (ddof=0), from the compensated moments."""
        if not self.count:
            raise ValueError("empty histogram")
        m = self.mean()
        # guard the subtraction: float cancellation can dip epsilon-negative
        return max((self._sum_sq + self._sum_sq_c) / self.count - m * m, 0.0)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]); see the accuracy contract.

        Matches NumPy's ``percentile`` convention at the resolution of one
        bucket: the returned bucket is the one holding the sample at rank
        ``q * (count - 1)``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            raise ValueError("empty histogram")
        if self.count == 1 or q == 0.0:
            return self.min if q == 0.0 else (self.max if q == 1.0 else self._mid_of_rank(q))
        if q == 1.0:
            return self.max
        return self._mid_of_rank(q)

    def _mid_of_rank(self, q: float) -> float:
        rank = q * (self.count - 1)
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, math.floor(rank) + 1))
        # geometric midpoint of bucket i, clamped to the observed range
        mid = self.lo * self.growth**i * self._sqrt_growth
        return min(max(mid, self.min), self.max)

    def percentile(self, p: float) -> float:
        """NumPy-flavoured alias: ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    # ------------------------------------------------------------------
    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram of the identical geometry into this one."""
        if (other.lo, other.hi, other.growth) != (self.lo, self.hi, self.growth):
            raise ValueError("cannot merge histograms with different geometry")
        self.counts += other.counts
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._sum += other._sum + other._sum_c
        self._sum_sq += other._sum_sq + other._sum_sq_c

    def nbytes(self) -> int:
        """Fixed memory footprint of the bucket array."""
        return int(self.counts.nbytes)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LogHistogram n={self.count} buckets={self._n_buckets} "
            f"range=[{self.lo}, {self.hi}) growth={self.growth}>"
        )
