"""Synthetic Azure Functions trace (substitute for Shahrad et al., ATC'20).

The paper evaluates against the public Microsoft Azure Functions 2019
trace: 14 daily files, one row per function, one column per minute, values
= invocations of that function in that minute (§V-A.1).  The trace itself
is not redistributable here, so this module generates a statistically
calibrated stand-in that preserves every property the paper's extraction
pipeline relies on:

* **shape**: ``days × 1440`` minutes × ``num_functions`` functions;
* **skew**: the top-15 functions together represent ≈56 % of the per-minute
  invocations — we calibrate a single Zipf exponent against exactly this
  anchor.  The paper also notes that functions below the top 15 each carry
  <0.01 %; a literal cliff at rank 16 would leave working-set ranks 16–35
  with essentially zero traffic after the 325-requests/minute
  normalization, contradicting the paper's own working-set-25/35
  experiments.  The calibrated Zipf reconciles both: the *far* tail
  (rank ≳ 600 of 46 k) satisfies the <0.01 % bound while ranks 16–35 stay
  realistically warm (interpretation recorded in DESIGN.md);
* **temporal structure**: per-minute totals follow a diurnal sinusoid with
  Poisson noise, and per-function counts are a multinomial draw from the
  popularity weights (function popularity is stable across minutes, as in
  the real trace's head).

The full matrix would be ~10⁹ cells, so reads are lazy: callers ask for the
counts of a chosen subset of functions over a range of minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AzureTraceConfig", "SyntheticAzureTrace", "calibrate_zipf_exponent"]

#: published skew anchors (paper §V-A.1)
PAPER_TOP_K = 15
PAPER_TOP_K_SHARE = 0.56
PAPER_NUM_FUNCTIONS = 46_413


def calibrate_zipf_exponent(
    num_functions: int = PAPER_NUM_FUNCTIONS,
    top_k: int = PAPER_TOP_K,
    top_share: float = PAPER_TOP_K_SHARE,
    *,
    tol: float = 1e-10,
) -> float:
    """Find the Zipf exponent s so the top-``top_k`` of ``num_functions``
    ranks carry ``top_share`` of the probability mass.

    The share is monotone in s, so bisection converges quickly.
    """
    if not 1 <= top_k < num_functions:
        raise ValueError("need 1 <= top_k < num_functions")
    if not 0.0 < top_share < 1.0:
        raise ValueError("top_share must be in (0, 1)")
    ranks = np.arange(1, num_functions + 1, dtype=float)

    def share(s: float) -> float:
        w = ranks**-s
        return float(w[:top_k].sum() / w.sum())

    lo, hi = 0.0, 4.0
    if share(hi) < top_share:
        raise ValueError("top_share unreachable with s <= 4")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if share(mid) < top_share:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AzureTraceConfig:
    """Shape and calibration knobs of the synthetic trace."""

    num_functions: int = PAPER_NUM_FUNCTIONS
    days: int = 14
    minutes_per_day: int = 1440
    #: mean invocations per minute across the whole platform
    mean_rate_per_minute: float = 50_000.0
    #: diurnal swing as a fraction of the mean (0 disables)
    diurnal_amplitude: float = 0.3
    top_k: int = PAPER_TOP_K
    top_k_share: float = PAPER_TOP_K_SHARE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_functions < 2 or self.days < 1 or self.minutes_per_day < 1:
            raise ValueError("invalid trace dimensions")
        if self.mean_rate_per_minute <= 0:
            raise ValueError("mean rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")

    @property
    def total_minutes(self) -> int:
        return self.days * self.minutes_per_day


class SyntheticAzureTrace:
    """Lazy, deterministic synthetic trace."""

    def __init__(self, config: AzureTraceConfig | None = None) -> None:
        self.config = config or AzureTraceConfig()
        cfg = self.config
        self.exponent = calibrate_zipf_exponent(
            cfg.num_functions, cfg.top_k, cfg.top_k_share
        )
        ranks = np.arange(1, cfg.num_functions + 1, dtype=float)
        weights = ranks**-self.exponent
        self.weights = weights / weights.sum()

    # ------------------------------------------------------------------
    def top_functions(self, k: int) -> list[str]:
        """The k most popular functions (the paper's working set, §V-A.1).

        Function ids are ``"fnNNNNN"`` by popularity rank (rank 0 =
        hottest), named only when asked for: the trace has tens of
        thousands, a working set reads a few dozen.
        """
        if not 1 <= k <= self.config.num_functions:
            raise ValueError(f"k must be in [1, {self.config.num_functions}]")
        return [f"fn{i:05d}" for i in range(k)]

    def share_of_top(self, k: int) -> float:
        """Fraction of all invocations going to the top-k functions."""
        return float(self.weights[:k].sum())

    def minute_rates(self, minutes: range) -> np.ndarray:
        """Diurnal Poisson rates for a whole minute range, in one shot.

        Column-oriented companion to :meth:`minute_total`: the sinusoid is
        evaluated over the minute vector with a single set of NumPy ops,
        producing bit-identical rates to the scalar path (same expression,
        same float64 arithmetic).
        """
        cfg = self.config
        m = np.arange(minutes.start, minutes.stop, minutes.step, dtype=np.int64)
        if len(m) and not (0 <= int(m.min()) and int(m.max()) < cfg.total_minutes):
            raise ValueError(f"minutes {minutes!r} outside trace of {cfg.total_minutes}")
        phase = 2.0 * np.pi * (m % cfg.minutes_per_day) / cfg.minutes_per_day
        return cfg.mean_rate_per_minute * (1.0 + cfg.diurnal_amplitude * np.sin(phase))

    def minute_total(self, minute: int, rng: np.random.Generator) -> int:
        """Poisson per-minute platform total with a diurnal profile."""
        cfg = self.config
        if not 0 <= minute < cfg.total_minutes:
            raise ValueError(f"minute {minute} outside trace of {cfg.total_minutes}")
        phase = 2.0 * np.pi * (minute % cfg.minutes_per_day) / cfg.minutes_per_day
        rate = cfg.mean_rate_per_minute * (1.0 + cfg.diurnal_amplitude * np.sin(phase))
        return int(rng.poisson(rate))

    def counts(self, function_ids: list[str], minutes: range) -> np.ndarray:
        """Invocation counts for a subset of functions over a minute range.

        Returns an ``(len(function_ids), len(minutes))`` integer array.  The
        subset's total per minute is a binomial thinning of the platform
        total; within the subset, counts are multinomial in the (re-scaled)
        popularity weights — exactly the distribution a dense generation
        followed by row selection would produce.

        The diurnal rate column is precomputed vectorized; only the three
        random draws stay per minute, because the per-minute child RNG is
        the documented reproducibility contract (any minute can be
        regenerated in isolation, and slicing a range must equal slicing
        the full matrix).
        """
        idx = [self._index(f) for f in function_ids]
        sub_w = self.weights[idx]
        sub_share = float(sub_w.sum())
        probs = sub_w / sub_share
        rates = self.minute_rates(minutes)
        out = np.zeros((len(idx), len(minutes)), dtype=np.int64)
        seed = self.config.seed
        for j, minute in enumerate(minutes):
            # per-minute child RNG keeps any minute reproducible in isolation
            m_rng = np.random.default_rng((seed, minute))
            total = int(m_rng.poisson(rates[j]))
            sub_total = m_rng.binomial(total, sub_share)
            out[:, j] = m_rng.multinomial(sub_total, probs)
        return out

    def _index(self, function_id: str) -> int:
        if not function_id.startswith("fn"):
            raise KeyError(f"unknown function id {function_id!r}")
        i = int(function_id[2:])
        if not 0 <= i < self.config.num_functions:
            raise KeyError(f"unknown function id {function_id!r}")
        return i
