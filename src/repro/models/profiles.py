"""Model performance profiles.

The Scheduler's finish-time estimates (§IV-A) rest on per-model profiles:

* **loading time** — depends only on the model size (PCIe transfer),
* **inference time** — depends on the model and the batch size, "which can
  be profiled using simple regression methods".

A :class:`ModelProfile` stores the profiled values for one model
architecture on one GPU type and exposes the linear batch-size regression
the paper describes.  :class:`ModelInstance` is the *cache item*: a deployed
function's private copy of a model (DESIGN.md §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModelProfile", "ModelInstance", "BatchRegression", "PAPER_BATCH_SIZE"]

#: The paper runs every inference with a fixed batch size of 32 (§V-A.1).
PAPER_BATCH_SIZE = 32


@dataclass(frozen=True)
class BatchRegression:
    """Linear inference-time model ``t(batch) = intercept + slope * batch``.

    A GPU executes small batches at nearly constant cost (kernel launch and
    memory traffic dominate) and large batches linearly, so an affine fit is
    the "simple regression" of §IV-A.
    """

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        if self.intercept < 0 or self.slope < 0:
            raise ValueError("regression coefficients must be non-negative")
        if self.intercept == 0 and self.slope == 0:
            raise ValueError("degenerate regression (always zero)")

    def time_for(self, batch_size: int) -> float:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return self.intercept + self.slope * batch_size

    @staticmethod
    def fit(batch_sizes: list[int], times_s: list[float]) -> "BatchRegression":
        """Least-squares fit over profiled (batch, latency) samples, with
        both coefficients non-negative."""
        x = np.asarray(batch_sizes, dtype=float)
        y = np.asarray(times_s, dtype=float)
        if x.size != y.size or x.size < 2:
            raise ValueError("need at least two profiled batch sizes")
        slope, intercept = np.polyfit(x, y, 1)
        if slope < 0 or intercept < 0:
            # the constrained optimum lies on a boundary: keep whichever
            # one-coefficient fit, flat or through the origin, errs less
            fits = [(max(y.mean(), 0.0), 0.0), (0.0, max(x @ y / (x @ x), 0.0))]
            intercept, slope = min(fits, key=lambda f: ((y - f[0] - f[1] * x) ** 2).sum())
        return BatchRegression(intercept=float(intercept), slope=float(slope))

    @staticmethod
    def from_anchor(
        time_at_anchor: float, anchor_batch: int = PAPER_BATCH_SIZE, fixed_fraction: float = 0.6
    ) -> "BatchRegression":
        """Build a regression from a single profiled point.

        Table I publishes only the batch-32 latency; we split it into a
        fixed part (``fixed_fraction``, kernel-launch/overhead dominated)
        and a batch-proportional part.  The split only matters for
        non-default batch sizes; at the anchor the regression reproduces the
        published number exactly.
        """
        if not 0.0 <= fixed_fraction <= 1.0:
            raise ValueError("fixed_fraction must be in [0, 1]")
        if time_at_anchor <= 0:
            raise ValueError("anchor time must be positive")
        intercept = time_at_anchor * fixed_fraction
        slope = time_at_anchor * (1.0 - fixed_fraction) / anchor_batch
        return BatchRegression(intercept=intercept, slope=slope)


@dataclass(frozen=True)
class ModelProfile:
    """Profiled characteristics of one model architecture on one GPU type.

    Attributes
    ----------
    name:
        Architecture name (Table I row, e.g. ``"resnet50"``).
    occupied_mb:
        GPU-memory occupation while serving with the fixed batch size of 32
        — weights *plus* activation head-room.  The Cache Manager uses this
        for replacement decisions "as the GPU would result in OOM if it
        exceeds the available memory" (§V-A.1).
    load_time_s:
        Host→GPU upload latency (process start + PCIe transfer).
    regression:
        Batch-size → inference-latency model.
    gpu_type:
        GPU the numbers were profiled on (§VI heterogeneity).
    """

    name: str
    occupied_mb: float
    load_time_s: float
    regression: BatchRegression
    gpu_type: str = "rtx2080"

    def __post_init__(self) -> None:
        if self.occupied_mb <= 0:
            raise ValueError("occupied_mb must be positive")
        if self.load_time_s <= 0:
            raise ValueError("load_time_s must be positive")

    @property
    def infer_time_s(self) -> float:
        """Inference latency at the paper's fixed batch size (32)."""
        return self.regression.time_for(PAPER_BATCH_SIZE)

    def infer_time(self, batch_size: int = PAPER_BATCH_SIZE) -> float:
        return self.regression.time_for(batch_size)

    def on_gpu_type(self, gpu_type: str, speed_factor: float, load_factor: float = 1.0) -> "ModelProfile":
        """Derive the profile for a different GPU type (§VI).

        ``speed_factor`` scales inference (SM-bound), ``load_factor`` scales
        loading (PCIe-bound); both <1 means faster.
        """
        if speed_factor <= 0 or load_factor <= 0:
            raise ValueError("factors must be positive")
        reg = BatchRegression(
            intercept=self.regression.intercept * speed_factor,
            slope=self.regression.slope * speed_factor,
        )
        return ModelProfile(
            name=self.name,
            occupied_mb=self.occupied_mb,
            load_time_s=self.load_time_s * load_factor,
            regression=reg,
            gpu_type=gpu_type,
        )


@dataclass(frozen=True)
class ModelInstance:
    """A deployed function's private model copy — the unit of caching.

    Two functions that share an architecture still have distinct instances
    (their own fine-tuned weights), so the cache working set equals the
    number of unique *functions*, matching §V-A.1's working-set sizes of
    15/25/35 against a 22-row model table.
    """

    instance_id: str
    profile: ModelProfile
    tenant: str = "default"
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def occupied_mb(self) -> float:
        return self.profile.occupied_mb

    @property
    def architecture(self) -> str:
        return self.profile.name
