"""Profiling procedure (paper §IV-A and §VI "Heterogeneity of GPUs").

"The latencies of uploading the model and running the inference are
collected by profiling each unique model on the GPUs in the system."  Two
profiling paths are provided:

* :func:`profile_network` — wall-clock profiling of a real (NumPy) network:
  time forward passes across batch sizes, fit the linear regression, and
  derive the load time from the model's memory footprint and a PCIe model.
* :class:`ProfileRegistry` — the registry the Scheduler and GPU Managers
  consult: ``(architecture, gpu_type) → ModelProfile``.  For heterogeneous
  clusters it derives per-type profiles from the baseline type using the
  type's speed/load factors, i.e. re-running the §IV-A procedure per type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.pcie import PCIeModel
from ..cluster.topology import GPUTypeSpec
from .profiles import BatchRegression, ModelProfile
from .zoo import paper_profiles

if TYPE_CHECKING:  # the registry needs no CNN engine; profile_network duck-types
    from .nn.network import Network

__all__ = ["profile_network", "ProfileRegistry", "WallClockProfile"]


@dataclass(frozen=True)
class WallClockProfile:
    """Raw wall-clock measurements from :func:`profile_network`."""

    profile: ModelProfile
    batch_sizes: tuple[int, ...]
    measured_s: tuple[float, ...]


def profile_network(
    network: Network,
    *,
    input_shape: tuple[int, int, int] = (3, 32, 32),
    batch_sizes: tuple[int, ...] = (1, 4, 8, 16, 32),
    repeats: int = 2,
    pcie: PCIeModel | None = None,
    gpu_type: str = "cpu-numpy",
    seed: int = 0,
) -> WallClockProfile:
    """Measure a real network's inference latency and fit its profile.

    This is the §IV-A procedure executed for real: run the model at several
    batch sizes, keep the best-of-``repeats`` time per batch (standard
    benchmarking practice — the minimum is the least noisy estimator), and
    fit the linear regression.  The load time comes from the model's memory
    footprint through the PCIe model.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(batch_sizes) < 2:
        raise ValueError("need at least two batch sizes for the regression")
    pcie = pcie or PCIeModel()
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    timings = []
    for b in sorted(batch_sizes):
        x = rng.standard_normal((b, c, h, w))
        network.forward(x[:1])  # warm-up: first call pays allocation costs
        best = min(_time_once(network, x) for _ in range(repeats))
        timings.append(best)
    sizes = tuple(sorted(batch_sizes))
    regression = BatchRegression.fit(list(sizes), timings)
    occupied = max(network.memory_mb(), 1e-3)
    profile = ModelProfile(
        name=network.name,
        occupied_mb=occupied,
        load_time_s=pcie.transfer_time(occupied),
        regression=regression,
        gpu_type=gpu_type,
    )
    return WallClockProfile(profile=profile, batch_sizes=sizes, measured_s=tuple(timings))


def _time_once(network: Network, x: np.ndarray) -> float:
    t0 = time.perf_counter()
    network.forward(x)
    return time.perf_counter() - t0


class ProfileRegistry:
    """Per-GPU-type model profiles used for finish-time estimation.

    The registry answers the only two questions the schedulers ask:
    "how long to load model m on GPU g?" and "how long to run a batch of
    model m on GPU g?".
    """

    def __init__(self) -> None:
        self._profiles: dict[tuple[str, str], ModelProfile] = {}

    def add(self, profile: ModelProfile) -> None:
        self._profiles[(profile.name, profile.gpu_type)] = profile

    def get(self, architecture: str, gpu_type: str) -> ModelProfile:
        try:
            return self._profiles[(architecture, gpu_type)]
        except KeyError:
            raise KeyError(
                f"no profile for {architecture!r} on GPU type {gpu_type!r}; "
                "run the profiling procedure for every unique GPU type (§VI)"
            ) from None

    def architectures(self) -> set[str]:
        return {a for a, _ in self._profiles}

    def gpu_types(self) -> set[str]:
        return {t for _, t in self._profiles}

    def __len__(self) -> int:
        return len(self._profiles)

    @staticmethod
    def from_table1(
        gpu_types: list[GPUTypeSpec] | None = None, *, baseline: str = "rtx2080"
    ) -> "ProfileRegistry":
        """Registry seeded with Table I, extended to each extra GPU type.

        For a type with ``speed_factor`` s, inference scales by s and
        loading scales by the ratio of PCIe transfer times, matching §VI:
        the same profiling procedure re-run per type.
        """
        reg = ProfileRegistry()
        base = paper_profiles(gpu_type=baseline)
        for p in base.values():
            reg.add(p)
        base_pcie = PCIeModel()
        for spec in gpu_types or []:
            if spec.name == baseline:
                continue
            for p in base.values():
                load_factor = spec.pcie.transfer_time(p.occupied_mb) / base_pcie.transfer_time(
                    p.occupied_mb
                )
                reg.add(p.on_gpu_type(spec.name, spec.speed_factor, load_factor))
        return reg
