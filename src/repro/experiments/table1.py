"""Table I: model occupation sizes, loading times, inference latencies.

Two modes:

* :func:`table1_from_paper` — the transcription used by the simulator.
* :func:`table1_wallclock` — runs the §IV-A profiling procedure for real on
  the miniature NumPy networks: measures forward passes across batch sizes,
  fits the regression, and derives load times from the PCIe model.  The
  absolute numbers differ from the paper (CPU NumPy vs. RTX 2080), but the
  per-model *ordering* of compute cost tracks the same family ordering.
"""

from __future__ import annotations

from ..models.nn.factory import build_model
from ..models.profiler import profile_network
from ..models.profiles import ModelProfile
from ..models.zoo import model_names, paper_profiles
from .report import format_table

__all__ = ["table1_from_paper", "table1_wallclock", "format_table1"]


def table1_from_paper() -> dict[str, ModelProfile]:
    """The 22 Table I profiles driving the simulation."""
    return paper_profiles()


def table1_wallclock(
    *, architectures: list[str] | None = None, batch_sizes: tuple[int, ...] = (1, 2, 4, 8)
) -> dict[str, ModelProfile]:
    """Re-run the profiling procedure on the NumPy networks (slow-ish);
    each batch size keeps the best of 5 timed runs, the estimator a busy
    machine disturbs least."""
    out: dict[str, ModelProfile] = {}
    for name in architectures or model_names():
        network = build_model(name)
        out[name] = profile_network(network, batch_sizes=batch_sizes, repeats=5).profile
    return out


def format_table1(profiles: dict[str, ModelProfile]) -> str:
    rows = [
        [p.name, round(p.occupied_mb, 1), round(p.load_time_s, 3), round(p.infer_time_s, 3)]
        for p in sorted(profiles.values(), key=lambda p: p.occupied_mb)
    ]
    return format_table(
        ["Model", "Size (MB)", "Loading time (s)", "Inference time (s)"], rows
    )
