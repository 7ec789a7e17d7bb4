"""Experiment harness: regenerates every table and figure of §V."""

from .. import _lazy_exports

_EXPORTS = {
    "build_belady_oracle": ".ablations",
    "run_batch_size_sweep": ".ablations",
    "run_belady_bound": ".ablations",
    "run_cache_policy_ablation": ".ablations",
    "run_gpu_scaling": ".ablations",
    "replay": ".replay",
    "format_fig4": ".fig4",
    "headline_reductions": ".fig4",
    "run_fig4": ".fig4",
    "false_per_miss": ".fig5",
    "format_fig5": ".fig5",
    "run_fig5": ".fig5",
    "format_fig6": ".fig6",
    "run_fig6": ".fig6",
    "PAPER_O3_LIMITS": ".fig7",
    "format_fig7": ".fig7",
    "run_fig7": ".fig7",
    "format_reduction": ".report",
    "format_table": ".report",
    "reduction_pct": ".report",
    "PAPER_POLICIES": ".runner",
    "ExperimentConfig": ".runner",
    "run_experiment": ".runner",
    "run_policy_grid": ".runner",
    "shared_trace": ".runner",
    "SweepSpec": ".runner",
    "format_table1": ".table1",
    "table1_from_paper": ".table1",
    "table1_wallclock": ".table1",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)

# ``replay`` names a submodule and the function it defines: bind the
# function now, or whichever imports ``repro.experiments.replay`` first
# would leave the module under this name
from .replay import replay  # noqa: E402
