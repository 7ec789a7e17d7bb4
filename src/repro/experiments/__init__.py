"""Experiment harness: regenerates every table and figure of §V."""

from .ablations import (
    build_belady_oracle,
    run_batch_size_sweep,
    run_belady_bound,
    run_cache_policy_ablation,
    run_gpu_scaling,
)
from .fig4 import format_fig4, headline_reductions, run_fig4
from .replay import GatewayReplay, replay, replay_through_gateway
from .fig5 import false_per_miss, format_fig5, run_fig5
from .fig6 import format_fig6, run_fig6
from .fig7 import PAPER_O3_LIMITS, format_fig7, run_fig7
from .report import format_reduction, format_table, reduction_pct
from .runner import (
    PAPER_POLICIES,
    ExperimentConfig,
    run_experiment,
    run_policy_grid,
    shared_trace,
)
from .store import CellResult, ResultStore
from .sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    execute_cell,
    run_cells,
    run_keyed_cells,
)
from .table1 import format_table1, table1_from_paper, table1_wallclock

__all__ = [
    "build_belady_oracle",
    "run_batch_size_sweep",
    "run_belady_bound",
    "run_cache_policy_ablation",
    "run_gpu_scaling",
    "GatewayReplay",
    "replay",
    "replay_through_gateway",
    "format_fig4",
    "headline_reductions",
    "run_fig4",
    "false_per_miss",
    "format_fig5",
    "run_fig5",
    "format_fig6",
    "run_fig6",
    "PAPER_O3_LIMITS",
    "format_fig7",
    "run_fig7",
    "format_reduction",
    "format_table",
    "reduction_pct",
    "PAPER_POLICIES",
    "ExperimentConfig",
    "run_experiment",
    "run_policy_grid",
    "shared_trace",
    "CellResult",
    "ResultStore",
    "SweepCell",
    "SweepResult",
    "SweepSpec",
    "execute_cell",
    "run_cells",
    "run_keyed_cells",
    "format_table1",
    "table1_from_paper",
    "table1_wallclock",
]
