"""The §V grid: spec expansion, the in-process loop, and the CLI's flags.

The contract under test:

* :meth:`SweepSpec.cells` folds duplicate configs — only lalbo3 reads the
  O3 axis — keeps every other distinct value on every axis, in expansion
  order, and refuses an empty axis;
* a grid is a plain loop: ``run_policy_grid``, ``run_fig7``, the two
  grid-shaped ablations and the ``sweep`` loop each equal a direct
  ``run_experiment`` loop, summary for summary, and running one config
  twice in one process gives the same summary;
* the ``sweep`` target prints one row per distinct config, and every
  target rejects an argument it never reads.
"""

from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import (
    ExperimentConfig,
    SweepSpec,
    run_experiment,
    run_policy_grid,
)
from repro.experiments.__main__ import main
from repro.experiments.ablations import run_cache_policy_ablation, run_gpu_scaling
from repro.experiments.fig7 import run_fig7
from repro.traces import AzureTraceConfig, SyntheticAzureTrace

#: small but non-trivial: enough requests to produce hits and misses in
#: well under a second per config
TRACE = SyntheticAzureTrace(
    AzureTraceConfig(num_functions=200, mean_rate_per_minute=1500, seed=17)
)
BASE = ExperimentConfig(
    minutes=1, requests_per_minute=40, cluster=ClusterSpec.homogeneous(1, 3)
)


class TestSpec:
    @pytest.mark.parametrize(
        "policies",
        [("lb", "lalbo3"), ("lalbo3", "lb", "lalb")],
        ids=["lb-first", "lalbo3-first"],
    )
    def test_spec_expansion_folds_o3_duplicates(self, policies):
        spec = SweepSpec(policies=policies, working_sets=(15,), o3_limits=(5, 25))
        cells = spec.cells()
        # only lalbo3 reads the O3 axis: one config per other policy, pinned
        # to the first limit, and one lalbo3 config per limit — whatever
        # position lalbo3 takes in its row
        assert len(cells) == len(policies) - 1 + 2
        assert len(set(cells)) == len(cells)
        limits = sorted(c.o3_limit for c in cells if c.policy == "lalbo3")
        assert limits == [5, 25]
        assert all(c.o3_limit == 5 for c in cells if c.policy != "lalbo3")

    def test_equal_configs_fold_to_one(self):
        # configs are frozen and hashable: an axis that names a value twice
        # expands to one config per distinct value
        assert replace(BASE, policy="lalb") == replace(BASE, policy="lalb")
        assert hash(replace(BASE, policy="lalb")) == hash(replace(BASE, policy="lalb"))
        spec = SweepSpec(policies=("lb", "lb"), working_sets=(15, 15), seeds=(0, 0))
        assert [(c.policy, c.working_set, c.seed) for c in spec.cells()] == [("lb", 15, 0)]

    @pytest.mark.parametrize(
        "axis, values, field",
        [
            ("policies", ("lb", "lalb"), "policy"),
            ("working_sets", (15, 25), "working_set"),
            ("o3_limits", (5, 25), "o3_limit"),
            ("replacements", ("lru", "fifo"), "replacement"),
            ("seeds", (0, 1), "seed"),
            ("slas", (None, 5.0), "sla_s"),
            ("fault_profiles", ("none", "recoverable"), "fault_profile"),
        ],
    )
    def test_any_axis_drift_is_a_distinct_config(self, axis, values, field):
        """Two values on one axis give two configs that differ in that
        field only (lalbo3, the one policy that reads every axis)."""
        spec = SweepSpec(**{"policies": ("lalbo3",), "working_sets": (15,), axis: values})
        cells = spec.cells()
        assert [getattr(c, field) for c in cells] == list(values)
        assert replace(cells[0], **{field: values[1]}) == cells[1]

    def test_expansion_order_is_seed_outermost_policy_innermost(self):
        spec = SweepSpec(
            policies=("lb", "lalbo3"), working_sets=(15, 25), o3_limits=(5, 25),
            seeds=(0, 1),
        )
        keys = [(c.seed, c.working_set, c.o3_limit, c.policy) for c in spec.cells()]
        assert keys == [
            (seed, ws, o3, policy)
            for seed in (0, 1)
            for ws in (15, 25)
            for o3 in (5, 25)
            for policy in ("lb", "lalbo3")
            if policy == "lalbo3" or o3 == 5
        ]

    def test_cells_carry_the_spec_scale(self):
        spec = SweepSpec(
            minutes=BASE.minutes,
            requests_per_minute=BASE.requests_per_minute,
            cluster=BASE.cluster,
        )
        for c in spec.cells():
            assert (c.minutes, c.requests_per_minute, c.cluster) == (
                BASE.minutes, BASE.requests_per_minute, BASE.cluster
            )

    @pytest.mark.parametrize(
        "axis",
        [
            "policies", "working_sets", "o3_limits", "replacements", "seeds",
            "slas", "fault_profiles",
        ],
    )
    def test_empty_axis_is_rejected(self, axis):
        with pytest.raises(ValueError, match=f"sweep axis '{axis}' is empty"):
            SweepSpec(**{axis: ()})


class TestLoop:
    def test_policy_grid_matches_direct_loop(self):
        grid = run_policy_grid((4, 6), ("lb", "lalb"), base=BASE, trace=TRACE)
        assert list(grid) == [("lb", 4), ("lalb", 4), ("lb", 6), ("lalb", 6)]
        for (policy, ws), summary in grid.items():
            direct = run_experiment(
                replace(BASE, policy=policy, working_set=ws), trace=TRACE
            )
            assert summary == direct

    def test_repeated_execution_is_identical(self):
        """A config is a deterministic function of itself: running it twice
        in one process (shared trace, fresh workload) gives the same
        summary."""
        config = replace(BASE, working_set=4)
        assert run_experiment(config, trace=TRACE) == run_experiment(config, trace=TRACE)

    def test_spec_loop_matches_policy_grid(self):
        """The ``sweep`` target's loop over :meth:`SweepSpec.cells` and the
        figures' :func:`run_policy_grid` run the same configs."""
        spec = SweepSpec(
            policies=("lb", "lalbo3"), working_sets=(4, 6),
            minutes=BASE.minutes, requests_per_minute=BASE.requests_per_minute,
            cluster=BASE.cluster,
        )
        grid = run_policy_grid((4, 6), ("lb", "lalbo3"), base=BASE, trace=TRACE)
        assert {
            (c.policy, c.working_set): run_experiment(c, trace=TRACE)
            for c in spec.cells()
        } == grid

    def test_fig7_matches_direct_loop(self):
        results = run_fig7((0, 15), working_set=4, base=BASE, trace=TRACE)
        assert list(results) == [0, 15]
        for limit, summary in results.items():
            direct = run_experiment(
                replace(BASE, policy="lalbo3", working_set=4, o3_limit=limit),
                trace=TRACE,
            )
            assert summary == direct

    def test_cache_policy_ablation_matches_direct_loop(self):
        results = run_cache_policy_ablation(("lru", "lfu"), working_set=4, trace=TRACE)
        assert list(results) == ["lru", "lfu"]
        for rp, summary in results.items():
            direct = run_experiment(
                ExperimentConfig(policy="lalbo3", working_set=4, replacement=rp),
                trace=TRACE,
            )
            assert summary == direct

    def test_gpu_scaling_matches_direct_loop(self):
        results = run_gpu_scaling(((1, 2), (2, 2)), working_set=4, trace=TRACE)
        assert list(results) == [2, 4]
        for (nodes, per_node), summary in zip(((1, 2), (2, 2)), results.values()):
            direct = run_experiment(
                ExperimentConfig(
                    policy="lalbo3", working_set=4,
                    cluster=ClusterSpec.homogeneous(nodes, per_node),
                ),
                trace=TRACE,
            )
            assert summary == direct


class TestCli:
    def test_sweep_prints_one_row_per_distinct_config(self, capsys):
        assert main([
            "sweep", "--minutes", "1", "--requests-per-minute", "40",
            "--policies", "lb", "lalbo3", "--working-sets", "15",
            "--o3-limits", "5", "25",
        ]) == 0
        table, footer = capsys.readouterr().out.strip().split("\n\n")
        rows = [line.split()[0] for line in table.splitlines()[2:]]
        assert rows == [
            "lb/lru/ws15/seed0",
            "lalbo3(limit=5)/lru/ws15/seed0",
            "lalbo3(limit=25)/lru/ws15/seed0",
        ]
        assert footer.startswith("3 cells (")

    def test_sweep_seed_flag_is_the_seed_axis(self, capsys):
        assert main([
            "sweep", "--minutes", "1", "--requests-per-minute", "40",
            "--policies", "lb", "--working-sets", "15", "--seed", "3",
        ]) == 0
        table, footer = capsys.readouterr().out.strip().split("\n\n")
        assert [line.split()[0] for line in table.splitlines()[2:]] == ["lb/lru/ws15/seed3"]
        assert footer.startswith("1 cells (")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--policies", "lb"),
            ("--working-sets", "15"),
            ("--o3-limits", "5"),
            ("--replacements", "lru"),
            ("--seeds", "1"),
            ("--fault-profiles", "none"),
            ("--minutes", "1"),
            ("--requests-per-minute", "40"),
        ],
    )
    def test_sweep_axis_flag_on_another_target_is_an_error(self, capsys, flag, value):
        # rejected at parse time, before fig7 runs a single config
        with pytest.raises(SystemExit) as exc:
            main(["fig7", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "42"], "a request ID applies only to explain"),
            (["fig4", "--requests", "50"], "--requests applies only to"),
            (["table1", "--trace-out", "t.json"], "--trace-out applies only to trace"),
            (["profile", "--trace-out", "t.json"], "--trace-out applies only to trace"),
            (["explain"], "explain needs a request ID"),
            (["explain", "0", "--requests", "300"], "request 0 out of range"),
            (["table1", "--workers", "2"], "--workers"),
            (["explain", "42", "--store", "d"], "--store"),
            (["fig7", "--no-resume"], "--no-resume"),
            (["fig4", "--resume"], "--resume"),
            (["sweep", "--workers", "2"], "--workers"),
            (["all", "--store", "d"], "--store"),
            (["ablations", "--workers", "1"], "--workers"),
        ],
        ids=[
            "request-id", "requests", "trace-out", "trace-out-profile", "no-id",
            "out-of-range", "workers", "store", "no-resume", "resume",
            "workers-sweep", "store-all", "workers-ablations",
        ],
    )
    def test_an_argument_its_target_never_reads_is_an_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""
