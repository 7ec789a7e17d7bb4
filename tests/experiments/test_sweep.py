"""Sweep orchestrator: determinism, resume, failure recovery, store round-trip.

The contract under test:

* pooled execution is invisible in the results — workers=1 and workers=4
  produce **byte-identical** merged payloads and figure data;
* the result store makes sweeps resumable — an interrupted sweep re-executes
  only the missing cells and completes with identical output;
* a failed pool sweep stores its finished cells and raises one
  :class:`SweepError` naming the rest; re-running against the store
  executes only those;
* routing the §V consumers through the executor changed nothing: the
  workers=1 grid equals a direct ``run_experiment`` loop, summary for
  summary.
"""

import json
import multiprocessing
import os
import shutil
import time
from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec
from repro.experiments import (
    ExperimentConfig,
    ResultStore,
    SweepCell,
    SweepSpec,
    execute_cell,
    run_cells,
    run_experiment,
    run_policy_grid,
)
from repro.experiments.__main__ import main
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepError
from repro.traces import AzureTraceConfig, SyntheticAzureTrace

#: small but non-trivial: enough requests to produce hits and misses in
#: well under a second per cell
TRACE_CFG = AzureTraceConfig(num_functions=200, mean_rate_per_minute=1500, seed=17)
TRACE = SyntheticAzureTrace(TRACE_CFG)
BASE = ExperimentConfig(
    minutes=1, requests_per_minute=40, cluster=ClusterSpec.homogeneous(1, 3)
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _grid_cells(policies=("lb", "lalb", "lalbo3"), working_sets=(4, 6)):
    return [
        SweepCell(
            config=replace(BASE, policy=p, working_set=ws), trace=TRACE_CFG
        )
        for ws in working_sets
        for p in policies
    ]


class TestCellIdentity:
    def test_stable_and_content_addressed(self):
        a = SweepCell(config=replace(BASE, policy="lalb"), trace=TRACE_CFG)
        b = SweepCell(config=replace(BASE, policy="lalb"), trace=TRACE_CFG)
        assert a.cell_id == b.cell_id
        assert len(a.cell_id) == 16

    def test_any_config_drift_changes_the_id(self):
        base = SweepCell(config=BASE, trace=TRACE_CFG)
        assert SweepCell(config=replace(BASE, seed=1), trace=TRACE_CFG).cell_id != base.cell_id
        assert SweepCell(config=BASE, trace=AzureTraceConfig(seed=1)).cell_id != base.cell_id

    @pytest.mark.parametrize(
        "policies",
        [("lb", "lalbo3"), ("lalbo3", "lb", "lalb")],
        ids=["lb-first", "lalbo3-first"],
    )
    def test_spec_expansion_folds_o3_duplicates(self, policies):
        spec = SweepSpec(policies=policies, working_sets=(15,), o3_limits=(5, 25))
        cells = spec.cells()
        # only lalbo3 reads the O3 axis: one cell per other policy, pinned
        # to the first limit, and one lalbo3 cell per limit — whatever
        # position lalbo3 takes in its row
        assert len(cells) == len(policies) - 1 + 2
        assert len({c.cell_id for c in cells}) == len(cells)
        limits = sorted(c.config.o3_limit for c in cells if c.config.policy == "lalbo3")
        assert limits == [5, 25]
        assert all(
            c.config.o3_limit == 5 for c in cells if c.config.policy != "lalbo3"
        )


class TestStore:
    def test_cell_result_roundtrip(self, tmp_path):
        cell = SweepCell(config=replace(BASE, working_set=4), trace=TRACE_CFG)
        result = execute_cell(cell)
        store = ResultStore(tmp_path / "store")
        store.put(result)
        loaded = store.get(cell.cell_id)
        assert loaded is not None
        assert loaded.summary == result.summary
        assert loaded.per_architecture == result.per_architecture
        assert loaded.config == cell.canonical_payload()

    def test_reserialization_is_byte_identical(self, tmp_path):
        cell = SweepCell(config=replace(BASE, working_set=4), trace=TRACE_CFG)
        result = execute_cell(cell)
        store = ResultStore(tmp_path / "store")
        path = store.put(result)
        first = path.read_bytes()
        store.put(store.get(cell.cell_id))
        assert path.read_bytes() == first

    def test_version_guard(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        meta = root / "store.meta.json"
        meta.write_text(json.dumps({"store": "repro-sweep-results", "version": 99}))
        from repro.experiments.store import StoreVersionError

        with pytest.raises(StoreVersionError):
            ResultStore(root)

    @pytest.mark.parametrize(
        "meta, reason",
        [
            ({"store": "something-else"}, "not a sweep result store"),
            (
                {"store": "repro-sweep-results", "code_fingerprint": "0123456789abcdef"},
                "code version",
            ),
        ],
        ids=["foreign-store", "stale-fingerprint"],
    )
    def test_rejected_directory_is_left_untouched(self, tmp_path, meta, reason):
        """The meta file is validated before anything is created."""
        from repro.experiments.store import StoreVersionError

        root = tmp_path / "other"
        root.mkdir()
        (root / "store.meta.json").write_text(json.dumps(meta))
        before = sorted(p.name for p in root.iterdir())
        with pytest.raises(StoreVersionError, match=reason):
            ResultStore(root)
        assert sorted(p.name for p in root.iterdir()) == before

    def test_stale_code_fingerprint_is_detected(self, tmp_path):
        """Cell IDs hash config, not code: a store written by a different
        code version must be rejected instead of silently reused."""
        from repro.experiments.store import StoreVersionError, source_fingerprint

        root = tmp_path / "store"
        ResultStore(root)  # writes the current fingerprint
        ResultStore(root)  # same code: reopens fine
        meta = root / "store.meta.json"
        payload = json.loads(meta.read_text())
        assert payload["code_fingerprint"] == source_fingerprint()
        payload["code_fingerprint"] = "0123456789abcdef"  # an older checkout
        meta.write_text(json.dumps(payload))
        with pytest.raises(StoreVersionError, match="code version"):
            ResultStore(root)
        # a pre-fingerprint store (no field at all) is stale by definition
        del payload["code_fingerprint"]
        meta.write_text(json.dumps(payload))
        with pytest.raises(StoreVersionError, match="code version"):
            ResultStore(root)

    def test_source_fingerprint_is_stable_within_a_session(self):
        from repro.experiments.store import source_fingerprint

        a = source_fingerprint()
        assert a == source_fingerprint()
        assert len(a) == 16 and int(a, 16) >= 0


class TestExecutorParity:
    def test_execute_cell_matches_run_experiment(self):
        cfg = replace(BASE, policy="lalbo3", working_set=6)
        direct = run_experiment(cfg, trace=TRACE)
        via_cell = execute_cell(SweepCell(config=cfg, trace=TRACE_CFG))
        assert via_cell.summary == direct

    def test_policy_grid_matches_direct_loop(self):
        grid = run_policy_grid(
            (4, 6), ("lb", "lalb"), base=BASE, trace=TRACE
        )
        for (policy, ws), summary in grid.items():
            direct = run_experiment(
                replace(BASE, policy=policy, working_set=ws), trace=TRACE
            )
            assert summary == direct


class TestShardingDeterminism:
    def test_workers_1_vs_4_byte_identical(self, tmp_path):
        cells = _grid_cells()
        seq = run_cells(cells, workers=1, store=tmp_path / "seq")
        par = run_cells(cells, workers=4, store=tmp_path / "par")
        assert seq.merged_json() == par.merged_json()
        assert list(seq.cells) == sorted(c.cell_id for c in cells)
        # figure data (the summaries the fig tables read) identical too
        for cell in cells:
            assert seq.summary_for(cell) == par.summary_for(cell)
        assert par.stats.executed == len(cells)

    def test_interrupted_sweep_resumes_with_identical_output(self, tmp_path):
        cells = _grid_cells()
        full_store = tmp_path / "full"
        reference = run_cells(cells, workers=1, store=full_store)

        # an interrupted sweep == a store holding only the cells that
        # finished before the kill (writes are atomic, so nothing torn)
        partial_store = tmp_path / "partial"
        ResultStore(partial_store)
        survivors = sorted(c.cell_id for c in cells)[: len(cells) // 2]
        for cid in survivors:
            shutil.copy(
                ResultStore(full_store).path(cid), ResultStore(partial_store).path(cid)
            )
        resumed = run_cells(cells, workers=2, store=partial_store)
        assert resumed.stats.cache_hits == len(survivors)
        assert resumed.stats.executed == len(cells) - len(survivors)
        assert resumed.merged_json() == reference.merged_json()

    def test_fig5_grid_workers_parity_paper_scale(self, tmp_path):
        """The satellite's literal contract: workers=1 vs workers=4 over
        the fig-5 grid yield byte-identical merged summaries and figure
        data (paper-scale cells, ~2 s per run)."""
        from repro.experiments import format_fig5
        from repro.experiments.fig5 import run_fig5

        g1 = run_fig5(workers=1, store=tmp_path / "seq")
        g4 = run_fig5(workers=4, store=tmp_path / "par")
        assert g1 == g4
        assert format_fig5(g1) == format_fig5(g4)
        # the stored cells agree byte-for-byte modulo execution provenance
        seq, par = ResultStore(tmp_path / "seq"), ResultStore(tmp_path / "par")
        assert seq.cell_ids() == par.cell_ids()
        for cid in seq.cell_ids():
            a, b = seq.get(cid).to_payload(), par.get(cid).to_payload()
            a.pop("wall_s"), b.pop("wall_s")
            assert a == b

    def test_completed_sweep_resumes_without_executing(self, tmp_path):
        cells = _grid_cells(working_sets=(4,))
        store = tmp_path / "store"
        run_cells(cells, workers=1, store=store)
        again = run_cells(cells, workers=1, store=store)
        assert again.stats.executed == 0
        assert again.stats.cache_hits == len(cells)

    def test_pool_fans_cells_out_across_worker_processes(self, monkeypatch, tmp_path):
        """``workers > 1`` runs cells in child processes, more than one of
        them (a count of PIDs, not a wall-clock speedup)."""
        if not HAVE_FORK:
            pytest.skip("fault hook needs fork inheritance")
        cells = _grid_cells()

        def mark_pid(cell):
            (tmp_path / f"pid-{os.getpid()}").touch()
            time.sleep(0.2)  # hold the worker so its sibling takes the next cell

        monkeypatch.setattr(sweep_mod, "_FAULT_HOOK", mark_pid)
        result = run_cells(cells, workers=2)
        assert result.stats.executed == len(cells)
        pids = {int(p.name.removeprefix("pid-")) for p in tmp_path.glob("pid-*")}
        assert len(pids) >= 2, pids
        assert os.getpid() not in pids

    def test_no_resume_reexecutes(self, tmp_path):
        cells = _grid_cells(working_sets=(4,), policies=("lb",))
        store = tmp_path / "store"
        run_cells(cells, workers=1, store=store)
        again = run_cells(cells, workers=1, store=store, resume=False)
        assert again.stats.executed == len(cells)


class TestFailureRecovery:
    def test_failing_cell_raises_sweep_error_with_detail(self, monkeypatch, tmp_path):
        cells = _grid_cells(working_sets=(4,))

        def explode(cell):
            if cell.config.policy == "lalb":
                raise RuntimeError("injected failure")

        monkeypatch.setattr(sweep_mod, "_FAULT_HOOK", explode)
        if not HAVE_FORK:
            pytest.skip("fault hook needs fork inheritance")
        with pytest.raises(SweepError, match="injected failure"):
            run_cells(cells, workers=2, store=tmp_path / "s")
        # the healthy cells still landed in the store
        assert len(ResultStore(tmp_path / "s")) == len(cells) - 1

    def test_in_process_failure_propagates_unwrapped(self, monkeypatch, tmp_path):
        """workers=1 raises the cell's own exception (no SweepError), and
        the cells finished before it are already stored."""
        cells = _grid_cells(working_sets=(4,))
        real = sweep_mod.execute_cell

        def explode_on_last(cell):
            if cell is cells[-1]:
                raise ValueError("injected in-process failure")
            return real(cell)

        monkeypatch.setattr(sweep_mod, "execute_cell", explode_on_last)
        with pytest.raises(ValueError, match="injected in-process failure"):
            run_cells(cells, workers=1, store=tmp_path / "s")
        assert ResultStore(tmp_path / "s").cell_ids() == sorted(
            c.cell_id for c in cells[:-1]
        )

    def test_crashed_pool_is_recovered_by_rerunning_against_the_store(
        self, monkeypatch, tmp_path
    ):
        """A worker killed mid-sweep breaks the pool: nothing is retried,
        the finished cells are stored, and one SweepError names the rest.
        Re-running against the store executes exactly those and merges
        byte-identically with a clean sequential run."""
        if not HAVE_FORK:
            pytest.skip("fault hook needs fork inheritance")
        cells = _grid_cells(working_sets=(4,))
        store = tmp_path / "s"
        flag = tmp_path / "crash-once"
        flag.touch()

        def crash_once(cell):
            try:
                os.unlink(flag)  # atomic: only one worker wins the crash
            except FileNotFoundError:
                return
            os._exit(13)

        monkeypatch.setattr(sweep_mod, "_FAULT_HOOK", crash_once)
        with pytest.raises(SweepError, match="re-run against the same store") as err:
            run_cells(cells, workers=2, store=store)
        stored = ResultStore(store).cell_ids()
        assert len(stored) < len(cells)
        for cell in cells:
            if cell.cell_id not in stored:
                assert f"{cell.label()} [{cell.cell_id}]" in str(err.value)

        rerun = run_cells(cells, workers=2, store=store)
        assert rerun.stats.cache_hits == len(stored)
        assert rerun.stats.executed == len(cells) - rerun.stats.cache_hits
        assert rerun.merged_json() == run_cells(cells, workers=1).merged_json()


class TestRepeatExecution:
    def test_repeated_execution_is_identical(self):
        """A cell is a deterministic function of its config: executing it
        twice in one process (shared trace, fresh workload) gives the same
        result."""
        cell = SweepCell(config=replace(BASE, working_set=4), trace=TRACE_CFG)
        first = execute_cell(cell)
        second = execute_cell(cell)
        assert first.summary == second.summary
        assert first.per_architecture == second.per_architecture


class TestCli:
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
        # rejected at parse time, before fig7 runs a single cell
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
        ],
        ids=["request-id", "requests", "trace-out", "trace-out-profile", "no-id", "out-of-range"],
    )
    def test_an_argument_its_target_never_reads_is_an_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert message in err and out == ""
