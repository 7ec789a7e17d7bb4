"""Golden decision ledger: every cell's decisions, pinned across commits.

A cell is one 6-minute §V-A replay (seed 0) under one policy, working
set, fault profile and quota.  The ledger (``decisions.json`` beside this
file) records, per cell:

- ``decisions``: the SHA-256 of the whole decision log;
- ``chain``: one hash-chain link per :data:`WINDOW` decisions (link *i*
  hashes link *i - 1* and the window's rows), so a failure names the
  first window that diverged;
- ``kv``: the SHA-256 of the final live KV image (key, value in key
  order);
- ``summary``: the :class:`~repro.metrics.RunSummary` as JSON.

A change that should not move a decision passes unchanged; one that
moves decisions on purpose regenerates the file (``make golden``) and
shows the moved cells in its diff.  Every digest is independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.core import TenantQuota
from repro.experiments.replay import replay
from repro.runtime import SystemConfig
from repro.traces.workload import WorkloadSpec, build_workload

LEDGER = Path(__file__).with_name("decisions.json")
POLICIES = ("lb", "lalb", "lalbo3", "locality")
WORKING_SETS = (15, 35)
FAULT_PROFILES = ("none", "recoverable", "severe")
#: a cap of 20 binds for every policy at both working sets
QUOTAS = {"free": {}, "cap20": {"default": TenantQuota(max_processes=20)}}
#: decisions per hash-chain link
WINDOW = 256

#: cell name -> (policy, working set, fault profile, quota name)
CELLS = {
    f"{policy}/ws{ws}/{faults}/{quota}": (policy, ws, faults, quota)
    for policy, ws, faults, quota in itertools.product(
        POLICIES, WORKING_SETS, FAULT_PROFILES, QUOTAS
    )
}


def _sha(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(row)).encode())
    return h.hexdigest()


def build_workloads() -> dict:
    """The §V-A workload of each working set, built once: a replay
    detaches the request objects it ran, so one build serves every cell."""
    return {ws: build_workload(WorkloadSpec(working_set=ws, seed=0)) for ws in WORKING_SETS}


def derive(cell: str, workloads: dict) -> dict:
    """Replay ``cell`` and return its ledger entry."""
    policy, ws, faults, quota = CELLS[cell]
    config = SystemConfig(policy=policy, fault_profile=faults, quotas=QUOTAS[quota])
    summary, system = replay(config, workloads[ws])
    rows = list(system.scheduler.decisions)
    chain, link = [], ""
    for start in range(0, len(rows), WINDOW):
        link = hashlib.sha256((link + _sha(rows[start : start + WINDOW])).encode()).hexdigest()
        chain.append(link)
    kv = system.datastore.kv
    return {
        "decisions": _sha(rows),
        "chain": chain,
        "kv": _sha((item.key, item.value) for item in kv.items()),
        "summary": json.dumps(dataclasses.asdict(summary), sort_keys=True),
    }


@pytest.fixture(scope="module")
def workloads() -> dict:
    return build_workloads()


@pytest.fixture(scope="module")
def ledger() -> dict:
    return json.loads(LEDGER.read_text())


def test_ledger_names_every_cell(ledger):
    assert sorted(ledger) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_cell_decides_as_recorded(cell, workloads, ledger):
    got, want = derive(cell, workloads), ledger[cell]
    if got["decisions"] != want["decisions"]:
        first = next(
            (i for i, (a, b) in enumerate(zip(got["chain"], want["chain"])) if a != b),
            min(len(got["chain"]), len(want["chain"])),
        )
        pytest.fail(
            f"{cell}: decisions diverge in window {first} "
            f"(decisions {first * WINDOW}..{(first + 1) * WINDOW - 1}); "
            f"{len(got['chain'])} windows now, {len(want['chain'])} recorded"
        )
    assert got["chain"] == want["chain"], cell
    assert got["kv"] == want["kv"], f"{cell}: final KV image differs"
    assert got["summary"] == want["summary"], f"{cell}: run summary differs"


def write() -> None:
    """Regenerate the ledger (``make golden``)."""
    workloads = build_workloads()
    ledger = {cell: derive(cell, workloads) for cell in CELLS}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} cells to {LEDGER}", file=sys.stderr)


if __name__ == "__main__":
    write()
