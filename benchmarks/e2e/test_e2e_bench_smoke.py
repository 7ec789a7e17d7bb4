"""Tier-1 smoke test of the reference benchmark (``benchmarks/e2e/run.py``).

Replays ~2k requests per workload, once untraced and once traced, and
checks that what the benchmark prints is what ``BENCHMARK.json`` declares.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# "  <name>  <number> <unit> ..." — a metric line of either table
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[0-9][0-9.e+-]*) (\S+)")


def run_bench(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def printed_metrics(stdout: str) -> dict[str, dict[str, tuple[float, str]]]:
    """workload -> {metric name: (value, unit)} from the printed tables."""
    tables: dict[str, dict[str, tuple[float, str]]] = {}
    current = None
    for line in stdout.splitlines():
        header = re.match(r"^(?:==|--) (\S+):", line)
        if header:
            current = tables.setdefault(header.group(1), {})
            continue
        metric = METRIC_LINE.match(line)
        if metric and current is not None:
            current[metric.group(1)] = (float(metric.group(2)), metric.group(3))
    return tables


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke() -> dict:
    return printed_metrics(run_bench("--traced"))


def test_declaration_is_within_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 <= m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_declared_metric_is_printed_for_every_workload(declared, smoke):
    wanted = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert set(smoke) == {w["name"] for w in declared["workloads"]}
    for workload, table in smoke.items():
        assert {n: unit for n, (_, unit) in table.items()} == wanted, workload


def test_another_seed_changes_the_inputs_not_the_schema(smoke):
    other = printed_metrics(run_bench("--workload", "ws15_steady", "--seed", "1"))["ws15_steady"]
    base = smoke["ws15_steady"]
    assert set(other) == {n for n in base if "." not in n}  # the end-to-end table
    assert other["sim_sm_utilization"][0] != base["sim_sm_utilization"][0]
