"""Golden CLI ledger: the SHA-256 of what the experiments CLI prints.

``stdout.json`` beside this file maps each command below to the digest of
its standard output, run as a subprocess under ``PYTHONHASHSEED=0``:

- ``all``: every paper table and figure;
- ``explain 42 --requests 2000``: one request's decision chain.

Together with ``decisions.json`` this makes "decisions unchanged" one
check: ``pytest tests/golden``.  A change that moves the printed figures
on purpose regenerates both files (``make golden``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).with_name("stdout.json")
SRC = Path(__file__).resolve().parents[2] / "src"
#: ledger key -> argv after ``python -m repro.experiments``
COMMANDS = {
    "all": ["all"],
    "explain 42 --requests 2000": ["explain", "42", "--requests", "2000"],
}


def digest(command: str) -> str:
    """Run ``command`` through the experiments CLI and hash its stdout."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *COMMANDS[command]],
        env=env, capture_output=True, check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.fixture(scope="module")
def ledger() -> dict:
    return json.loads(LEDGER.read_text())


def test_ledger_names_every_command(ledger):
    assert sorted(ledger) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_prints_as_recorded(command, ledger):
    assert digest(command) == ledger[command], f"`{command}` prints differently"


def write() -> None:
    """Regenerate the ledger (``make golden``)."""
    ledger = {command: digest(command) for command in COMMANDS}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} commands to {LEDGER}", file=sys.stderr)


if __name__ == "__main__":
    write()
