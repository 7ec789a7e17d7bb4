"""On-disk result store for the sweep orchestrator.

Layout (everything under one *store root* directory)::

    <root>/
      store.meta.json          # {"store": ..., "code_fingerprint": ...}
      cells/<cell_id>.json     # one finished cell per file

Opening a directory whose ``store.meta.json`` is not a sweep store's, or
whose recorded ``code_fingerprint`` does not match the running sources,
raises :class:`StoreVersionError` and creates nothing: cell IDs hash
configuration only, so without the fingerprint a store left over from
other code would silently serve stale results.

Each cell file is self-describing: the cell's canonical configuration
payload (the same dict its content-hash ID was derived from), the full
:class:`~repro.metrics.summary.RunSummary` and the per-architecture
breakdown.  Files are written to a temporary name and atomically renamed
into place, so a sweep killed mid-write never leaves a torn cell behind —
whatever is in ``cells/`` is complete and trustworthy, which is what makes
``--resume`` a pure set-difference over cell IDs.

Serialization is deterministic (``sort_keys=True``, ``repr``-faithful
floats), so re-serializing an unchanged result is byte-identical — the
property the sweep determinism tests (workers=1 vs. workers=N) assert.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from ..metrics.summary import RunSummary

__all__ = [
    "CellResult",
    "ResultStore",
    "StoreVersionError",
    "source_fingerprint",
]

_META_NAME = "store.meta.json"
_CELLS_DIR = "cells"
_STORE_KIND = "repro-sweep-results"


class StoreVersionError(RuntimeError):
    """The directory is not a sweep result store, or its results were
    written by a different version of the code (see
    :func:`source_fingerprint`)."""


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` package sources.

    Cell IDs hash *configuration* only: results are assumed to be
    deterministic functions of their config, which stops being true the
    moment the simulator or scheduler changes.  The store folds this
    fingerprint into its metadata so resuming against a store written by
    an older checkout is **detected** (a :class:`StoreVersionError`)
    instead of silently serving stale figures.

    The hash covers every ``.py`` file under the package root, keyed by
    relative path, so it is stable across machines and working
    directories for identical sources.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CellResult:
    """Everything the sweep persists for one finished experiment cell."""

    cell_id: str
    #: canonical configuration payload the cell ID hashes (experiment +
    #: trace configs) — self-describing on disk
    config: dict
    summary: RunSummary
    #: :func:`~repro.metrics.summary.per_architecture_breakdown` output
    per_architecture: dict
    #: wall-clock seconds the cell took to execute (provenance only; it is
    #: excluded from merged figure data so cached and fresh runs merge
    #: byte-identically)
    wall_s: float = 0.0

    def to_payload(self) -> dict:
        """JSON-ready dict (the exact on-disk cell-file content)."""
        return {
            "cell_id": self.cell_id,
            "config": self.config,
            "summary": asdict(self.summary),
            "per_architecture": self.per_architecture,
            "wall_s": self.wall_s,
        }

    @staticmethod
    def from_payload(payload: dict) -> "CellResult":
        return CellResult(
            cell_id=payload["cell_id"],
            config=payload["config"],
            summary=RunSummary(**payload["summary"]),
            per_architecture=payload["per_architecture"],
            wall_s=float(payload.get("wall_s", 0.0)),
        )


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class ResultStore:
    """Directory of finished sweep cells keyed by content-hash cell ID."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._cells = self.root / _CELLS_DIR
        meta_path = self.root / _META_NAME
        fingerprint = source_fingerprint()
        if meta_path.exists():
            # validate before creating anything: a rejected directory is
            # left exactly as it was found
            meta = json.loads(meta_path.read_text())
            if meta.get("store") != _STORE_KIND:
                raise StoreVersionError(f"{self.root} is not a sweep result store")
            if meta.get("code_fingerprint") != fingerprint:
                # cell IDs hash config, not code: results from other
                # sources would be silently reused otherwise
                raise StoreVersionError(
                    f"{self.root} was written by a different code version "
                    f"(fingerprint {meta.get('code_fingerprint')!r} != current "
                    f"{fingerprint!r}); sweep results are functions of the "
                    "code too — use a fresh --store directory"
                )
        self._cells.mkdir(parents=True, exist_ok=True)
        if not meta_path.exists():
            self._atomic_write(
                meta_path,
                _dumps({"store": _STORE_KIND, "code_fingerprint": fingerprint}),
            )

    # ------------------------------------------------------------------
    def path(self, cell_id: str) -> Path:
        return self._cells / f"{cell_id}.json"

    def __contains__(self, cell_id: str) -> bool:
        return self.path(cell_id).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._cells.glob("*.json"))

    def cell_ids(self) -> list[str]:
        """IDs of every finished cell, sorted (the merge order)."""
        return sorted(p.stem for p in self._cells.glob("*.json"))

    # ------------------------------------------------------------------
    def get(self, cell_id: str) -> CellResult | None:
        path = self.path(cell_id)
        if not path.exists():
            return None
        return CellResult.from_payload(json.loads(path.read_text()))

    def put(self, result: CellResult) -> Path:
        """Persist one cell atomically (tmp file + rename)."""
        path = self.path(result.cell_id)
        self._atomic_write(path, _dumps(result.to_payload()))
        return path

    # ------------------------------------------------------------------
    def _atomic_write(self, path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
