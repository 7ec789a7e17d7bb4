"""Cluster construction helpers, including heterogeneous layouts (§VI)."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..sim import Simulator
from .gpu import GPUDevice
from .node import GPUNode
from .pcie import PCIeModel

__all__ = ["GPUTypeSpec", "ClusterSpec", "Cluster", "build_cluster", "PAPER_TESTBED"]


@dataclass(frozen=True)
class GPUTypeSpec:
    """Hardware characteristics of one GPU model.

    ``speed_factor`` scales inference times relative to the profiled
    baseline type (``<1`` is faster); the profiler consumes it when deriving
    per-type model profiles, exactly as §VI prescribes re-profiling on each
    unique GPU type.
    """

    name: str = "rtx2080"
    memory_mb: float = 7800.0
    pcie: PCIeModel = field(default_factory=PCIeModel)
    speed_factor: float = 1.0


@dataclass(frozen=True)
class ClusterSpec:
    """Topology: ``nodes[i]`` gives (number of GPUs, GPU type) for node ``i``."""

    nodes: tuple[tuple[int, GPUTypeSpec], ...]

    @staticmethod
    def homogeneous(num_nodes: int, gpus_per_node: int, gpu_type: GPUTypeSpec | None = None) -> "ClusterSpec":
        t = gpu_type or GPUTypeSpec()
        return ClusterSpec(tuple((gpus_per_node, t) for _ in range(num_nodes)))

    @property
    def total_gpus(self) -> int:
        return sum(n for n, _ in self.nodes)


#: The paper's testbed: 3 servers x 4 GeForce RTX 2080 (§V-A.3).
PAPER_TESTBED = ClusterSpec.homogeneous(3, 4)


class Cluster:
    """A set of GPU nodes plus flat views over their devices.

    The idle/busy views are maintained incrementally: every GPU notifies
    the cluster on a state or completion-count change (bumping
    :attr:`version`), and the device-ordered idle/busy lists are rebuilt
    lazily only when stale.  The schedulers' per-pass "any idle GPU?"
    probes therefore stop re-scanning every device.  Returned lists are
    cache snapshots — callers must not mutate them.

    Dirty-signal layer (pass elision)
    --------------------------------
    Beyond the lazily rebuilt views the cluster publishes its **idle-set
    delta** directly:

    * :attr:`idle_count` is maintained on every transition, so "is any
      GPU idle?" is one attribute load — the guard the scheduling engine
      consults before every would-be pass;
    * the frequency-ordered idle view (Alg. 1's "sorted by use
      frequency") is updated *incrementally*: a dispatch removes one GPU
      from the sorted list and a completion re-inserts one at its new
      frequency rank, replacing the old rebuild-and-sort on every state
      change.  The order is identical to
      ``sorted(idle, key=lambda g: (-g.completed_requests, g.gpu_id))``
      by construction: a GPU is re-filed on the rare occasions its key
      changes while listed (a completion bump landing after
      ``become_idle``), and its filed key makes removal exact.
    """

    def __init__(self, sim: Simulator, nodes: list[GPUNode]) -> None:
        self.sim = sim
        self.nodes = nodes
        self.gpus: list[GPUDevice] = [g for node in nodes for g in node.gpus]
        self._by_id = {g.gpu_id: g for g in self.gpus}
        if len(self._by_id) != len(self.gpus):
            raise ValueError("duplicate GPU ids in cluster")
        self._node_of = {g.gpu_id: node for node in nodes for g in node.gpus}
        #: monotone counter of GPU state/frequency changes; consumers key
        #: their own cached views off it (see idle_gpus/busy_gpus below)
        self.version = 0
        #: number of currently idle GPUs (exact, O(1) to read)
        self.idle_count = 0
        self._idle_version = -1
        self._idle_cache: list[GPUDevice] = []
        self._busy_version = -1
        self._busy_cache: list[GPUDevice] = []
        # frequency-ordered idle view: parallel (key, device) lists kept
        # sorted by (-completed_requests, gpu_id), plus the key each idle
        # GPU is filed under (doubles as the idle-membership record, and
        # stays exact when a completion count moves after insertion)
        self._freq_keys: list[tuple[int, str]] = []
        self._freq_gpus: list[GPUDevice] = []
        self._freq_key_of: dict[str, tuple[int, str]] = {}
        for g in self.gpus:
            g.on_change = self._on_gpu_change
            if g.is_idle:
                self._freq_insert(g)

    def _freq_insert(self, gpu: GPUDevice) -> None:
        key = (-gpu._completed_requests, gpu.gpu_id)
        i = bisect_left(self._freq_keys, key)
        self._freq_keys.insert(i, key)
        self._freq_gpus.insert(i, gpu)
        self._freq_key_of[gpu.gpu_id] = key
        self.idle_count += 1

    def _freq_remove(self, key: tuple[int, str]) -> None:
        # remove by the key the GPU was *filed* under: exact even when its
        # live completion count has moved on since insertion
        i = bisect_left(self._freq_keys, key)
        del self._freq_keys[i]
        del self._freq_gpus[i]
        self.idle_count -= 1

    def _on_gpu_change(self, gpu: GPUDevice) -> None:
        self.version += 1
        gpu_id = gpu.gpu_id
        filed = self._freq_key_of.get(gpu_id)
        if gpu.is_idle:
            if filed is None:
                self._freq_insert(gpu)
            elif filed[0] != -gpu._completed_requests:
                # frequency changed while idle (a completion bump landing
                # after become_idle): re-file at the new rank
                del self._freq_key_of[gpu_id]
                self._freq_remove(filed)
                self._freq_insert(gpu)
        elif filed is not None:
            del self._freq_key_of[gpu_id]
            self._freq_remove(filed)

    def gpu(self, gpu_id: str) -> GPUDevice:
        return self._by_id[gpu_id]

    def node_of(self, gpu_id: str) -> GPUNode:
        return self._node_of[gpu_id]

    def idle_gpus(self) -> list[GPUDevice]:
        if self._idle_version != self.version:
            self._idle_cache = [g for g in self.gpus if g.is_idle]
            self._idle_version = self.version
        return self._idle_cache

    def idle_gpus_by_frequency(self) -> list[GPUDevice]:
        """Idle GPUs, most-used first (Alg. 1's "sorted by frequency").

        Frequency is the number of requests the GPU has completed; ties
        break on gpu_id for determinism.  Maintained incrementally from
        the idle-set delta; each call returns a fresh snapshot *copy*
        because the scheduling passes dispatch (and so shrink the live
        view) while iterating it.
        """
        return self._freq_gpus.copy()

    def busy_gpus(self) -> list[GPUDevice]:
        if self._busy_version != self.version:
            self._busy_cache = [g for g in self.gpus if g.is_busy]
            self._busy_version = self.version
        return self._busy_cache

    def gpu_types(self) -> set[str]:
        return {g.gpu_type for g in self.gpus}

    def __len__(self) -> int:
        return len(self.gpus)

    def __iter__(self):
        return iter(self.gpus)


def build_cluster(sim: Simulator, spec: ClusterSpec = PAPER_TESTBED) -> Cluster:
    """Instantiate the nodes and devices described by ``spec``."""
    nodes = []
    for i, (num_gpus, t) in enumerate(spec.nodes):
        nodes.append(
            GPUNode(
                sim,
                f"node{i}",
                num_gpus=num_gpus,
                memory_mb=t.memory_mb,
                gpu_type=t.name,
                pcie=t.pcie,
            )
        )
    return Cluster(sim, nodes)
