"""Cluster construction helpers, including heterogeneous layouts (§VI)."""

from __future__ import annotations

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

    The devices keep these views exact themselves: every state change
    (``GPUDevice._set_state``) adjusts :attr:`idle_count` in line and
    re-files a GPU returning to idle.  :meth:`idle_gpus` and
    :meth:`idle_gpus_by_frequency` are plain filters, a fresh list per
    call.

    Dirty-signal layer (pass elision)
    --------------------------------
    The cluster publishes its **idle-set delta** directly:

    * :attr:`idle_count` is exact after every transition, so "is any GPU
      idle?" is one attribute load — the guard the scheduling engine
      consults before every would-be pass;
    * :attr:`by_frequency` holds *every* GPU in Alg. 1's use-frequency
      order, ``sorted(gpus, key=lambda g: (-g.completed_requests,
      g.gpu_id))``.  A GPU's completion count moves only just before it
      returns to idle (or through the ``completed_requests`` setter), and
      that is the only time it is re-filed — one insertion-sort step from
      its current rank.  Within a scheduling pass GPUs only *leave* the
      idle set, so the order is stable for the whole pass: the LALB pass
      walks it in place and skips the busy GPUs, with no idle list built
      per pass.
    """

    def __init__(self, sim: Simulator, nodes: list[GPUNode]) -> None:
        self.sim = sim
        self.nodes = nodes
        self.gpus: list[GPUDevice] = [g for node in nodes for g in node.gpus]
        self._by_id = {g.gpu_id: g for g in self.gpus}
        if len(self._by_id) != len(self.gpus):
            raise ValueError("duplicate GPU ids in cluster")
        #: number of currently idle GPUs (exact, O(1) to read)
        self.idle_count = sum(1 for g in self.gpus if g.is_idle)
        #: every GPU, most-used first (ties on gpu_id); the list object is
        #: stable and re-ordered in place — do not mutate it
        self.by_frequency: list[GPUDevice] = sorted(
            self.gpus, key=lambda g: (-g._completed_requests, g.gpu_id)
        )
        for rank, g in enumerate(self.by_frequency):
            g._cluster = self
            g._rank = rank
        self._last_rank = len(self.gpus) - 1

    def _refile(self, gpu: GPUDevice) -> None:
        """Move ``gpu`` to its rank in :attr:`by_frequency` after its
        completion count changed (every other GPU is already in place)."""
        order = self.by_frequency
        key = (-gpu._completed_requests, gpu.gpu_id)
        i = gpu._rank
        while i and (-(prev := order[i - 1])._completed_requests, prev.gpu_id) > key:
            order[i] = prev
            prev._rank = i
            i -= 1
        last = self._last_rank
        while i < last and (-(nxt := order[i + 1])._completed_requests, nxt.gpu_id) < key:
            order[i] = nxt
            nxt._rank = i
            i += 1
        order[i] = gpu
        gpu._rank = i

    def gpu(self, gpu_id: str) -> GPUDevice:
        return self._by_id[gpu_id]

    def idle_gpus(self) -> list[GPUDevice]:
        """Idle GPUs in device order (a fresh list each call)."""
        return [g for g in self.gpus if g.is_idle]

    def idle_gpus_by_frequency(self) -> list[GPUDevice]:
        """Idle GPUs, most-used first (Alg. 1's "sorted by frequency").

        Frequency is the number of requests the GPU has completed; ties
        break on gpu_id for determinism.  A fresh list each call, filtered
        from :attr:`by_frequency` (the LALB pass walks that order itself).
        """
        return [g for g in self.by_frequency if g.is_idle]

    def gpu_types(self) -> set[str]:
        return {g.gpu_type for g in self.gpus}

    def __len__(self) -> int:
        return len(self.gpus)

    def __iter__(self):
        return iter(self.gpus)


def build_cluster(sim: Simulator, spec: ClusterSpec = PAPER_TESTBED) -> Cluster:
    """Instantiate the nodes and devices described by ``spec``; node *i*
    is ``node{i}`` at IP ``10.0.0.{10 + i}``."""
    nodes = []
    for i, (num_gpus, t) in enumerate(spec.nodes):
        nodes.append(
            GPUNode(
                sim,
                f"node{i}",
                ip=f"10.0.0.{10 + i}",
                num_gpus=num_gpus,
                memory_mb=t.memory_mb,
                gpu_type=t.name,
            )
        )
    return Cluster(sim, nodes)
