"""GPU nodes: hosts that carry one or more GPU devices.

Mirrors the paper's testbed topology (§V-A.3): three servers, four
GeForce RTX 2080 each, one GPU Manager per node.  The node records the
"GPU address" the Scheduler ships with each dispatch — the server IP plus
the CUDA device name (§III-B).
"""

from __future__ import annotations

from ..sim import Simulator
from .gpu import GPUDevice

__all__ = ["GPUNode"]


class GPUNode:
    """A host machine with several GPUs."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        *,
        ip: str,
        num_gpus: int = 4,
        memory_mb: float = 7800.0,
        gpu_type: str = "rtx2080",
    ) -> None:
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        self.sim = sim
        self.node_id = node_id
        self.ip = ip
        self.gpus: list[GPUDevice] = [
            GPUDevice(
                sim,
                f"{node_id}/cuda:{i}",
                memory_mb=memory_mb,
                gpu_type=gpu_type,
                node_id=node_id,
            )
            for i in range(num_gpus)
        ]

    def gpu_address(self, gpu: GPUDevice) -> tuple[str, str]:
        """(server IP, CUDA device name) pair shipped with each dispatch."""
        if gpu.node_id != self.node_id:
            raise ValueError(f"{gpu.gpu_id} is not on node {self.node_id}")
        return (self.ip, gpu.gpu_id.split("/", 1)[1])

    def __iter__(self):
        return iter(self.gpus)

    def __len__(self) -> int:
        return len(self.gpus)
