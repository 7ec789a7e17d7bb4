"""Simulated GPU cluster substrate: devices, nodes, PCIe.

A :class:`GPUDevice` owns all of one GPU's state — its resident models
(one GPU process each), its busy/idle state and its per-state time.
"""

from .gpu import GPUDevice, GPUMemoryError, GPUState
from .node import GPUNode
from .pcie import PCIeModel, fit_pcie_model
from .topology import PAPER_TESTBED, Cluster, ClusterSpec, GPUTypeSpec, build_cluster

__all__ = [
    "GPUDevice",
    "GPUMemoryError",
    "GPUState",
    "GPUNode",
    "PCIeModel",
    "fit_pcie_model",
    "PAPER_TESTBED",
    "Cluster",
    "ClusterSpec",
    "GPUTypeSpec",
    "build_cluster",
]
