"""Simulated GPU cluster substrate: devices, nodes, PCIe.

A :class:`GPUDevice` owns all of one GPU's state — its resident models
(one GPU process each), its busy/idle state and its per-state time.
"""

from .. import _lazy_exports

_EXPORTS = {
    "GPUDevice": ".gpu",
    "GPUMemoryError": ".gpu",
    "GPUState": ".gpu",
    "GPUNode": ".node",
    "PCIeModel": ".pcie",
    "fit_pcie_model": ".pcie",
    "PAPER_TESTBED": ".topology",
    "Cluster": ".topology",
    "ClusterSpec": ".topology",
    "GPUTypeSpec": ".topology",
    "build_cluster": ".topology",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
