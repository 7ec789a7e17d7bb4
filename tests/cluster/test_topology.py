"""Unit tests for nodes and cluster topology."""

import pytest

from repro.cluster import (
    PAPER_TESTBED,
    Cluster,
    ClusterSpec,
    GPUNode,
    GPUTypeSpec,
    PCIeModel,
    build_cluster,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestGPUNode:
    def test_node_creates_named_gpus(self, sim):
        node = GPUNode(sim, "node7", ip="10.0.0.17", num_gpus=3)
        assert len(node) == 3
        assert [g.gpu_id for g in node] == [
            "node7/cuda:0",
            "node7/cuda:1",
            "node7/cuda:2",
        ]

    def test_gpu_address_pairs_ip_and_device(self, sim):
        node = GPUNode(sim, "n", ip="10.1.2.3", num_gpus=2)
        ip, dev = node.gpu_address(node.gpus[1])
        assert ip == "10.1.2.3"
        assert dev == "cuda:1"

    def test_gpu_address_rejects_foreign_gpu(self, sim):
        a = GPUNode(sim, "a", ip="10.0.0.10", num_gpus=1)
        b = GPUNode(sim, "b", ip="10.0.0.11", num_gpus=1)
        with pytest.raises(ValueError):
            a.gpu_address(b.gpus[0])

    def test_zero_gpus_rejected(self, sim):
        with pytest.raises(ValueError):
            GPUNode(sim, "n", ip="10.0.0.10", num_gpus=0)


class TestClusterSpec:
    def test_paper_testbed_is_3x4(self):
        assert PAPER_TESTBED.total_gpus == 12
        assert len(PAPER_TESTBED.nodes) == 3

    def test_homogeneous_builder(self):
        spec = ClusterSpec.homogeneous(2, 8)
        assert spec.total_gpus == 16

    def test_heterogeneous_spec(self):
        fast = GPUTypeSpec(name="a100", memory_mb=40000.0, speed_factor=0.4)
        spec = ClusterSpec(nodes=((4, GPUTypeSpec()), (2, fast)))
        assert spec.total_gpus == 6


class TestBuildCluster:
    def test_paper_testbed_build(self, sim):
        cluster = build_cluster(sim)
        assert len(cluster) == 12
        assert len(cluster.nodes) == 3
        assert all(g.gpu_type == "rtx2080" for g in cluster)
        assert all(g.memory_mb == 7800.0 for g in cluster)

    def test_paper_testbed_ips_follow_the_node_index(self, sim):
        cluster = build_cluster(sim, PAPER_TESTBED)
        assert [n.ip for n in cluster.nodes] == ["10.0.0.10", "10.0.0.11", "10.0.0.12"]

    def test_idle_and_busy_views(self, sim):
        cluster = build_cluster(sim, ClusterSpec.homogeneous(1, 3))
        assert len(cluster.idle_gpus()) == 3
        cluster.gpus[0].begin_inference()
        assert cluster.idle_gpus() == cluster.gpus[1:]
        assert [g for g in cluster if g.is_busy] == [cluster.gpus[0]]

    def test_gpu_lookup_by_id(self, sim):
        cluster = build_cluster(sim, ClusterSpec.homogeneous(2, 2))
        g = cluster.gpu("node1/cuda:0")
        assert g.node_id == "node1"
        assert g in cluster.nodes[1].gpus

    def test_heterogeneous_build_carries_type_attributes(self, sim):
        fast = GPUTypeSpec(
            name="a100", memory_mb=40000.0, pcie=PCIeModel(bandwidth_mb_s=6000.0), speed_factor=0.4
        )
        cluster = build_cluster(sim, ClusterSpec(nodes=((1, GPUTypeSpec()), (1, fast))))
        assert cluster.gpu_types() == {"rtx2080", "a100"}
        a100 = cluster.gpu("node1/cuda:0")
        assert a100.memory_mb == 40000.0
        # the type's PCIe link is read by the profiler from the GPUTypeSpec
        # (ProfileRegistry.from_table1), keyed by the device's gpu_type
        assert a100.gpu_type == "a100"
