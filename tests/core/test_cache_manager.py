"""Unit tests for the global Cache Manager."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.core.cache_manager import CacheManager
from repro.core.replacement import LFUPolicy
from repro.datastore import Datastore
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    return build_cluster(sim, ClusterSpec.homogeneous(1, 3))


@pytest.fixture
def ds(sim):
    return Datastore(sim)


@pytest.fixture
def cache(sim, cluster, ds):
    return CacheManager(sim, cluster.gpus, datastore=ds)


def g(cluster, i):
    return cluster.gpus[i].gpu_id


class TestLookups:
    def test_empty_cache(self, cache, cluster, make_instance):
        inst = make_instance()
        assert not cache.is_cached_on(inst.instance_id, g(cluster, 0))
        assert not cache.cached_anywhere(inst.instance_id)
        assert cache.locations(inst.instance_id) == []
        assert cache.duplicates(inst.instance_id) == 0

    def test_loaded_model_visible(self, cache, cluster, make_instance):
        inst = make_instance("fn-1")
        cache.on_loaded(g(cluster, 0), inst)
        assert cache.is_cached_on("fn-1", g(cluster, 0))
        assert not cache.is_cached_on("fn-1", g(cluster, 1))
        assert cache.cached_anywhere("fn-1")
        assert cache.locations("fn-1") == [g(cluster, 0)]

    def test_duplicates_across_gpus(self, cache, cluster, make_instance):
        inst = make_instance("hot")
        cache.on_loaded(g(cluster, 0), inst)
        cache.on_loaded(g(cluster, 1), inst)
        cache.on_loaded(g(cluster, 2), inst)
        assert cache.duplicates("hot") == 3
        cache.on_evicted(g(cluster, 1), "hot")
        assert cache.duplicates("hot") == 2
        assert cache.locations("hot") == [g(cluster, 0), g(cluster, 2)]

    def test_eviction_of_last_copy_clears_location(self, cache, cluster, make_instance):
        inst = make_instance("m")
        cache.on_loaded(g(cluster, 0), inst)
        cache.on_evicted(g(cluster, 0), "m")
        assert not cache.cached_anywhere("m")


class TestVictims:
    def test_victims_follow_lru(self, sim, cache, cluster, make_instance):
        gpu = cluster.gpus[0]  # 7800 MB
        a = make_instance("a", "resnet50")      # 1701
        b = make_instance("b", "densenet121")   # 1601
        c = make_instance("c", "vgg11")         # 2903
        for inst in (a, b, c):
            gpu.admit(inst.instance_id, inst.occupied_mb)
            cache.on_loaded(gpu.gpu_id, inst)
        # used: a most recent
        cache.on_used(gpu.gpu_id, "a")
        # 7800 - 6205 = 1595 free; need vgg19 (3947) → evict b (coldest), then c
        victims = cache.choose_victims(gpu.gpu_id, make_instance("d", "vgg19"))
        assert victims == ["b", "c"]

    def test_no_victims_when_fits(self, cache, cluster, make_instance):
        gpu = cluster.gpus[0]
        assert cache.choose_victims(gpu.gpu_id, make_instance("x", "vgg19")) == []

    def test_custom_policy_factory(self, sim, cluster, ds):
        cache = CacheManager(sim, cluster.gpus, datastore=ds, policy_factory=LFUPolicy)
        assert isinstance(cache._policies[g(cluster, 0)], LFUPolicy)


class TestDatastoreMirror:
    def test_lru_list_published(self, cache, cluster, ds, make_instance):
        gpu0 = g(cluster, 0)
        cache.on_loaded(gpu0, make_instance("a"))
        cache.on_loaded(gpu0, make_instance("b", "alexnet"))
        cache.on_used(gpu0, "a")
        assert ds.kv.get_value(f"gpu/lru/{gpu0}") == ("b", "a")

    def test_locations_published_and_cleared(self, cache, cluster, ds, make_instance):
        gpu0 = g(cluster, 0)
        inst = make_instance("m")
        cache.on_loaded(gpu0, inst)
        assert ds.kv.get_value("cache/locations/m") == (gpu0,)
        cache.on_evicted(gpu0, "m")
        assert ds.kv.get_value("cache/locations/m") is None


class TestObservers:
    def test_events_emitted_in_order(self, cache, cluster, make_instance):
        events = []
        cache.subscribe(lambda kind, gpu, model, now: events.append((kind, gpu, model)))
        gpu0 = g(cluster, 0)
        inst = make_instance("m")
        cache.on_loaded(gpu0, inst)
        cache.on_used(gpu0, "m")
        cache.on_evicted(gpu0, "m")
        assert events == [("load", gpu0, "m"), ("use", gpu0, "m"), ("evict", gpu0, "m")]
