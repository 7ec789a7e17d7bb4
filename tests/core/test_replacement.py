"""Unit tests for cache-replacement policies."""

import pytest

from repro.core.replacement import (
    POLICY_NAMES,
    BeladyPolicy,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    SizeAwarePolicy,
    make_policy,
)
from repro.experiments import SweepSpec
from repro.runtime import FaaSCluster, SystemConfig


class TestLRU:
    def test_eviction_order_is_coldest_first(self):
        p = LRUPolicy()
        p.on_insert("a", 100, now=0.0)
        p.on_insert("b", 100, now=1.0)
        p.on_insert("c", 100, now=2.0)
        p.on_access("a", now=3.0)
        assert p.eviction_order() == ["b", "c", "a"]
        assert p.lru_list() == ["b", "c", "a"]

    def test_insert_counts_as_most_recent(self):
        p = LRUPolicy()
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 1.0)
        assert p.eviction_order()[0] == "a"

    def test_double_insert_rejected(self):
        p = LRUPolicy()
        p.on_insert("a", 1, 0.0)
        with pytest.raises(ValueError):
            p.on_insert("a", 1, 1.0)

    def test_access_unknown_rejected(self):
        with pytest.raises(KeyError):
            LRUPolicy().on_access("ghost", 0.0)

    def test_evict_removes_from_order(self):
        p = LRUPolicy()
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 1.0)
        p.on_evict("a")
        assert p.eviction_order() == ["b"]
        assert p.resident == {"b"}

    def test_evict_unknown_rejected(self):
        with pytest.raises(KeyError):
            LRUPolicy().on_evict("ghost")


class TestVictimSelection:
    def test_no_victims_when_fits(self):
        p = LRUPolicy()
        p.on_insert("a", 3000, 0.0)
        assert p.choose_victims(needed_mb=1000, free_mb=2000) == []

    def test_evicts_coldest_until_space(self):
        p = LRUPolicy()
        p.on_insert("a", 2000, 0.0)
        p.on_insert("b", 2000, 1.0)
        p.on_insert("c", 2000, 2.0)
        # free 1800, need 3900 → evict a (coldest), then b
        victims = p.choose_victims(needed_mb=3900, free_mb=1800)
        assert victims == ["a", "b"]

    def test_pinned_models_skipped(self):
        p = LRUPolicy()
        p.on_insert("a", 2000, 0.0)
        p.on_insert("b", 2000, 1.0)
        victims = p.choose_victims(needed_mb=2000, free_mb=100, pinned=["a"])
        assert victims == ["b"]

    def test_impossible_raises_memory_error(self):
        p = LRUPolicy()
        p.on_insert("a", 1000, 0.0)
        with pytest.raises(MemoryError):
            p.choose_victims(needed_mb=9000, free_mb=500)

    def test_exact_boundary_no_eviction(self):
        p = LRUPolicy()
        p.on_insert("a", 1000, 0.0)
        assert p.choose_victims(needed_mb=500, free_mb=500) == []


class TestFIFO:
    def test_ignores_access_pattern(self):
        p = FIFOPolicy()
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 1.0)
        p.on_access("a", 2.0)
        assert p.eviction_order() == ["a", "b"]


class TestLFU:
    def test_fewest_uses_evicted_first(self):
        p = LFUPolicy()
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 0.5)
        p.on_access("a", 1.0)
        p.on_access("a", 2.0)
        p.on_access("b", 3.0)
        assert p.eviction_order() == ["b", "a"]

    def test_ties_broken_by_recency(self):
        p = LFUPolicy()
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 1.0)
        p.on_access("a", 2.0)
        p.on_access("b", 3.0)
        assert p.eviction_order() == ["a", "b"]  # same count; a used longer ago


class TestSizeAware:
    def test_largest_first(self):
        p = SizeAwarePolicy()
        p.on_insert("small", 1000, 0.0)
        p.on_insert("big", 4000, 1.0)
        p.on_insert("mid", 2000, 2.0)
        assert p.eviction_order() == ["big", "mid", "small"]

    def test_size_ties_broken_lru(self):
        p = SizeAwarePolicy()
        p.on_insert("a", 1000, 0.0)
        p.on_insert("b", 1000, 1.0)
        p.on_access("a", 5.0)
        assert p.eviction_order() == ["b", "a"]


class TestBelady:
    def test_farthest_future_use_evicted_first(self):
        future = {"a": 10.0, "b": 100.0, "c": 50.0}
        p = BeladyPolicy(next_use=lambda m, now: future[m])
        for i, m in enumerate("abc"):
            p.on_insert(m, 1, float(i))
        assert p.eviction_order() == ["b", "c", "a"]

    def test_never_used_again_is_first_victim(self):
        future = {"a": float("inf"), "b": 5.0}
        p = BeladyPolicy(next_use=lambda m, now: future[m])
        p.on_insert("a", 1, 0.0)
        p.on_insert("b", 1, 0.0)
        assert p.eviction_order()[0] == "a"


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUPolicy),
        ("fifo", FIFOPolicy),
        ("lfu", LFUPolicy),
        ("size", SizeAwarePolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("belady")  # needs its oracle, not creatable by name


class TestSystemConfigReplacement:
    """A replacement name ``make_policy`` cannot build fails at the config,
    not later inside ``FaaSCluster`` (or mid-sweep)."""

    @pytest.mark.parametrize("name", ["bogus", "LRU", "belady", ""])
    def test_unknown_replacement_rejected(self, name):
        with pytest.raises(ValueError, match="replacement"):
            SystemConfig(replacement=name)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_known_replacement_builds(self, name):
        system = FaaSCluster(SystemConfig(replacement=name))
        assert system.config.replacement == name

    def test_sweep_typo_fails_at_expansion(self):
        with pytest.raises(ValueError, match="replacement"):
            SweepSpec(replacements=("lru", "lur")).cells()
