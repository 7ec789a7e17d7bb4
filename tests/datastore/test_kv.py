"""Unit tests for the MVCC key-value store."""

import pytest

from repro.datastore import CompactedError, KVStore


@pytest.fixture
def store():
    return KVStore()


class TestBasicOps:
    def test_empty_store(self, store):
        assert store.revision == 0
        assert len(store) == 0
        assert store.get("missing") is None
        assert store.get_value("missing", 42) == 42

    def test_put_and_get(self, store):
        kv = store.put("a", 1)
        assert kv.value == 1
        assert kv.create_revision == 1
        assert kv.mod_revision == 1
        assert kv.version == 1
        assert store.get("a").value == 1
        assert "a" in store

    def test_put_bumps_revision_and_version(self, store):
        store.put("a", 1)
        kv = store.put("a", 2)
        assert store.revision == 2
        assert kv.create_revision == 1
        assert kv.mod_revision == 2
        assert kv.version == 2

    def test_delete(self, store):
        store.put("a", 1)
        assert store.delete("a") is True
        assert store.get("a") is None
        assert store.delete("a") is False
        assert store.revision == 2  # failed delete does not bump revision

    def test_recreate_after_delete_resets_metadata(self, store):
        store.put("a", 1)
        store.delete("a")
        kv = store.put("a", 3)
        assert kv.version == 1
        assert kv.create_revision == 3

    def test_invalid_keys_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("", 1)
        with pytest.raises(ValueError):
            store.put(123, 1)  # type: ignore[arg-type]

    def test_keys_sorted(self, store):
        for k in ["b", "a", "c"]:
            store.put(k, 0)
        assert store.keys() == ["a", "b", "c"]


class TestRange:
    def test_prefix_range(self, store):
        store.put("gpu/status/g0", "idle")
        store.put("gpu/status/g1", "busy")
        store.put("gpu/lru/g0", [])
        got = store.range("gpu/status/")
        assert [kv.key for kv in got] == ["gpu/status/g0", "gpu/status/g1"]

    def test_items_iterates_sorted(self, store):
        store.put("b", 2)
        store.put("a", 1)
        assert [kv.key for kv in store.items()] == ["a", "b"]


class TestHistoricalReads:
    def test_read_at_old_revision(self, store):
        store.put("a", "v1")  # rev 1
        store.put("a", "v2")  # rev 2
        store.put("b", "x")  # rev 3
        assert store.get("a", revision=1).value == "v1"
        assert store.get("a", revision=2).value == "v2"
        assert store.get("a", revision=3).value == "v2"
        assert store.get("b", revision=2) is None

    def test_read_before_key_existed(self, store):
        store.put("other", 0)  # rev 1
        store.put("a", 1)  # rev 2
        assert store.get("a", revision=1) is None

    def test_deleted_key_reads_none_after_tombstone(self, store):
        store.put("a", 1)  # rev 1
        store.delete("a")  # rev 2
        store.put("z", 0)  # rev 3
        assert store.get("a", revision=1).value == 1
        assert store.get("a", revision=2) is None
        assert store.get("a", revision=3) is None

    def test_future_revision_rejected(self, store):
        store.put("a", 1)
        with pytest.raises(ValueError):
            store.get("a", revision=99)


class TestCompaction:
    def test_compaction_blocks_older_reads(self, store):
        store.put("a", "v1")  # rev 1
        store.put("a", "v2")  # rev 2
        store.put("a", "v3")  # rev 3
        store.compact(2)
        with pytest.raises(CompactedError):
            store.get("a", revision=1)
        assert store.get("a", revision=2).value == "v2"
        assert store.get("a", revision=3).value == "v3"

    def test_compaction_preserves_live_view(self, store):
        store.put("a", 1)
        store.put("b", 2)
        store.compact(store.revision)
        assert store.get("a").value == 1
        assert store.get("b").value == 2

    def test_compact_beyond_revision_rejected(self, store):
        with pytest.raises(ValueError):
            store.compact(5)

    def test_compact_is_monotonic(self, store):
        store.put("a", 1)
        store.put("a", 2)
        store.compact(2)
        store.compact(1)  # no-op, not an error
        assert store.compacted_revision == 2

    def test_compacted_tombstone_history_dropped(self, store):
        store.put("a", 1)
        store.delete("a")
        store.put("pad", 0)
        store.compact(store.revision)
        assert store.get("a") is None
