"""Batch semantics: atomic multi-key commits, last-write-wins coalescing,
the Datastore's pending batch, and its action-boundary commits."""

import pytest

from repro.datastore import CompactedError, Datastore, KVStore
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestApplyBatch:
    def test_multi_key_commit_bumps_revision_once(self):
        s = KVStore()
        commit = s.apply_batch([("put", "a", 1), ("put", "b", 2), ("put", "c", 3)])
        assert s.revision == 1
        assert commit.revision == 1
        assert commit.count == 3
        assert {s.get(k).mod_revision for k in "abc"} == {1}
        assert [s.get_value(k) for k in "abc"] == [1, 2, 3]

    def test_last_write_wins_within_batch(self):
        s = KVStore()
        commit = s.apply_batch([("put", "k", "first"), ("put", "k", "last")])
        assert s.get_value("k") == "last"
        # one key, one history entry: the intermediate value never existed
        assert commit.count == 1
        assert s.history_entry_count() == 1
        assert s.get("k", revision=1).value == "last"
        assert s.get("k").version == 1

    def test_put_then_delete_same_key_coalesces_to_delete(self):
        s = KVStore()
        s.put("k", 0)
        commit = s.apply_batch([("put", "k", 1), ("delete", "k")])
        assert "k" not in s
        assert commit.count == 1
        assert s.get("k", revision=commit.revision) is None

    def test_delete_then_put_recreates_key(self):
        """A batch that deletes then re-puts a key must match the
        sequential outcome: a *recreated* key (version 1, fresh
        create_revision), not a versioned-over old one."""
        s = KVStore()
        s.put("k", "old")  # rev 1, version 1
        s.put("k", "old2")  # rev 2, version 2
        commit = s.apply_batch([("delete", "k"), ("put", "k", "new")])
        kv = s.get("k")
        assert kv.value == "new"
        assert kv.version == 1
        assert kv.create_revision == commit.revision == 3
        # one coalesced put, the intermediate delete never observable
        assert commit.count == 1
        assert s.get("k", revision=commit.revision) == kv

    def test_mixed_puts_and_deletes_share_one_revision(self):
        s = KVStore()
        s.put("old", 1)  # rev 1
        s.apply_batch([("put", "new", 2), ("delete", "old")])  # rev 2
        assert s.revision == 2
        assert s.get("new").mod_revision == 2
        assert s.get("old") is None

    def test_ineffective_batch_consumes_no_revision(self):
        s = KVStore()
        commit = s.apply_batch([("delete", "missing")])
        assert commit.revision is None
        assert s.revision == 0
        assert s.apply_batch([]).revision is None

    def test_count_skips_deletes_of_missing_keys(self):
        s = KVStore()
        s.put("there", 1)
        commit = s.apply_batch(
            [("delete", "there"), ("delete", "gone"), ("put", "fresh", 2)]
        )
        assert commit.count == 2
        assert s.keys() == ["fresh"]

    def test_compaction_drops_whole_batches(self):
        s = KVStore()
        s.apply_batch([("put", "a", 1), ("put", "b", 2)])  # rev 1
        s.apply_batch([("put", "a", 3), ("put", "c", 4)])  # rev 2
        s.compact(2)
        # the rev-1 view is gone for every key of that batch at once ...
        for key in "abc":
            with pytest.raises(CompactedError):
                s.get(key, revision=1)
        # ... and the rev-2 view survives whole: b's rev-1 write is still
        # its newest entry at-or-below the compaction point
        assert {k: s.get(k, revision=2).value for k in "abc"} == {"a": 3, "b": 2, "c": 4}
        assert s.history_entry_count() == 3

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            KVStore().apply_batch([("swap", "a", 1)])


class TestTxnSingleRevision:
    """``apply_batch`` is the store's transaction: every op commits under
    one revision, and an op that changes nothing consumes none."""

    def test_multi_op_txn_is_one_revision(self):
        s = KVStore()
        commit = s.apply_batch([("put", "x", 1), ("put", "y", 2), ("delete", "nope")])
        assert commit.revision == 1
        assert s.revision == 1
        assert s.get("x").mod_revision == s.get("y").mod_revision == 1
        assert commit.count == 2  # the delete of a missing key is a no-op

    def test_get_reads_post_commit_state(self):
        s = KVStore()
        commit = s.apply_batch([("put", "k", 41)])
        assert s.get("k").mod_revision == commit.revision
        assert s.get("k").value == 41
        assert s.get("k", revision=commit.revision).value == 41

    def test_ineffective_commits_keep_the_last_revision(self, sim):
        ds = Datastore(sim)
        s = ds.kv
        s.put("k", 1)
        s.apply_batch([("delete", "absent")])
        assert ds.flush() == 0  # nothing pending
        ds.delete("absent")
        assert ds.flush() == 0  # only a delete of a missing key
        assert s.revision == 1
        assert s.get("k").mod_revision == 1
        assert ds.stats.flushes == 0


class TestPendingBatch:
    def test_flush_commits_once_and_clears(self, sim):
        ds = Datastore(sim)
        ds.put("a", 1)
        ds.put("b", 2)
        ds.delete("missing")
        assert ds.flush() == 2
        assert ds.kv.revision == 1
        assert ds.flush() == 0  # nothing pending
        assert ds.kv.revision == 1

    def test_delete_then_put_in_one_batch_recreates(self, sim):
        """The gateway-update pattern: delete fn/meta then re-put it
        within one batch — the flush must recreate the key."""
        ds = Datastore(sim)
        ds.put("fn/meta/f", {"v": 1})
        ds.flush()
        ds.put("fn/meta/f", {"v": 2})
        ds.flush()
        ds.delete("fn/meta/f")
        ds.put("fn/meta/f", {"v": 3})
        ds.flush()
        kv = ds.kv.get("fn/meta/f")
        assert kv.value == {"v": 3}
        assert kv.version == 1  # recreated, like sequential delete+put

    def test_coalesced_writes_count_lww_absorption(self, sim):
        ds = Datastore(sim)
        ds.put("k", 1)
        ds.put("k", 2)
        ds.delete("k")
        ds.flush()
        assert ds.stats.coalesced_writes == 2


class TestBatchedDatastore:
    def test_writes_commit_only_at_flush(self, sim):
        ds = Datastore(sim)
        ds.put("k", 1)
        ds.put("gone", 0)
        ds.delete("gone")
        assert ds.kv.revision == 0  # nothing committed yet
        assert "k" not in ds.kv
        ds.flush()
        assert ds.kv.get_value("k") == 1
        assert "gone" not in ds.kv

    def test_flush_commits_one_revision_per_action(self, sim):
        ds = Datastore(sim)
        ds.put("gpu/status/g0", "busy")
        ds.put("gpu/finish_time/g0", 3.5)
        ds.put("gpu/lru/g0", ["m1"])
        assert ds.flush() == 3
        assert ds.kv.revision == 1
        assert ds.stats.flushes == 1
        assert ds.stats.logical_writes == 3

    def test_post_event_hook_flushes_at_action_boundary(self, sim):
        ds = Datastore(sim)
        sim.schedule(1.0, lambda: (ds.put("a", 1), ds.put("b", 2)))
        sim.schedule(2.0, lambda: ds.put("a", 3))
        sim.run()
        assert ds.kv.revision == 2  # one revision per event, not per put
        assert ds.kv.get("a", revision=1).value == 1
        assert ds.kv.get("b").mod_revision == 1
        assert ds.kv.get("a").mod_revision == 2

    def test_lease_attaches_at_flush(self, sim):
        ds = Datastore(sim)
        lease = ds.leases.grant(ttl=5.0)
        ds.put("gpu/status/g0", "idle", lease=lease)
        ds.flush()
        assert ds.kv.get_value("gpu/status/g0") == "idle"
        sim.run(until=5.0)
        assert ds.kv.get_value("gpu/status/g0") is None  # lease expiry deleted it

    def test_event_without_writes_commits_nothing(self, sim):
        ds = Datastore(sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert ds.kv.revision == 0
        assert ds.stats.flushes == 0

    def test_flush_checks_the_autocompaction_horizon(self, sim):
        """Past 2×keep revisions of history the flush that minted the
        last one compacts everything below ``revision - keep``."""
        ds = Datastore(sim, autocompact_keep=2)
        for i in range(4):
            ds.put("fn/meta/f", i)
            ds.flush()
        assert ds.kv.compacted_revision == 0  # 4 revisions: not past 2×2
        ds.put("fn/meta/f", 4)
        ds.flush()
        assert ds.kv.compacted_revision == 3
        with pytest.raises(CompactedError):
            ds.kv.get("fn/meta/f", revision=2)
        assert ds.kv.get("fn/meta/f", revision=3).value == 2
