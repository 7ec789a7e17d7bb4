"""Ephemeral-key tier semantics: the fast lane must keep the live view
and read-your-writes identical to the durable path while retaining *no*
per-key history and no lineage — and a historical read, whose answer
would depend on the missing history, must fail loudly with
:class:`EphemeralKeyError`, never silently return a wrong view."""

import pytest

from repro.datastore import Datastore, EphemeralKeyError, KVStore, WriteBatch
from repro.sim import Simulator

EPH = ("gpu/status/", "fn/latency/")


def store() -> KVStore:
    return KVStore(ephemeral_prefixes=EPH)


class TestFastLaneSemantics:
    def test_live_reads_identical_to_durable(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        s.put("cache/locations/m", ["g0"])
        assert s.get_value("gpu/status/g0") == "busy"
        assert s.get_value("cache/locations/m") == ["g0"]
        assert s.get("gpu/status/g0").key == "gpu/status/g0"
        assert "gpu/status/g0" in s
        assert "gpu/status/g0" in s.keys()

    def test_ephemeral_writes_bump_revision(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        s.put("gpu/status/g0", "idle")
        assert s.revision == 2
        assert s.get("gpu/status/g0").mod_revision == 2

    def test_lineage_free_metadata(self):
        """No history to anchor lineage to: create_revision always equals
        mod_revision and version stays pinned at 1."""
        s = store()
        s.put("gpu/status/g0", "busy")
        s.put("gpu/status/g0", "idle")
        kv = s.get("gpu/status/g0")
        assert kv.create_revision == kv.mod_revision == 2
        assert kv.version == 1

    def test_no_history_no_event_log(self):
        s = store()
        for i in range(50):
            s.put("gpu/status/g0", i)
            s.put("fn/latency/%d" % i, i * 0.1)
        assert s.history_entry_count() == 0

    def test_ephemeral_writes_counter(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        s.put("fn/latency/1", 0.5)
        s.put("durable", 1)
        s.delete("fn/latency/1")
        assert s.ephemeral_writes == 3  # 2 puts + 1 delete
        assert s.history_entry_count() == 1  # the durable key only

    def test_is_ephemeral_and_prefixes(self):
        s = store()
        assert s.ephemeral_prefixes == EPH
        assert s.is_ephemeral("gpu/status/g7")
        assert not s.is_ephemeral("gpu/lru-of-something")
        assert not KVStore().is_ephemeral("gpu/status/g7")

    def test_delete_leaves_no_tombstone(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        assert s.delete("gpu/status/g0")
        assert "gpu/status/g0" not in s
        assert s.history_entry_count() == 0

    def test_mixed_batch_commits_one_revision(self):
        s = store()
        commit = s.apply_batch(
            [
                ("put", "gpu/status/g0", "busy"),
                ("put", "cache/locations/m", ["g0"]),
                ("put", "fn/latency/1", 0.25),
            ]
        )
        assert commit.revision == s.revision == 1
        assert commit.count == 3
        # only the durable key left residue
        assert s.history_entry_count() == 1
        # all three share the commit revision in the live view
        assert s.get("gpu/status/g0").mod_revision == 1
        assert s.get("cache/locations/m").mod_revision == 1

    def test_compaction_near_free_for_ephemeral_keys(self):
        """With only ephemeral churn there is nothing to compact: the
        retention window's cost no longer scales with status-key writes."""
        s = store()
        for i in range(500):
            s.put("gpu/status/g0", i)
        s.compact(s.revision - 10)
        assert s.history_entry_count() == 0
        assert s.get_value("gpu/status/g0") == 499

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            KVStore(ephemeral_prefixes=("",))
        with pytest.raises(ValueError):
            KVStore(ephemeral_prefixes=(b"gpu/",))


class TestHistoricalReadsRaise:
    def test_get_at_revision_raises(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        with pytest.raises(EphemeralKeyError):
            s.get("gpu/status/g0", revision=1)

    def test_get_latest_still_works(self):
        s = store()
        s.put("gpu/status/g0", "busy")
        assert s.get("gpu/status/g0", revision=None).value == "busy"


class TestDeletePrefix:
    def test_single_revision_for_all_victims(self):
        s = store()
        for i in range(10):
            s.put("fn/latency/%d" % i, i)
        s.put("keep", 1)
        before = s.revision
        assert s.delete_prefix("fn/latency/") == 10
        assert s.revision == before + 1  # exactly one revision consumed
        assert s.get_value("keep") == 1
        assert not [k for k in s.keys() if k.startswith("fn/latency/")]

    def test_empty_prefix_consumes_no_revision(self):
        s = store()
        before = s.revision
        assert s.delete_prefix("nothing/here/") == 0
        assert s.revision == before


class TestWriteBatchOverlay:
    def test_read_your_writes_for_ephemeral_keys(self):
        sim = Simulator()
        ds = Datastore(sim, batched=True, ephemeral_prefixes=EPH)
        c = ds.client()
        c.put("gpu/status/g0", "busy")
        assert ds.kv.revision == 0  # not committed yet
        assert c.get("gpu/status/g0") == "busy"  # overlay answers
        ds.flush()
        assert ds.kv.revision == 1
        assert c.get("gpu/status/g0") == "busy"

    def test_flush_count_matches_committed_keys(self):
        sim = Simulator()
        ds = Datastore(sim, batched=True, ephemeral_prefixes=EPH)
        c = ds.client()
        c.put("gpu/status/g0", "busy")
        c.put("durable", 1)
        assert ds.flush() == 2
        assert ds.stats.committed_keys == 2

    def test_leased_flush_attaches_its_key(self):
        """A lease on an ephemeral put attaches once the flush commits;
        the commit itself counts the key as any flush does."""
        sim = Simulator()
        ds = Datastore(sim, batched=True, ephemeral_prefixes=EPH)
        wb = ds.pending
        wb.put("gpu/status/g0", "busy")
        assert wb.flush().count == 1
        lease = ds.leases.grant(5.0)
        wb.put("gpu/status/g0", "idle", lease=lease)
        assert wb.flush().count == 1
        assert lease.keys == {"gpu/status/g0"}
        assert ds.kv.get_value("gpu/status/g0") == "idle"
