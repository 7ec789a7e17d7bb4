"""Lease lifecycle edges the health watchdog relies on.

``chaos/health.py`` binds each GPU's heartbeat key to a lease and turns
an expiry into ``go_offline``; these tests pin the expiry/revoke
contract (callback order, reaping, bookkeeping) and how a lease rides a
flush: a put commits, and its key binds, at the action boundary.
"""

import pytest

from repro.datastore import Datastore
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def ds(sim):
    return Datastore(sim)


class TestExpiry:
    def test_callbacks_run_after_the_keys_are_reaped(self, sim, ds):
        lease = ds.leases.grant(2.0)
        ds.put("hb/g0", "alive", lease=lease)
        ds.flush()
        seen = []
        lease.on_expire(lambda l: seen.append((sim.now, l.lease_id, "hb/g0" in ds.kv)))
        sim.run()
        assert seen == [(2.0, lease.lease_id, False)]

    def test_every_callback_fires_in_registration_order(self, sim, ds):
        lease = ds.leases.grant(1.0)
        order = []
        lease.on_expire(lambda l: order.append("first"))
        lease.on_expire(lambda l: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_revoke_does_not_fire_expiry_callbacks(self, sim, ds):
        lease = ds.leases.grant(1.0)
        fired = []
        lease.on_expire(fired.append)
        lease.revoke()
        sim.run()
        assert fired == []
        assert lease.revoked and not lease.expired

    def test_on_expire_of_a_dead_lease_rejected(self, sim, ds):
        lease = ds.leases.grant(1.0)
        sim.run()
        with pytest.raises(RuntimeError):
            lease.on_expire(lambda l: None)

    def test_revoke_twice_is_a_no_op(self, ds):
        lease = ds.leases.grant(1.0)
        ds.put("k", 1, lease=lease)
        ds.flush()
        lease.revoke()
        revision = ds.kv.revision
        lease.revoke()
        assert ds.kv.revision == revision

    def test_revoke_after_expiry_keeps_it_expired(self, sim, ds):
        lease = ds.leases.grant(1.0)
        sim.run()
        lease.revoke()
        assert lease.expired and not lease.revoked


class TestReaping:
    def test_each_attached_key_is_deleted_in_key_order(self, sim, ds):
        lease = ds.leases.grant(1.0)
        for key in ("k/c", "k/a", "k/b"):
            ds.put(key, 0, lease=lease)
        ds.flush()
        start = ds.kv.revision
        sim.run()
        # one delete revision per key, sorted: a, b, c
        assert ds.kv.revision == start + 3
        assert [ds.kv.get(k, revision=start + i + 1) for i, k in enumerate("abc")] == [
            None, None, None
        ]
        assert ds.kv.get("k/b", revision=start + 1).value == 0

    def test_a_key_deleted_before_expiry_costs_no_revision(self, sim, ds):
        lease = ds.leases.grant(1.0)
        ds.put("k", 1, lease=lease)
        ds.flush()
        ds.delete("k")
        ds.flush()
        revision = ds.kv.revision
        sim.run()
        assert ds.kv.revision == revision

    def test_reaped_lease_leaves_the_manager(self, sim, ds):
        expiring, revoked, kept = (ds.leases.grant(t) for t in (1.0, 50.0, 50.0))
        revoked.revoke()
        sim.run(until=2.0)
        assert list(ds.leases.leases) == [kept.lease_id]
        assert expiring.keys == set()

    def test_refresh_restarts_the_full_ttl(self, sim, ds):
        lease = ds.leases.grant(4.0)
        fired = []
        lease.on_expire(lambda l: fired.append(sim.now))
        sim.schedule(3.0, lease.refresh)
        sim.run()
        assert fired == [7.0]

    @pytest.mark.parametrize("ttl", [0.0, -1.0])
    def test_nonpositive_ttl_rejected(self, ds, ttl):
        with pytest.raises(ValueError):
            ds.leases.grant(ttl)

    def test_ttl_is_stored_as_float(self, ds):
        assert ds.leases.grant(3).ttl == 3.0


class TestBatchedLeases:
    def test_lease_binds_only_after_the_commit(self, ds):
        lease = ds.leases.grant(10.0)
        ds.put("hb", "alive", lease=lease)
        assert lease.keys == set()
        ds.flush()
        assert lease.keys == {"hb"}

    def test_a_later_unleased_put_drops_the_binding(self, ds):
        lease = ds.leases.grant(10.0)
        ds.put("hb", "alive", lease=lease)
        ds.put("hb", "plain")
        ds.flush()
        assert lease.keys == set()
        assert ds.kv.get_value("hb") == "plain"

    def test_a_later_delete_drops_the_binding(self, ds):
        lease = ds.leases.grant(10.0)
        ds.put("hb", "alive", lease=lease)
        ds.delete("hb")
        ds.flush()
        assert lease.keys == set()
        assert "hb" not in ds.kv

    def test_lease_dead_by_flush_time_commits_unbound(self, sim, ds):
        lease = ds.leases.grant(10.0)
        ds.put("hb", "alive", lease=lease)
        lease.revoke()
        ds.flush()
        assert ds.kv.get_value("hb") == "alive"
        assert lease.keys == set()

    def test_expiry_of_a_batched_key_reaps_the_committed_row(self, sim, ds):
        lease = ds.leases.grant(5.0)
        sim.schedule(1.0, lambda: ds.put("hb", "alive", lease=lease))
        sim.run(until=2.0)
        assert ds.kv.get_value("hb") == "alive"
        sim.run()
        assert "hb" not in ds.kv
