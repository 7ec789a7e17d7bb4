"""Unit tests for leases."""

import pytest

from repro.datastore import Datastore
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def ds(sim):
    return Datastore(sim)


class TestLease:
    def test_keys_vanish_on_expiry(self, sim, ds):
        lease = ds.leases.grant(ttl=10.0)
        ds.put("gpu/status/g0", "idle", lease=lease)
        sim.run(until=9.0)
        assert ds.kv.get_value("gpu/status/g0") == "idle"
        sim.run(until=10.0)
        assert ds.kv.get_value("gpu/status/g0") is None
        assert lease.expired

    def test_refresh_extends_lifetime(self, sim, ds):
        lease = ds.leases.grant(ttl=10.0)
        ds.put("k", "v", lease=lease)
        sim.schedule(8.0, lease.refresh)
        sim.run(until=17.0)
        assert ds.kv.get_value("k") == "v"
        sim.run(until=18.0)
        assert ds.kv.get_value("k") is None

    def test_revoke_deletes_immediately(self, sim, ds):
        lease = ds.leases.grant(ttl=100.0)
        ds.put("k", "v", lease=lease)
        lease.revoke()
        assert ds.kv.get_value("k") is None
        assert not lease.alive

    def test_attach_to_dead_lease_rejected(self, sim, ds):
        lease = ds.leases.grant(ttl=1.0)
        sim.run()
        with pytest.raises(RuntimeError):
            lease.attach("k")

    def test_refresh_dead_lease_rejected(self, sim, ds):
        lease = ds.leases.grant(ttl=1.0)
        sim.run()
        with pytest.raises(RuntimeError):
            lease.refresh()

    def test_nonpositive_ttl_rejected(self, ds):
        with pytest.raises(ValueError):
            ds.leases.grant(0.0)

    def test_lease_ids_are_per_datastore(self):
        # a second replay in the same process mints the same lease IDs
        first, second = Datastore(Simulator()), Datastore(Simulator())
        assert first.leases.grant(1.0).lease_id == 1
        assert second.leases.grant(1.0).lease_id == 1
        assert first.leases.grant(1.0).lease_id == 2

