"""Unit tests for leases and namespaced clients."""

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
        client = ds.client()
        client.put("gpu/status/g0", "idle", lease=lease)
        sim.run(until=9.0)
        assert client.get("gpu/status/g0") == "idle"
        sim.run(until=10.0)
        assert client.get("gpu/status/g0") is None
        assert lease.expired

    def test_refresh_extends_lifetime(self, sim, ds):
        lease = ds.leases.grant(ttl=10.0)
        ds.client().put("k", "v", lease=lease)
        sim.schedule(8.0, lease.refresh)
        sim.run(until=17.0)
        assert ds.client().get("k") == "v"
        sim.run(until=18.0)
        assert ds.client().get("k") is None

    def test_revoke_deletes_immediately(self, sim, ds):
        lease = ds.leases.grant(ttl=100.0)
        ds.client().put("k", "v", lease=lease)
        lease.revoke()
        assert ds.client().get("k") is None
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


class TestClient:
    def test_namespacing(self, ds):
        a = ds.client("tenantA")
        b = ds.client("tenantB")
        a.put("k", 1)
        b.put("k", 2)
        assert a.get("k") == 1
        assert b.get("k") == 2
        assert ds.kv.get_value("tenantA/k") == 1

    def test_range_strips_namespace(self, ds):
        c = ds.client("ns")
        c.put("gpu/0", "idle")
        c.put("gpu/1", "busy")
        assert c.range("gpu/") == {"gpu/0": "idle", "gpu/1": "busy"}
