"""Unit tests for the write-through Datastore spec."""

from repro.sim import Simulator
from tests.spec.datastore import WriteThroughDatastore


def test_unbatched_writes_go_through():
    ds = WriteThroughDatastore(Simulator())
    ds.put("k", 42)
    assert ds.kv.revision == 1
    ds.delete("k")
    assert "k" not in ds.kv
    assert ds.kv.revision == 2
    assert ds.flush() == 0  # nothing was ever pending


def test_autocompacts_after_every_event():
    sim = Simulator()
    ds = WriteThroughDatastore(sim, autocompact_keep=2)
    for i in range(5):
        ds.put("fn/meta/f", i)
    assert ds.kv.compacted_revision == 0  # no event has run yet
    sim.schedule(1.0, ds.put, "fn/meta/f", 5)
    sim.run()
    assert ds.kv.compacted_revision == ds.kv.revision - 2 == 4
