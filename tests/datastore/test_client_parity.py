"""The batched Datastore and its write-through spec commit the same writes.

The Datastore defers its writes to the action boundary;
``tests/spec/datastore.py``'s ``WriteThroughDatastore`` commits each one
as it comes and is the specification the batched path is held to.
Each test below runs on both, for keys of both commit tiers (an MVCC
prefix and a history-free hot one),
and checks what lands in the committed store: values after ``put`` /
``delete``, recreated keys, ranges, lease-bound keys, revisions and the
logical write count.  A batched Datastore commits at the action
boundary, so every check that reads the store flushes first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import Datastore
from repro.sim import Simulator
from tests.spec.datastore import WriteThroughDatastore

PATHS = [
    pytest.param(WriteThroughDatastore, id="write-through"),
    pytest.param(Datastore, id="batched"),
]
#: one key prefix per commit tier
TIERS = [
    pytest.param("cache/locations/", id="mvcc"),
    pytest.param("gpu/lru/", id="hot"),
]


def _store(cls):
    sim = Simulator()
    return sim, cls(sim)


@pytest.mark.parametrize("cls", PATHS)
@pytest.mark.parametrize("prefix", TIERS)
class TestDatastoreParity:
    def test_put_commits_the_value(self, cls, prefix):
        _, ds = _store(cls)
        ds.put(prefix + "a", 1)
        ds.flush()
        assert ds.kv.get_value(prefix + "a") == 1

    def test_put_captures_the_value_at_the_call(self, cls, prefix):
        _, ds = _store(cls)
        order = ["m1"]
        ds.put(prefix + "g0", tuple(order))
        order.append("m2")
        ds.flush()
        assert ds.kv.get_value(prefix + "g0") == ("m1",)

    def test_delete_removes_the_key(self, cls, prefix):
        _, ds = _store(cls)
        ds.put(prefix + "a", 1)
        ds.flush()
        assert ds.delete(prefix + "a") is None
        ds.flush()
        assert prefix + "a" not in ds.kv
        assert ds.kv.get_value(prefix + "a", "gone") == "gone"

    def test_delete_of_a_missing_key_commits_nothing(self, cls, prefix):
        _, ds = _store(cls)
        ds.put(prefix + "a", 1)
        ds.flush()
        revision = ds.kv.revision
        ds.delete(prefix + "missing")
        ds.flush()
        assert ds.kv.revision == revision
        assert ds.kv.get_value(prefix + "a") == 1

    def test_delete_then_put_recreates_the_key(self, cls, prefix):
        _, ds = _store(cls)
        ds.put(prefix + "a", 1)
        ds.put(prefix + "a", 2)
        ds.flush()
        ds.delete(prefix + "a")
        ds.put(prefix + "a", 3)
        ds.flush()
        row = ds.kv.get(prefix + "a")
        assert (row.value, row.version) == (3, 1)

    def test_range_sees_the_live_keys(self, cls, prefix):
        _, ds = _store(cls)
        for name in ("c", "a", "b"):
            ds.put(prefix + name, name)
        ds.flush()
        ds.delete(prefix + "b")
        ds.flush()
        assert [(row.key, row.value) for row in ds.kv.range(prefix)] == [
            (prefix + "a", "a"), (prefix + "c", "c"),
        ]

    def test_leased_key_vanishes_on_expiry(self, cls, prefix):
        sim, ds = _store(cls)
        lease = ds.leases.grant(5.0)
        ds.put(prefix + "hb", "alive", lease=lease)
        ds.flush()
        assert ds.kv.get_value(prefix + "hb") == "alive"
        assert lease.keys == {prefix + "hb"}
        sim.run()
        assert prefix + "hb" not in ds.kv
        assert lease.expired

    def test_logical_writes_count_every_call(self, cls, prefix):
        _, ds = _store(cls)
        ds.put(prefix + "a", 1)
        ds.put(prefix + "a", 2)
        ds.put(prefix + "b", 3)
        ds.delete(prefix + "a")
        ds.delete(prefix + "missing")
        ds.flush()
        assert ds.stats.logical_writes == 5


KEYS = ["cache/locations/a", "cache/locations/b", "gpu/lru/a", "gpu/lru/b"]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 9)),
            st.tuples(st.just("delete"), st.sampled_from(KEYS)),
            st.just(("flush",)),
        ),
        max_size=30,
    )
)
def test_same_final_live_view_on_both_paths(ops):
    """Any interleaving of puts, deletes and action boundaries leaves the
    two paths with the same live keys and values."""
    stores = [_store(cls)[1] for cls in (WriteThroughDatastore, Datastore)]
    for op in ops:
        for ds in stores:
            if op[0] == "put":
                ds.put(op[1], op[2])
            elif op[0] == "delete":
                ds.delete(op[1])
            else:
                ds.flush()
    for ds in stores:
        ds.flush()
    live = [{kv.key: kv.value for kv in ds.kv.items()} for ds in stores]
    assert live[0] == live[1]
    assert stores[0].stats.logical_writes == stores[1].stats.logical_writes
    # the batched path never commits more revisions than the logical stream
    assert stores[1].kv.revision <= stores[0].kv.revision
