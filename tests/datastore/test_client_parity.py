"""The batched and the write-through Datastore answer every client call
alike.

``FaaSCluster`` always builds its Datastore batched; a bare ``Datastore()``
writes through and is the specification the batched path is held to.
Each test below runs on both, under the root namespace and a component
namespace, and checks what a component would observe: reads (before and
after the flush), ``delete``'s return value, ``range``, lazy writes and
lease-bound keys.  A batched client commits at the action boundary, so
every check that reads the committed store flushes first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import DELETE, Datastore
from repro.sim import Simulator

PATHS = [
    pytest.param(False, "", id="write-through-root"),
    pytest.param(False, "ns", id="write-through-ns"),
    pytest.param(True, "", id="batched-root"),
    pytest.param(True, "ns", id="batched-ns"),
]


def _store(batched: bool):
    sim = Simulator()
    return sim, Datastore(sim, batched=batched)


def _full(namespace: str, key: str) -> str:
    return f"{namespace}/{key}" if namespace else key


@pytest.mark.parametrize("batched, namespace", PATHS)
class TestClientParity:
    def test_put_then_get(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("a", 1)
        assert c.get("a") == 1  # read-your-writes before any flush
        c.flush()
        assert c.get("a") == 1
        assert ds.kv.get_value(_full(namespace, "a")) == 1

    def test_get_missing_returns_default(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        assert c.get("nope") is None
        assert c.get("nope", "dflt") == "dflt"

    def test_delete_reports_whether_the_key_existed(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("a", 1)
        c.flush()
        assert c.delete("a") is True
        assert c.delete("missing") is False
        c.flush()
        assert _full(namespace, "a") not in ds.kv

    def test_delete_hides_the_key_from_reads(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("a", 1)
        c.flush()
        c.delete("a")
        assert c.get("a", "gone") == "gone"
        c.flush()
        assert c.get("a", "gone") == "gone"

    def test_range_sees_only_its_namespace(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        other = ds.client("other")
        c.put("gpu/0", "idle")
        c.put("gpu/1", "busy")
        c.put("fn/x", 1)
        other.put("gpu/9", "idle")
        expected = {"gpu/0": "idle", "gpu/1": "busy"}  # never other/gpu/9
        assert c.range("gpu/") == expected
        c.flush()
        assert c.range("gpu/") == expected

    def test_range_drops_a_deleted_key(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("k/0", 0)
        c.put("k/1", 1)
        c.flush()
        c.delete("k/0")
        assert c.range("k/") == {"k/1": 1}

    def test_put_lazy_commits_the_thunk_value(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        state = {"v": 1}
        c.put_lazy("lru", lambda: state["v"])
        state["v"] = 2
        c.flush()
        # batched: the thunk ran at flush; write-through: at the call
        assert ds.kv.get_value(_full(namespace, "lru")) == (2 if batched else 1)

    def test_put_lazy_delete_sentinel_deletes(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("loc", ("g0",))
        c.flush()
        c.put_lazy("loc", lambda: DELETE)
        c.flush()
        assert _full(namespace, "loc") not in ds.kv
        assert c.get("loc") is None

    def test_leased_key_vanishes_on_expiry(self, batched, namespace):
        sim, ds = _store(batched)
        c = ds.client(namespace)
        lease = c.lease(5.0)
        c.put("hb", "alive", lease=lease)
        c.flush()
        assert ds.kv.get_value(_full(namespace, "hb")) == "alive"
        sim.run()
        assert _full(namespace, "hb") not in ds.kv
        assert lease.expired

    def test_logical_writes_count_every_call(self, batched, namespace):
        _, ds = _store(batched)
        c = ds.client(namespace)
        c.put("a", 1)
        c.put("a", 2)
        c.put_lazy("b", lambda: 3)
        c.delete("a")
        c.flush()
        assert ds.stats.logical_writes == 4


@pytest.mark.parametrize("namespace", ["", "ns"])
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.sampled_from("abcd"), st.integers(0, 9)),
            st.tuples(st.just("delete"), st.sampled_from("abcd")),
            st.just(("flush",)),
        ),
        max_size=30,
    )
)
def test_same_final_live_view_on_both_paths(namespace, ops):
    """Any interleaving of puts, deletes and action boundaries leaves the
    two paths with the same live keys and values, and ``delete`` answers
    the same at every step."""
    stores = [_store(batched)[1] for batched in (False, True)]
    clients = [ds.client(namespace) for ds in stores]
    for op in ops:
        if op[0] == "put":
            for c in clients:
                c.put(op[1], op[2])
        elif op[0] == "delete":
            assert len({c.delete(op[1]) for c in clients}) == 1
        else:
            for c in clients:
                c.flush()
    for c in clients:
        c.flush()
    live = [{kv.key: kv.value for kv in ds.kv.items()} for ds in stores]
    assert live[0] == live[1]
    # the batched path never commits more revisions than the logical stream
    assert stores[1].kv.revision <= stores[0].kv.revision
