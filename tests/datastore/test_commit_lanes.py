"""The store's commit lanes agree with each other (hypothesis).

One batch of control-plane writes can reach the MVCC store two ways:
``KVStore.apply_batch`` (the reference) and ``WriteBatch.flush`` (which
applies the entries in line, with or without a lease in the batch).
Every path must leave the same live rows, revision counter, history and
ephemeral-write count.  The remaining
tests pin the reads the kept MVCC machinery serves: ``delete_prefix``,
``range(limit=)``, historical reads across ``compact`` and the sliding
auto-compaction horizon.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import CompactedError, Datastore, KVStore, WriteBatch
from repro.sim import Simulator

TIERS = [
    pytest.param((), id="durable"),
    pytest.param(("e/",), id="ephemeral"),
]

_keys = st.sampled_from(["a", "b", "c", "e/0", "e/1"])
_op = st.one_of(
    st.tuples(st.just("put"), _keys, st.integers(0, 9)),
    st.tuples(st.just("delete"), _keys),
)
_batches = st.lists(st.lists(_op, max_size=8), max_size=12)


def _rows(store: KVStore) -> dict:
    return {kv.key: tuple(kv) for kv in store.items()}


def _fingerprint(store: KVStore) -> tuple:
    return (
        store.revision,
        _rows(store),
        store.history_entry_count(),
        store.ephemeral_writes,
    )


def _fill(wb: WriteBatch, batch) -> None:
    for op in batch:
        if op[0] == "put":
            wb.put(op[1], op[2])
        else:
            wb.delete(op[1])


@pytest.mark.parametrize("prefixes", TIERS)
@settings(max_examples=60, deadline=None)
@given(_batches)
def test_lease_free_flush_matches_apply_batch(prefixes, batches):
    reference = KVStore(ephemeral_prefixes=prefixes)
    flushed = KVStore(ephemeral_prefixes=prefixes)
    wb = WriteBatch(flushed)
    for batch in batches:
        expected = reference.apply_batch(batch)
        _fill(wb, batch)
        commit = wb.flush()
        assert commit.revision == expected.revision
        assert commit.count == expected.count
        assert _fingerprint(flushed) == _fingerprint(reference)


@pytest.mark.parametrize("prefixes", TIERS)
@settings(max_examples=40, deadline=None)
@given(_batches)
def test_leased_flush_matches_lease_free_flush(prefixes, batches):
    """A lease in the batch attaches to its key and changes nothing else."""
    sims = [Simulator(), Simulator()]
    plain, leased = (Datastore(sim, ephemeral_prefixes=prefixes) for sim in sims)
    lease = leased.leases.grant(100.0)
    for batch in batches:
        for ds in (plain, leased):
            _fill(ds.pending, batch)
        plain.pending.put("hb", len(batch))
        leased.pending.put("hb", len(batch), lease=lease)
        a, b = plain.pending.flush(), leased.pending.flush()
        assert a == b
        assert _fingerprint(plain.kv) == _fingerprint(leased.kv)
    assert lease.keys == ({"hb"} if batches else set())


@settings(max_examples=60, deadline=None)
@given(_batches)
def test_ephemeral_tier_keeps_the_live_view_and_revisions(batches):
    """Routing ``e/*`` through the fast lane changes metadata and history
    only: the same values are live at the same revision."""
    durable, ephemeral = KVStore(), KVStore(ephemeral_prefixes=("e/",))
    for batch in batches:
        durable.apply_batch(batch)
        ephemeral.apply_batch(batch)
    assert ephemeral.revision == durable.revision
    values = lambda s: {kv.key: kv.value for kv in s.items()}  # noqa: E731
    assert values(ephemeral) == values(durable)
    assert not [k for k in ephemeral._history if k.startswith("e/")]
    for kv in ephemeral.range("e/"):
        assert (kv.create_revision, kv.version) == (kv.mod_revision, 1)


@pytest.mark.parametrize("prefixes", TIERS)
@settings(max_examples=40, deadline=None)
@given(st.lists(_op, max_size=30), st.sampled_from(["", "a", "e/", "e/1", "z"]))
def test_delete_prefix_is_one_batch_of_deletes(prefixes, ops, prefix):
    one, other = KVStore(ephemeral_prefixes=prefixes), KVStore(ephemeral_prefixes=prefixes)
    for store in (one, other):
        store.apply_batch(ops)
    victims = [k for k in other.keys() if k.startswith(prefix)]
    assert one.delete_prefix(prefix) == len(victims)
    other.apply_batch([("delete", k) for k in victims])
    assert _fingerprint(one) == _fingerprint(other)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_op, max_size=30),
    st.sampled_from(["", "a", "e/", "e/0", "q"]),
    st.one_of(st.none(), st.integers(0, 6)),
)
def test_range_is_the_sorted_prefix_slice(ops, prefix, limit):
    store = KVStore(ephemeral_prefixes=("e/",))
    for op in ops:
        store.apply_batch([op])
    matching = sorted(k for k in store.keys() if k.startswith(prefix))
    expected = matching if limit is None else matching[:limit]
    assert [kv.key for kv in store.range(prefix, limit=limit)] == expected


@settings(max_examples=60, deadline=None)
@given(_batches, st.integers(0, 12))
def test_compaction_keeps_every_read_at_or_above_the_horizon(batches, at):
    store = KVStore()
    for batch in batches:
        store.apply_batch(batch)
    horizon = min(at, store.revision)
    keys = ["a", "b", "c", "e/0", "e/1"]
    before = {
        (rev, key): store.get(key, revision=rev)
        for rev in range(store.revision + 1)
        for key in keys
    }
    store.compact(horizon)
    for (rev, key), kv in before.items():
        if rev < horizon:
            with pytest.raises(CompactedError):
                store.get(key, revision=rev)
        else:
            assert store.get(key, revision=rev) == kv


@pytest.mark.parametrize("prefixes", TIERS)
@pytest.mark.parametrize("keep", [1, 4])
@settings(max_examples=30, deadline=None)
@given(_batches)
def test_autocompaction_bounds_history_and_spares_the_live_view(prefixes, keep, batches):
    windowed = Datastore(Simulator(), batched=True, ephemeral_prefixes=prefixes,
                         autocompact_keep=keep)
    full = Datastore(Simulator(), batched=True, ephemeral_prefixes=prefixes)
    for batch in batches:
        for ds in (windowed, full):
            _fill(ds.pending, batch)
            ds.flush()
        kv = windowed.kv
        assert kv.revision - kv.compacted_revision <= 2 * keep
    assert _rows(windowed.kv) == _rows(full.kv)
    assert windowed.kv.revision == full.kv.revision
    assert windowed.kv.history_entry_count() <= full.kv.history_entry_count()
