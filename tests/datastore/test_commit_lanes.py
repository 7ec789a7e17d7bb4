"""The store's commit lanes agree with each other (hypothesis).

One batch of control-plane writes can reach the MVCC store two ways:
``KVStore.apply_batch`` (the reference) and ``Datastore.flush`` (which
applies the entries in line, with or without a lease in the batch).
Every path must leave the same live rows, revision counter, history and
ephemeral-write count — with the schema's hot prefixes history-free, as
every Datastore commits them, and with them patched to ``()``, as the
differential suite's ``history`` arm does.  The remaining
tests pin the reads the kept MVCC machinery serves: ``range(limit=)``,
historical reads across ``compact`` and the sliding auto-compaction
horizon.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datastore.client as client_module
from repro.datastore import EPHEMERAL_HOT_PREFIXES, CompactedError, Datastore, KVStore
from repro.sim import Simulator

#: keys of both schema tiers: MVCC rows, then history-free hot rows
KEYS = ["fn/meta/a", "fn/meta/b", "fn/invocations/m", "gpu/status/g0", "gpu/lru/g0"]
#: the hot prefixes a Datastore is built with
TIERS = [
    pytest.param((), id="durable"),
    pytest.param(EPHEMERAL_HOT_PREFIXES, id="ephemeral"),
]

_keys = st.sampled_from(KEYS)
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


def _datastore(prefixes: tuple[str, ...], **kwargs) -> Datastore:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client_module, "EPHEMERAL_HOT_PREFIXES", prefixes)
        ds = Datastore(Simulator(), **kwargs)
    assert ds.kv.ephemeral_prefixes == prefixes
    return ds


def _fill(ds: Datastore, batch) -> None:
    for op in batch:
        if op[0] == "put":
            ds.put(op[1], op[2])
        else:
            ds.delete(op[1])


@pytest.mark.parametrize("prefixes", TIERS)
@settings(max_examples=60, deadline=None)
@given(_batches)
def test_lease_free_flush_matches_apply_batch(prefixes, batches):
    reference = KVStore(ephemeral_prefixes=prefixes)
    ds = _datastore(prefixes)
    commits = 0
    for batch in batches:
        expected = reference.apply_batch(batch)
        commits += expected.revision is not None
        _fill(ds, batch)
        assert ds.flush() == expected.count
        assert _fingerprint(ds.kv) == _fingerprint(reference)
    assert ds.stats.flushes == commits


@pytest.mark.parametrize("prefixes", TIERS)
@settings(max_examples=40, deadline=None)
@given(_batches)
def test_leased_flush_matches_lease_free_flush(prefixes, batches):
    """A lease in the batch attaches to its key and changes nothing else."""
    hb = "gpu/status/g9"  # in whichever tier ``prefixes`` puts it
    plain, leased = _datastore(prefixes), _datastore(prefixes)
    lease = leased.leases.grant(100.0)
    for batch in batches:
        for ds in (plain, leased):
            _fill(ds, batch)
        plain.put(hb, len(batch))
        leased.put(hb, len(batch), lease=lease)
        assert plain.flush() == leased.flush()
        assert _fingerprint(plain.kv) == _fingerprint(leased.kv)
    assert lease.keys == ({hb} if batches else set())


@settings(max_examples=60, deadline=None)
@given(_batches)
def test_ephemeral_tier_keeps_the_live_view_and_revisions(batches):
    """Routing the hot prefixes through the fast lane changes metadata and
    history only: the same values are live at the same revision."""
    durable = KVStore()
    ephemeral = KVStore(ephemeral_prefixes=EPHEMERAL_HOT_PREFIXES)
    for batch in batches:
        durable.apply_batch(batch)
        ephemeral.apply_batch(batch)
    assert ephemeral.revision == durable.revision
    values = lambda s: {kv.key: kv.value for kv in s.items()}  # noqa: E731
    assert values(ephemeral) == values(durable)
    assert not [k for k in ephemeral._history if k.startswith(EPHEMERAL_HOT_PREFIXES)]
    for kv in ephemeral.items():
        if ephemeral.is_ephemeral(kv.key):
            assert (kv.create_revision, kv.version) == (kv.mod_revision, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_op, max_size=30),
    st.sampled_from(["", "fn/", "fn/meta/", "gpu/", "gpu/status/g0", "q"]),
    st.one_of(st.none(), st.integers(0, 6)),
)
def test_range_is_the_sorted_prefix_slice(ops, prefix, limit):
    store = KVStore(ephemeral_prefixes=EPHEMERAL_HOT_PREFIXES)
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
    before = {
        (rev, key): store.get(key, revision=rev)
        for rev in range(store.revision + 1)
        for key in KEYS
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
    windowed = _datastore(prefixes, autocompact_keep=keep)
    full = _datastore(prefixes)
    for batch in batches:
        for ds in (windowed, full):
            _fill(ds, batch)
            ds.flush()
        kv = windowed.kv
        assert kv.revision - kv.compacted_revision <= 2 * keep
    assert _rows(windowed.kv) == _rows(full.kv)
    assert windowed.kv.revision == full.kv.revision
    assert windowed.kv.history_entry_count() <= full.kv.history_entry_count()
