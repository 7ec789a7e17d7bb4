"""Unit tests for etcd extensions: bounded ranges."""

import pytest

from repro.datastore import KVStore


@pytest.fixture
def store():
    s = KVStore()
    for k in ("a", "b", "c", "x/1", "x/2", "x/3"):
        s.put(k, k.upper())
    return s


class TestBoundedRange:
    def test_limit_truncates(self, store):
        got = store.range("x/", limit=2)
        assert [kv.key for kv in got] == ["x/1", "x/2"]

    def test_limit_none_returns_all(self, store):
        assert len(store.range("x/")) == 3

    def test_limit_zero(self, store):
        assert store.range("x/", limit=0) == []

    def test_negative_limit_rejected(self, store):
        with pytest.raises(ValueError):
            store.range("x/", limit=-1)
