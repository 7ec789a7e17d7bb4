"""KV history windowing: ``Datastore(autocompact_keep=N)``.

The etcd ``--auto-compaction`` analogue: a long replay normally retains
every historical KeyValue.  With the sliding
horizon enabled, history below ``revision - keep`` is compacted away after
each flush (with 2×keep hysteresis), bounding datastore memory — and,
because compaction never touches live keys, the scheduling decisions must
be bit-for-bit unchanged.  ``SystemConfig(retention=N)`` sets the horizon
along with the latency-record and metrics windows; the store is swapped
under the runtime here so only compaction varies.
"""

import random

import pytest

import repro.runtime.system as system_module
from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest
from repro.datastore import Datastore
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig
from tests.spec.datastore import WriteThroughDatastore

SEED = 20230731
N_REQUESTS = 1200
#: more models than the three GPUs can hold, drawn uniformly: the replay
#: keeps loading and evicting, and those ``cache/locations/*``
#: publications are what fills the MVCC history — the per-action status
#: keys are history-free and never reach it
N_FUNCTIONS = 60
KEEP = 150


def _workload(seed: int):
    rng = random.Random(seed)
    spec = []
    t = 0.0
    for _ in range(N_REQUESTS):
        t += rng.expovariate(2.0) if rng.random() < 0.05 else rng.expovariate(1 / 0.035)
        spec.append((rng.randrange(N_FUNCTIONS), t))
    return spec


def _run(keep: int | None, spec, track_peak: bool = False, batched: bool = True):
    # the runtime always batches; the write-through arm swaps in the spec
    cls = Datastore if batched else WriteThroughDatastore

    def store(sim, **kwargs):
        return cls(sim, **{**kwargs, "autocompact_keep": keep})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(system_module, "Datastore", store)
        system = FaaSCluster(
            SystemConfig(cluster=ClusterSpec.homogeneous(1, 3), policy="lalbo3")
        )
    assert type(system.datastore) is cls
    peak = {"history": 0}
    if track_peak:
        kv = system.datastore.kv

        def history_len() -> None:
            peak["history"] = max(peak["history"], kv.history_entry_count())

        system.sim.subscribe_post_event(history_len)
    names = model_names()
    instances = [
        ModelInstance(f"m{i}", get_profile(names[i % len(names)]))
        for i in range(N_FUNCTIONS)
    ]
    # every run numbers its requests 1..n: both arms compare raw
    for row, (fn, t) in enumerate(spec):
        system.submit_at(InferenceRequest(f"fn{fn}", instances[fn], t, row + 1))
    system.run()
    assert len(system.completed) == N_REQUESTS
    return system, list(system.scheduler.decisions), peak["history"]


@pytest.mark.parametrize("batched", (True, False))
def test_history_stays_bounded_and_decisions_unchanged(batched):
    """The horizon is checked after each flush on the batched path and
    after each event on the write-through spec (which never flushes)."""
    spec = _workload(SEED)
    baseline_system, baseline_decisions, _ = _run(None, spec, batched=batched)
    compacted_system, compacted_decisions, peak_history = _run(
        KEEP, spec, track_peak=True, batched=batched
    )

    kv = compacted_system.datastore.kv
    baseline_kv = baseline_system.datastore.kv

    # same revision stream — compaction discards history, never writes
    assert kv.revision == baseline_kv.revision
    assert kv.compacted_revision > 0

    # the sliding horizon held: never more than 2x keep revisions of
    # replayable history (+ the revisions one event handler can commit)
    assert kv.revision - kv.compacted_revision <= 2 * KEEP + 30

    # the history was actually windowed, not just trimmed at the end
    baseline_history = baseline_kv.history_entry_count()
    assert baseline_history > 4 * KEEP  # workload long enough to matter
    assert peak_history < baseline_history
    assert kv.history_entry_count() < baseline_history / 2

    # ... and the control plane never noticed
    assert compacted_decisions == baseline_decisions


def test_live_state_survives_compaction():
    spec = _workload(SEED + 1)
    baseline_system, _, _ = _run(None, spec)
    compacted_system, _, _ = _run(KEEP, spec)
    b, c = baseline_system.datastore.kv, compacted_system.datastore.kv
    live = {kv.key: kv.value for kv in c.items()}
    assert live == {kv.key: kv.value for kv in b.items()}
    assert any(key.startswith("fn/latency/") for key in live)


def test_retention_is_off_by_default():
    assert SystemConfig().retention is None
    assert FaaSCluster().datastore.autocompact_keep is None


def test_retention_validation():
    with pytest.raises(ValueError):
        SystemConfig(retention=0)
