"""History-free hot keys, differentially tested against full MVCC.

:class:`FaaSCluster` always commits the schema's hot prefixes
(``EPHEMERAL_HOT_PREFIXES``) through the store's history-free lane — no
MVCC history, no event-log records, no lineage.  Every scheduling input
is a *live* read, so that may change costs but never behaviour.  The
reference arm is the same system over a full-history ``KVStore()``,
obtained by monkeypatching the one prefix constant ``FaaSCluster`` reads
to ``()`` (there is no production switch): on a seeded workload both
arms must produce identical DecisionLogs and an identical normalized
final key→value state across the write-path matrix (batched ×
pass-elision), through GPU failure/recovery, under a full chaos profile,
and under bounded retention.  The structural claim is asserted too: the
production arm leaves zero history entries and zero event-log records
under the hot prefixes.
"""

import pytest

import repro.runtime.system as system_module
from repro.cluster import ClusterSpec
from repro.core.request import InferenceRequest
from repro.datastore import EPHEMERAL_HOT_PREFIXES, EphemeralKeyError
from repro.experiments.bench import seeded_workload
from repro.models import ModelInstance, get_profile, model_names
from repro.runtime import FaaSCluster, SystemConfig
from repro.traces import WorkloadSpec, build_workload

SEED = 20230801  # arbitrary but frozen
N_FUNCTIONS = 30


def _workload(seed: int, n_requests: int):
    return seeded_workload(seed, n_requests, N_FUNCTIONS)


def _architecture(fn_idx: int) -> str:
    names = model_names()
    return names[fn_idx % len(names)]


def _run(
    spec,
    *,
    batched: bool = True,
    elide: bool = True,
    fail_gpu_at: float | None = None,
    **config_kwargs,
):
    system = FaaSCluster(
        SystemConfig(
            cluster=ClusterSpec.homogeneous(2, 4),
            policy="lalbo3",
            datastore_batching=batched,
            pass_elision=elide,
            **config_kwargs,
        )
    )
    instances = [
        ModelInstance(f"m{i}", get_profile(_architecture(i))) for i in range(N_FUNCTIONS)
    ]
    id_to_index = {}
    for index, (fn, t) in enumerate(spec):
        request = InferenceRequest(f"fn{fn}", instances[fn], arrival_time=t)
        id_to_index[request.request_id] = index
        system.submit_at(request)
    if fail_gpu_at is not None:
        gpu_id = system.cluster.gpus[2].gpu_id
        system.sim.schedule_at(fail_gpu_at, system.fail_gpu, gpu_id)
        system.sim.schedule_at(fail_gpu_at + 5.0, system.recover_gpu, gpu_id)
    system.run()
    decisions = [
        (d.time_s, d.kind, id_to_index[d.request_id], d.model_id, d.gpu_id, d.visits)
        for d in system.scheduler.decisions
    ]
    # normalize on *values*: history-free KeyValues are lineage-free by
    # design (create_revision == mod_revision, version pinned at 1), so
    # revision metadata is intentionally allowed to differ — what must
    # not differ is which keys are live and what they hold.  Request ids
    # come from a process-global counter: fold fn/latency/<request_id>
    # keys onto submission indices for cross-run comparison.
    state = {}
    for kv in system.datastore.kv.items():
        key = kv.key
        if key.startswith("fn/latency/"):
            key = f"fn/latency/#{id_to_index[int(key.rsplit('/', 1)[1])]}"
        state[key] = kv.value
    return system, decisions, state


@pytest.fixture
def differential(monkeypatch):
    """Replay one spec on the production path and on the full-history
    reference; assert decision and final-state equality plus the
    production arm's zero hot residue; return both systems."""

    def run_both(spec, **kwargs):
        production, dec, state = _run(spec, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(system_module, "EPHEMERAL_HOT_PREFIXES", ())
            reference, ref_dec, ref_state = _run(spec, **kwargs)
        assert reference.datastore.kv.ephemeral_prefixes == ()
        assert reference.datastore.kv.ephemeral_writes == 0
        assert dec == ref_dec
        assert state == ref_state
        _assert_no_hot_residue(production)
        return production, reference, dec

    return run_both


def _assert_no_hot_residue(system):
    kv = system.datastore.kv
    hot = [k for k in kv._history if k.startswith(EPHEMERAL_HOT_PREFIXES)]
    assert hot == []
    logged = [k for k in kv._event_keys if k.startswith(EPHEMERAL_HOT_PREFIXES)]
    assert logged == []
    assert kv.ephemeral_writes > 0


class TestHistoryFreeDifferential:
    def test_identical_decisions_and_state_through_gpu_failure(self, differential):
        spec = _workload(SEED, 2000)
        fail_at = spec[900][1]  # while the system is under load
        _, _, decisions = differential(spec, fail_gpu_at=fail_at)
        assert any(kind.value == "resubmit" for _, kind, *_ in decisions)

    @pytest.mark.parametrize("batched", (True, False))
    @pytest.mark.parametrize("elide", (True, False))
    def test_across_write_path_matrix(self, differential, batched, elide):
        """The lane composes with every (batched, elision) combination."""
        differential(_workload(SEED + 1, 1200), batched=batched, elide=elide)

    def test_under_chaos_profile(self, differential):
        """Fault injection exercises the health watchdog, leases, drains,
        and resubmission — none of which may observe the lane."""
        differential(_workload(SEED + 2, 1500), fault_profile="recoverable", seed=7)

    def test_under_bounded_retention(self, differential):
        """Autocompaction plus the latency-record sliding window: decisions
        and final values stay identical while the production store retains
        (near) zero history."""
        production, reference, _ = differential(
            _workload(SEED + 3, 1500), kv_autocompact_keep=300, latency_log_keep=300
        )
        assert (
            production.datastore.kv.history_entry_count()
            < reference.datastore.kv.history_entry_count()
        )


class TestProductionPath:
    def test_latency_window_stays_bounded_without_history_growth(self):
        keep = 100
        system, _, _ = _run(_workload(SEED + 4, 1500), latency_log_keep=keep)
        kv = system.datastore.kv
        latency_keys = [k for k in kv.keys() if k.startswith("fn/latency/")]
        # one window per GPU manager node; each bounded by `keep`
        assert latency_keys
        assert len(latency_keys) <= keep * len(system.cluster.nodes)
        assert not any(k.startswith("fn/latency/") for k in kv._history)

    def test_default_cluster_commits_hot_keys_history_free(self):
        """A default ``FaaSCluster()`` reports the four schema prefixes
        and a replay leaves nothing under them in history or event log."""
        assert EPHEMERAL_HOT_PREFIXES == (
            "gpu/status/", "gpu/finish_time/", "fn/latency/", "gpu/lru/"
        )
        system = FaaSCluster()
        kv = system.datastore.kv
        assert kv.ephemeral_prefixes == EPHEMERAL_HOT_PREFIXES
        system.submit_workload(build_workload(WorkloadSpec(working_set=15, minutes=3)))
        system.run()
        assert system.completed
        _assert_no_hot_residue(system)
        gpu_id = system.cluster.gpus[0].gpu_id
        assert kv.get_value(f"gpu/status/{gpu_id}") == "idle"
        with pytest.raises(EphemeralKeyError):
            kv.get(f"gpu/status/{gpu_id}", revision=1)
