"""Property: the cluster's views equal a recount from its devices.

Each GPU state change updates the owning :class:`Cluster` in line
(``idle_count``, ``version``) and re-files the GPU in the all-GPU
use-frequency order on its way back to idle.  Random sequences of device
transitions, completions and completion-count writes on a small cluster
check, after every step, every view the scheduler reads against a
recount from the devices, and each device's per-state time against a
reference :class:`~tests.spec.intervals.IntervalAccumulator` switched
alongside it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, GPUState, GPUTypeSpec, build_cluster
from repro.sim import Simulator
from tests.spec.intervals import IntervalAccumulator

N_GPUS = 5  # two nodes: 3 + 2

_gpu = st.integers(0, N_GPUS - 1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 1.0, 3.5])),
        st.tuples(st.just("begin_loading"), _gpu),
        st.tuples(st.just("begin_inference"), _gpu),
        st.tuples(st.just("become_idle"), _gpu),
        st.tuples(st.just("go_offline"), _gpu),
        st.tuples(st.just("come_online"), _gpu),
        # the GPU Manager's completion: bump the count, then flip to idle
        st.tuples(st.just("complete"), _gpu),
        st.tuples(st.just("bump"), _gpu),
        st.tuples(st.just("assign"), _gpu, st.integers(0, 6)),
    ),
    max_size=60,
)

#: transitions allowed only from one state, and transitions refused from
#: one state; every other (transition, state) pair is allowed
_REQUIRES = {
    "begin_loading": GPUState.IDLE,
    "come_online": GPUState.OFFLINE,
}
_FORBIDDEN = {
    "begin_inference": GPUState.INFERRING,
    "become_idle": GPUState.OFFLINE,
    "complete": GPUState.OFFLINE,
}
_TARGET = {
    "begin_loading": GPUState.LOADING,
    "begin_inference": GPUState.INFERRING,
    "become_idle": GPUState.IDLE,
    "go_offline": GPUState.OFFLINE,
    "come_online": GPUState.IDLE,
    "complete": GPUState.IDLE,
}


def _frequency_key(gpu):
    return (-gpu.completed_requests, gpu.gpu_id)


def _check(cluster, refs):
    gpus = cluster.gpus
    idle = [g for g in gpus if g.state is GPUState.IDLE]
    assert cluster.idle_count == len(idle)
    assert cluster.idle_gpus() == idle
    assert cluster.busy_gpus() == [g for g in gpus if g.state is not GPUState.IDLE]
    assert cluster.idle_gpus_by_frequency() == sorted(idle, key=_frequency_key)
    assert cluster.by_frequency == sorted(gpus, key=_frequency_key)
    for g in gpus:
        assert g.is_idle is (g.state is GPUState.IDLE)
        assert g.is_busy is not g.is_idle
        assert g.is_online is (g.state is not GPUState.OFFLINE)
        for state in GPUState:
            assert g.time_in(state) == refs[g.gpu_id].total(state._value_), (g, state)


def _apply(sim, cluster, refs, op):
    kind = op[0]
    if kind == "advance":
        sim.run(until=sim.now + op[1])
        return
    gpu = cluster.gpus[op[1]]
    if kind == "bump":
        gpu.completed_requests += 1
        return
    if kind == "assign":
        gpu.completed_requests = op[2]
        return
    required = _REQUIRES.get(kind)
    if (required is not None and gpu.state is not required) or gpu.state is _FORBIDDEN.get(kind):
        before = (gpu.state, cluster.idle_count, list(cluster.by_frequency))
        try:
            getattr(gpu, "become_idle" if kind == "complete" else kind)()
        except RuntimeError:
            pass
        else:  # pragma: no cover - the property failing
            raise AssertionError(f"{kind} from {before[0]} was accepted")
        assert (gpu.state, cluster.idle_count, list(cluster.by_frequency)) == before
        return
    if kind == "complete":
        gpu._completed_requests += 1
        gpu.become_idle()
    else:
        getattr(gpu, kind)()
    refs[gpu.gpu_id].switch(_TARGET[kind]._value_)


@given(_ops)
@settings(max_examples=200, deadline=None)
# a completion moving a GPU ahead of an idle one (the re-file)
@example([("begin_inference", 3), ("complete", 3)])
# a dispatch leaving the idle set (idle_count must drop)
@example([("begin_inference", 0)])
# time spent in a closed interval (the interval must be closed)
@example([("advance", 1.0), ("begin_loading", 1), ("advance", 0.25), ("begin_inference", 1)])
def test_cluster_views_equal_a_recount_from_the_devices(ops):
    sim = Simulator()
    cluster = build_cluster(sim, ClusterSpec(nodes=((3, GPUTypeSpec()), (2, GPUTypeSpec()))))
    refs = {}
    for g in cluster.gpus:
        ref = refs[g.gpu_id] = IntervalAccumulator(sim)
        ref.start(GPUState.IDLE._value_)
    _check(cluster, refs)
    for op in ops:
        _apply(sim, cluster, refs, op)
        _check(cluster, refs)
