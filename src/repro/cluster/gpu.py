"""GPU device model: memory residency, busy/idle state, SM accounting.

A :class:`GPUDevice` is the mechanical substrate under the paper's GPU
Manager, and the one owner of a GPU's state:

* which model instances are resident and how much memory each holds —
  the paper runs one GPU process per cached model (§III-C), so a resident
  model *is* its process: admitting one starts it, evicting one kills it,
* whether the GPU is idle, uploading a model (PCIe busy, SM idle) or
  executing inference (SM busy) — the paper's GPU Managers enforce one
  request at a time per GPU (§III-C), so the device's state is also the
  state of whichever process it is serving,
* cumulative time per state, from which §V-C's SM utilization is computed.

The device itself never makes policy decisions; eviction and dispatch
belong to the Cache Manager and Scheduler.
"""

from __future__ import annotations

import enum

from ..sim import Simulator

__all__ = ["GPUState", "GPUDevice", "GPUMemoryError"]


class GPUMemoryError(RuntimeError):
    """Raised when a reservation would exceed device memory (OOM guard)."""


class GPUState(enum.Enum):
    IDLE = "idle"
    LOADING = "load"     # uploading a model over PCIe; SM idle
    INFERRING = "infer"  # executing a batch; SM busy
    OFFLINE = "offline"  # failed / drained; unschedulable


class GPUDevice:
    """One physical GPU.

    Parameters
    ----------
    gpu_id:
        Cluster-unique identifier, e.g. ``"node0/cuda:1"``.
    memory_mb:
        Usable device memory.  Default 7800 MB models an RTX 2080 (8 GB)
        minus driver/context reserve, matching the paper's testbed where
        2–5 of the Table I models fit per GPU.
    gpu_type:
        Profile key for heterogeneous clusters (§VI): devices of the same
        type share model load/inference profiles.
    """

    def __init__(
        self,
        sim: Simulator,
        gpu_id: str,
        *,
        memory_mb: float = 7800.0,
        gpu_type: str = "rtx2080",
        node_id: str = "node0",
    ) -> None:
        if memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        self.sim = sim
        self.gpu_id = gpu_id
        self.node_id = node_id
        self.gpu_type = gpu_type
        self.memory_mb = float(memory_mb)
        self.state = GPUState.IDLE
        # state flags as plain attributes: the scheduling passes probe
        # is_idle tens of times per pass, so a property call would be a
        # measurable share of the pass cost.  _set_state keeps them exact.
        self.is_idle = True
        self.is_busy = False
        self.is_online = True
        self._resident: dict[str, float] = {}  # model_instance -> occupied MB
        self._used_mb = 0.0
        # seconds per state, closed up to _since.  Keyed by the state value
        # strings, read via the enum's _value_ slot: interned-string
        # hashing is C-level, while both Enum.value (a
        # DynamicClassAttribute) and Enum.__hash__ are Python-level — this
        # runs on every busy/idle transition.  Every state starts with a
        # total, so _set_state closes an interval with one add.
        self._seconds = dict.fromkeys([s._value_ for s in GPUState], 0.0)
        self._since = sim.now
        self._completed_requests = 0
        #: the owning Cluster, whose views _set_state keeps exact in line,
        #: and this GPU's index in its use-frequency order
        self._cluster = None
        self._rank = 0
        # array-backed lifecycle slots, stamped at construction by the
        # owning GPUManager (node-local) and Scheduler (cluster-wide): the
        # hot execute → _loaded → _start_inference → _finished chain and
        # the dispatch plumbing index preallocated lists with these instead
        # of hashing gpu_id strings into per-manager dicts on every event
        self._mgr_slot = 0
        self._sched_slot = 0

    @property
    def completed_requests(self) -> int:
        """Use-frequency for Alg. 1's idle-GPU ordering."""
        return self._completed_requests

    @completed_requests.setter
    def completed_requests(self, value: int) -> None:
        self._completed_requests = value
        cluster = self._cluster
        if cluster is not None:
            cluster.version += 1
            cluster._refile(self)

    # ------------------------------------------------------------------
    # Memory & residency
    # ------------------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.memory_mb - self._used_mb

    def resident_models(self) -> list[str]:
        """Model instances currently occupying device memory."""
        return list(self._resident)

    def has_model(self, model_instance: str) -> bool:
        return model_instance in self._resident

    def admit(self, model_instance: str, occupied_mb: float) -> None:
        """Reserve memory for ``model_instance`` (start its GPU process).

        Raises :class:`GPUMemoryError` if the model does not fit — callers
        (the Cache Manager) must evict victims first; the device never
        silently oversubscribes, mirroring the OOM-avoidance guarantee.
        """
        if model_instance in self._resident:
            raise ValueError(f"{model_instance} already resident on {self.gpu_id}")
        if occupied_mb > self.memory_mb:
            raise GPUMemoryError(
                f"{model_instance} ({occupied_mb} MB) can never fit on "
                f"{self.gpu_id} ({self.memory_mb} MB)"
            )
        if occupied_mb > self.free_mb + 1e-9:
            raise GPUMemoryError(
                f"{model_instance} needs {occupied_mb} MB but {self.gpu_id} "
                f"has only {self.free_mb:.0f} MB free"
            )
        mb = self._resident[model_instance] = float(occupied_mb)
        self._used_mb += mb

    def evict(self, model_instance: str, *, force: bool = False) -> None:
        """Kill the process hosting ``model_instance`` and release its memory.

        Refused while the GPU is loading or inferring unless ``force`` —
        only failure handling forces (the in-flight request is re-queued
        elsewhere).
        """
        if model_instance not in self._resident:
            raise KeyError(f"{model_instance} is not resident on {self.gpu_id}")
        if not force and (self.state is GPUState.LOADING or self.state is GPUState.INFERRING):
            raise RuntimeError(
                f"cannot evict {model_instance} on {self.gpu_id}: {self.state.value} in flight"
            )
        self._used_mb -= self._resident.pop(model_instance)
        if self._used_mb < 1e-9:
            self._used_mb = 0.0

    # ------------------------------------------------------------------
    # Busy / idle state machine
    # ------------------------------------------------------------------
    def begin_loading(self) -> None:
        self._transition(GPUState.IDLE, GPUState.LOADING)

    def begin_inference(self) -> None:
        if self.state is GPUState.INFERRING:
            raise RuntimeError(f"{self.gpu_id} already inferring")
        self._set_state(GPUState.INFERRING)

    def become_idle(self) -> None:
        if self.state is GPUState.OFFLINE:
            raise RuntimeError(f"{self.gpu_id} is offline; bring it online first")
        self._set_state(GPUState.IDLE)

    def go_offline(self) -> None:
        """Fail or drain the GPU (allowed from any state)."""
        self._set_state(GPUState.OFFLINE)

    def come_online(self) -> None:
        if self.state is not GPUState.OFFLINE:
            raise RuntimeError(f"{self.gpu_id} is not offline")
        self._set_state(GPUState.IDLE)

    def _transition(self, expected: GPUState, to: GPUState) -> None:
        if self.state is not expected:
            raise RuntimeError(f"{self.gpu_id}: expected {expected}, was {self.state}")
        self._set_state(to)

    def _set_state(self, to: GPUState) -> None:
        # close the current state's interval, then update the owning
        # cluster's views in line: two of these run per request
        now = self.sim._now
        self._seconds[self.state._value_] += now - self._since
        self._since = now
        was_idle = self.is_idle
        self.state = to
        idle = self.is_idle = to is GPUState.IDLE
        self.is_busy = not idle
        self.is_online = to is not GPUState.OFFLINE
        cluster = self._cluster
        if cluster is not None:
            cluster.version += 1
            cluster.idle_count += idle - was_idle  # +1, -1 or 0
            if idle:  # the one transition after a completion-count bump
                cluster._refile(self)

    # ------------------------------------------------------------------
    # SM-utilization accounting (paper §V-C)
    # ------------------------------------------------------------------
    def time_in(self, state: GPUState) -> float:
        """Seconds spent in ``state``, the open interval included."""
        seconds = self._seconds[state._value_]
        if state is self.state:
            seconds += self.sim.now - self._since
        return seconds

    def sm_utilization(self, horizon: float | None = None) -> float:
        """Fraction of elapsed time the SMs were executing inference.

        Loading time counts *against* utilization — "the SM utilization
        remains zero until the victim model becomes evicted and the new
        model is uploaded" (§V-C).
        """
        elapsed = horizon if horizon is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return self.time_in(GPUState.INFERRING) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GPUDevice {self.gpu_id} {self.state.value} "
            f"{self._used_mb:.0f}/{self.memory_mb:.0f} MB "
            f"models={sorted(self._resident)}>"
        )
