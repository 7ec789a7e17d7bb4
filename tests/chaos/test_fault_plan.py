"""FaultPlan construction: seeded determinism and validation.

A plan is pure data; every guarantee downstream (byte-identical chaos
replays, the differential suite's fault arms, the sweep's fault axis)
rests on ``build_fault_plan`` being a pure function of (profile, seed,
horizon, gpus).
"""

from dataclasses import dataclass, replace

import pytest

from repro.chaos import FAULT_PROFILES, FaultPlan, build_fault_plan
from repro.chaos.plan import (
    DEFAULT_HORIZON_S,
    GPUCrash,
    LeaseExpiry,
    Straggler,
)
from repro.runtime import SystemConfig


class TestSeededProfiles:
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_same_arguments_same_plan(self, profile):
        a = build_fault_plan(profile, seed=7, horizon_s=100.0, gpus=8)
        b = build_fault_plan(profile, seed=7, horizon_s=100.0, gpus=8)
        assert a == b  # frozen dataclasses: field-for-field equality

    def test_different_seeds_differ(self):
        a = build_fault_plan("recoverable", seed=0)
        b = build_fault_plan("recoverable", seed=1)
        assert a != b

    def test_none_profile_is_empty(self):
        plan = build_fault_plan("none", seed=3)
        assert len(plan) == 0
        assert plan.end_s == 0.0

    def test_recoverable_profile_always_heals(self):
        for seed in range(5):
            plan = build_fault_plan("recoverable", seed=seed)
            assert len(plan) == 4
            for fault in plan:
                if isinstance(fault, GPUCrash):
                    assert fault.recover_after_s is not None
            # every fault lands strictly inside the horizon
            assert all(0 < f.at_s < DEFAULT_HORIZON_S for f in plan)

    def test_severe_profile_has_a_permanent_crash(self):
        plan = build_fault_plan("severe", seed=0)
        permanent = [
            f for f in plan
            if isinstance(f, GPUCrash) and f.recover_after_s is None
        ]
        assert len(permanent) == 1

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            build_fault_plan("blast-radius")

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            build_fault_plan("recoverable", horizon_s=0.0)
        with pytest.raises(ValueError):
            build_fault_plan("recoverable", gpus=0)


class TestValidation:
    def test_negative_injection_time_rejected(self):
        plan = FaultPlan(
            "bad", faults=(LeaseExpiry(at_s=-1.0, gpu_index=0, duration_s=2.0),)
        )
        with pytest.raises(ValueError, match="at_s"):
            plan.validate()

    def test_sub_unity_straggler_rejected(self):
        plan = FaultPlan(
            "bad", faults=(Straggler(at_s=1.0, gpu_index=0, factor=0.5, duration_s=2.0),)
        )
        with pytest.raises(ValueError, match="factor"):
            plan.validate()

    def test_nonpositive_duration_rejected(self):
        plan = FaultPlan(
            "bad", faults=(LeaseExpiry(at_s=1.0, gpu_index=0, duration_s=0.0),)
        )
        with pytest.raises(ValueError, match="duration_s"):
            plan.validate()

    def test_unknown_fault_kind_rejected(self):
        @dataclass(frozen=True)
        class DiskFull:
            at_s: float

        plan = FaultPlan("bad", faults=(DiskFull(at_s=1.0),))
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan.validate()
        with pytest.raises(ValueError, match="unknown fault kind"):
            SystemConfig(fault_plan=plan)

    def test_end_s_covers_recovery_and_windows(self):
        plan = FaultPlan(
            "spans",
            faults=(
                GPUCrash(at_s=10.0, gpu_index=0, recover_after_s=25.0),
                Straggler(at_s=20.0, gpu_index=1, factor=2.0, duration_s=5.0),
            ),
        )
        assert plan.end_s == 35.0
        # a permanent crash contributes only its injection time
        permanent = FaultPlan(
            "perm", faults=(GPUCrash(at_s=12.0, gpu_index=0),)
        )
        assert permanent.end_s == 12.0


#: one well-formed fault of every shipped kind
WELL_FORMED = {
    "crash": GPUCrash(at_s=5.0, gpu_index=0, recover_after_s=10.0),
    "straggler": Straggler(at_s=5.0, gpu_index=1, factor=2.0, duration_s=8.0),
    "lease_expiry": LeaseExpiry(at_s=5.0, gpu_index=2, duration_s=6.0),
}


class TestValidationPerKind:
    @pytest.mark.parametrize("kind", sorted(WELL_FORMED))
    def test_well_formed_fault_validates_and_configures(self, kind):
        plan = FaultPlan(kind, faults=(WELL_FORMED[kind],))
        plan.validate()
        assert SystemConfig(fault_plan=plan).fault_plan is plan

    @pytest.mark.parametrize("kind", sorted(WELL_FORMED))
    def test_negative_injection_time_rejected(self, kind):
        fault = replace(WELL_FORMED[kind], at_s=-0.5)
        with pytest.raises(ValueError, match="at_s"):
            FaultPlan("bad", faults=(fault,)).validate()

    @pytest.mark.parametrize("kind", ["straggler", "lease_expiry"])
    @pytest.mark.parametrize("duration_s", [0.0, -3.0])
    def test_windowed_kind_needs_a_positive_duration(self, kind, duration_s):
        fault = replace(WELL_FORMED[kind], duration_s=duration_s)
        with pytest.raises(ValueError, match="duration_s"):
            FaultPlan("bad", faults=(fault,)).validate()

    @pytest.mark.parametrize(
        "factor, ok", [(0.0, False), (0.99, False), (1.0, True), (6.0, True)]
    )
    def test_straggler_factor_boundary(self, factor, ok):
        plan = FaultPlan("s", faults=(replace(WELL_FORMED["straggler"], factor=factor),))
        if ok:
            plan.validate()
        else:
            with pytest.raises(ValueError, match="factor"):
                plan.validate()

    @pytest.mark.parametrize(
        "record",
        [None, {"at_s": 1.0}, "crash", (1.0, 0)],
        ids=["none", "dict", "str", "tuple"],
    )
    def test_non_fault_record_rejected(self, record):
        plan = FaultPlan("bad", faults=(WELL_FORMED["crash"], record))
        with pytest.raises(ValueError, match="unknown fault kind"):
            plan.validate()

    @pytest.mark.parametrize(
        "fault, end_s",
        [
            (WELL_FORMED["crash"], 15.0),
            (GPUCrash(at_s=7.0, gpu_index=0), 7.0),
            (WELL_FORMED["straggler"], 13.0),
            (WELL_FORMED["lease_expiry"], 11.0),
        ],
        ids=["crash-recovers", "crash-permanent", "straggler", "lease_expiry"],
    )
    def test_end_s_of_one_fault(self, fault, end_s):
        assert FaultPlan("one", faults=(fault,)).end_s == end_s

    @pytest.mark.parametrize("profile", ["recoverable", "severe"])
    def test_profiles_draw_only_shipped_kinds(self, profile):
        kinds = {
            type(fault)
            for seed in range(5)
            for fault in build_fault_plan(profile, seed=seed)
        }
        assert kinds == {GPUCrash, Straggler, LeaseExpiry}
