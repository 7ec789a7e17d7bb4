"""Unit tests for the model zoo, profiles, and registry."""

import pytest

from repro.cluster import GPUTypeSpec, PCIeModel
from repro.models import (
    PAPER_BATCH_SIZE,
    TABLE1,
    TABLE1_ROWS,
    BatchRegression,
    ModelInstance,
    ModelProfile,
    ProfileRegistry,
    get_profile,
    model_names,
    paper_profiles,
)


class TestTable1:
    def test_has_22_models(self):
        assert len(TABLE1_ROWS) == 22
        assert len(TABLE1) == 22

    def test_rows_sorted_by_occupation_size(self):
        sizes = [size for _, size, _, _ in TABLE1_ROWS]
        assert sizes == sorted(sizes)

    def test_known_anchor_rows(self):
        assert TABLE1["squeezenet1.1"] == (1269, 2.41, 1.28)
        assert TABLE1["vgg19"] == (3947, 4.07, 1.33)
        assert TABLE1["inception.v3"] == (2157, 4.42, 1.63)

    def test_get_profile_reproduces_table_values(self):
        p = get_profile("resnet50")
        assert p.occupied_mb == 1701
        assert p.load_time_s == 2.67
        assert p.infer_time_s == pytest.approx(1.28)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_profile("gpt4")

    def test_paper_profiles_cover_all_names(self):
        assert set(paper_profiles()) == set(model_names())

    def test_all_load_times_exceed_inference_times(self):
        """Table I invariant the LALB policy exploits: loads cost more than inference."""
        for _, _, load, infer in TABLE1_ROWS:
            assert load > infer


class TestBatchRegression:
    def test_anchor_reproduces_value_at_32(self):
        reg = BatchRegression.from_anchor(1.28)
        assert reg.time_for(PAPER_BATCH_SIZE) == pytest.approx(1.28)

    def test_monotone_in_batch_size(self):
        reg = BatchRegression.from_anchor(1.28)
        assert reg.time_for(1) < reg.time_for(16) < reg.time_for(64)

    def test_fit_recovers_line(self):
        truth = BatchRegression(intercept=0.5, slope=0.01)
        batches = [1, 8, 16, 32]
        times = [truth.time_for(b) for b in batches]
        fitted = BatchRegression.fit(batches, times)
        assert fitted.intercept == pytest.approx(0.5)
        assert fitted.slope == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "times, intercept, slope",
        [
            # unconstrained intercept < 0: the fit through the origin
            ([0.004, 0.010, 0.040], 0.0, 0.184 / 21),
            # unconstrained slope < 0: the flat fit at the mean
            ([0.05, 0.02, 0.03], 0.1 / 3, 0.0),
        ],
        ids=["through_origin", "flat"],
    )
    def test_fit_refits_when_a_coefficient_hits_zero(self, times, intercept, slope):
        """Clamping a negative coefficient to 0 is not enough: the other one
        is refitted, giving the non-negative least-squares optimum."""
        fitted = BatchRegression.fit([1, 2, 4], times)
        assert fitted.intercept == pytest.approx(intercept)
        assert fitted.slope == pytest.approx(slope)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            BatchRegression.fit([32], [1.0])

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchRegression.from_anchor(1.0).time_for(0)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            BatchRegression(intercept=-1.0, slope=0.1)
        with pytest.raises(ValueError):
            BatchRegression(intercept=0.0, slope=0.0)

    def test_invalid_anchor_args(self):
        with pytest.raises(ValueError):
            BatchRegression.from_anchor(0.0)
        with pytest.raises(ValueError):
            BatchRegression.from_anchor(1.0, fixed_fraction=1.5)


class TestModelProfile:
    def test_validation(self):
        reg = BatchRegression.from_anchor(1.0)
        with pytest.raises(ValueError):
            ModelProfile("m", occupied_mb=0, load_time_s=1.0, regression=reg)
        with pytest.raises(ValueError):
            ModelProfile("m", occupied_mb=100, load_time_s=0, regression=reg)

    def test_on_gpu_type_scales_latencies(self):
        p = get_profile("vgg19")
        fast = p.on_gpu_type("a100", speed_factor=0.5, load_factor=0.25)
        assert fast.gpu_type == "a100"
        assert fast.infer_time_s == pytest.approx(p.infer_time_s * 0.5)
        assert fast.load_time_s == pytest.approx(p.load_time_s * 0.25)
        assert fast.occupied_mb == p.occupied_mb  # memory footprint unchanged

    def test_on_gpu_type_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            get_profile("vgg19").on_gpu_type("x", speed_factor=0.0)


class TestModelInstance:
    def test_instance_delegates_to_profile(self):
        inst = ModelInstance("fn-7", get_profile("alexnet"), tenant="acme")
        assert inst.occupied_mb == 1437
        assert inst.architecture == "alexnet"
        assert inst.tenant == "acme"

    def test_instances_with_same_profile_are_distinct_cache_items(self):
        p = get_profile("alexnet")
        a = ModelInstance("fn-1", p)
        b = ModelInstance("fn-2", p)
        assert a != b
        assert a.instance_id != b.instance_id


class TestProfileRegistry:
    def test_from_table1_baseline(self):
        reg = ProfileRegistry.from_table1()
        assert len(reg) == 22
        assert reg.gpu_types() == {"rtx2080"}
        assert reg.get("vgg16", "rtx2080").occupied_mb == 3907

    def test_heterogeneous_types_derived(self):
        a100 = GPUTypeSpec(
            name="a100",
            memory_mb=40000,
            pcie=PCIeModel(bandwidth_mb_s=6456.0, fixed_overhead_s=0.8),
            speed_factor=0.4,
        )
        reg = ProfileRegistry.from_table1([a100])
        assert len(reg) == 44
        base = reg.get("resnet152", "rtx2080")
        fast = reg.get("resnet152", "a100")
        assert fast.infer_time_s == pytest.approx(base.infer_time_s * 0.4)
        assert fast.load_time_s < base.load_time_s

    def test_missing_profile_message_mentions_profiling(self):
        reg = ProfileRegistry.from_table1()
        with pytest.raises(KeyError, match="profiling procedure"):
            reg.get("resnet50", "h100")

    def test_baseline_duplicate_type_not_doubled(self):
        reg = ProfileRegistry.from_table1([GPUTypeSpec()])  # same name as baseline
        assert len(reg) == 22
