"""Table I: model profiles (paper transcription + wall-clock re-profiling).

Regenerates the occupation-size / loading-time / inference-latency table
and re-runs the §IV-A profiling procedure on the miniature NumPy networks.
"""

from repro.experiments import format_table1, table1_from_paper, table1_wallclock
from repro.models import TABLE1_ROWS
from repro.models.nn import build_model
from repro.models.profiler import profile_network


def test_table1_paper_profiles(benchmark):
    profiles = benchmark(table1_from_paper)
    assert len(profiles) == 22
    text = format_table1(profiles)
    assert "vgg19" in text and "squeezenet1.1" in text
    # the published invariant the schedulers rely on: loading > inference
    assert all(p.load_time_s > p.infer_time_s for p in profiles.values())


def test_table1_wallclock_profiling(benchmark):
    """Run the real profiling procedure on three representative families.

    Best-of-5 timings per batch size: a busy machine slows single runs,
    and the minimum is the estimator load disturbs least."""
    profiles = benchmark(
        table1_wallclock,
        architectures=["squeezenet1.1", "resnet50", "vgg19"],
        batch_sizes=(1, 2, 4),
    )
    # relative compute must rank like the real families
    assert (
        profiles["squeezenet1.1"].infer_time(4)
        < profiles["resnet50"].infer_time(4)
        < profiles["vgg19"].infer_time(4)
    )
    assert all(p.load_time_s > 0 for p in profiles.values())


def test_table1_batch_regression_quality(benchmark):
    """The fitted regression must interpolate the measured points sensibly."""

    def profile_one():
        return profile_network(
            build_model("alexnet"), batch_sizes=(1, 2, 4, 8), repeats=2
        )

    wp = benchmark(profile_one)
    fitted = [wp.profile.regression.time_for(b) for b in wp.batch_sizes]
    measured = list(wp.measured_s)
    # mean relative error of the linear fit should be small
    errs = [abs(f - m) / max(m, 1e-9) for f, m in zip(fitted, measured)]
    assert sum(errs) / len(errs) < 0.5


def test_table1_rows_are_size_sorted():
    sizes = [size for _, size, _, _ in TABLE1_ROWS]
    assert sizes == sorted(sizes)
