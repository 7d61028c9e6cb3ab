"""Measuring the machine's slowdown against the reference machine."""

import speed


def test_slowdown_follows_mean_pass_time_over_the_reference():
    ref = speed.REFERENCE_S
    assert speed.slowdown([ref, ref]) == 1.0
    assert speed.slowdown([ref, 3 * ref]) == 2.0 ** speed.SENSITIVITY


def test_sample_runs_at_least_one_pass():
    passes = speed.sample(0.0)
    assert len(passes) == 1 and passes[0] > 0.0
