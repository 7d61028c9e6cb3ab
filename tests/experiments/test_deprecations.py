"""The ``ExperimentConfig.speeds`` deprecation shim: warns loudly, behaves identically."""

import warnings

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.summary import scalars_equal


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        topology="ring",
        topology_kwargs={"n": 8},
        duration=80.0,
        rho=0.5,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_speeds_kwarg_warns_and_maps_to_site_speeds():
    with pytest.warns(DeprecationWarning, match="speeds"):
        cfg = _cfg(speeds=[1.0, 2.0])
    assert cfg.speeds is None
    assert cfg.site_speeds == [1.0, 2.0]


def test_speeds_kwarg_equivalent_to_site_speeds():
    with pytest.warns(DeprecationWarning):
        legacy = run_experiment(_cfg(speeds=[1.0, 2.0]))
    modern = run_experiment(_cfg(site_speeds=[1.0, 2.0]))
    assert scalars_equal(legacy.scalar_metrics(), modern.scalar_metrics())


def test_site_speeds_alone_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        _cfg(site_speeds=[1.0, 2.0])
        _cfg()


def test_run_experiment_default_path_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_experiment(_cfg(duration=40.0))
