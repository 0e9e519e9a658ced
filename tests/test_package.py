"""The package namespace: ``weylcdma`` re-exports every public name of its modules."""

import importlib

import pytest

import weylcdma


@pytest.mark.parametrize("module", ["sequences", "correlation", "phase_opt", "snr", "sim"])
def test_package_reexports_module_all(module):
    mod = importlib.import_module(f"weylcdma.{module}")
    for name in mod.__all__:
        assert getattr(weylcdma, name, None) is getattr(mod, name), name


def test_scalar_oracle_is_not_exported():
    # interference, decision_statistic, simulate_trials and the scalar theta helpers live in
    # tests/oracle.py; snr.LinkBudget is only the benchmark's alias, outside snr.__all__
    for module, name in (("sim", "interference"), ("sim", "decision_statistic"),
                         ("sim", "simulate_trials"), ("correlation", "periodic_theta"),
                         ("correlation", "odd_theta_hat"), ("snr", "LinkBudget")):
        mod = importlib.import_module(f"weylcdma.{module}")
        assert name not in mod.__all__ and not hasattr(weylcdma, name), name
    assert not hasattr(weylcdma.correlation, "periodic_theta")
    assert not hasattr(weylcdma.correlation, "odd_theta_hat")
