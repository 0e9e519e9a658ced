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
    # interference, decision_statistic and simulate_trials live in tests/oracle.py
    for name in ("interference", "decision_statistic", "simulate_trials"):
        assert name not in weylcdma.sim.__all__ and not hasattr(weylcdma, name), name
