"""The package namespace: ``weylcdma`` re-exports every public name of its modules."""

import importlib

import pytest

import weylcdma


@pytest.mark.parametrize("module", ["sequences", "correlation", "phase_opt", "snr", "sim"])
def test_package_reexports_module_all(module):
    mod = importlib.import_module(f"weylcdma.{module}")
    for name in mod.__all__:
        assert getattr(weylcdma, name, None) is getattr(mod, name), name
