"""The benchmark's hold on the program: every name ``perfbench/spans.py`` rebinds
still exists, and one ``analytic`` pass of ``perfbench/workloads.py`` checks clean.

The benchmark modules are loaded by file path; nothing under ``perfbench/`` runs
beyond one pass.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in spans.SPANS + spans.COUNTS],
                         ids=lambda v: getattr(v, "__name__", v))
def test_traced_names_are_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_one_analytic_pass_checks_clean(tmp_path):
    workload = workloads.WORKLOADS["analytic"]
    inputs = workload.make_inputs(0)
    outcome = workload.check(inputs, workload.run_pass(inputs, tmp_path), workloads.load_reference())
    assert outcome.attempted > 0
    assert outcome.failed == 0
