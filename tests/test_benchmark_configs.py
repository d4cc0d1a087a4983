"""The benchmark's workloads still build a valid config.

``benchmarks/workloads.py`` resolves each workload's bundled recipe the
way the CLI does and sets ``trials``, ``workers`` and ``master_seed`` on
top.  A change that removes or renames one of those fields, or a recipe
key, would fail every benchmark run; building the configs here puts that
check in the default test run.  Only ``benchmarks/`` is read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import asymx

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_its_config(name):
    workload = workloads.WORKLOADS[name]
    for master_seed in workloads.master_seeds(7)[:2]:
        config = workloads.make_config(asymx, workload, master_seed)
        overrides = workload.values(master_seed)
        assert (config.trials, config.workers, config.master_seed) == (
            int(overrides["trials"]), int(overrides["workers"]), master_seed)
