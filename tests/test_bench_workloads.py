"""The benchmark's workloads still run and pass their own output checks."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# one unit of each kind: a fig3 sweep cell, the criterion-5 report, a criterion-8 bounds report
UNITS = ("sweep_K5_La1", "nonexp_K5_La1", "K10_La3")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_setup_runs(workloads):
    for setup, _ in workloads.WORKLOADS.values():
        setup()


@pytest.mark.parametrize("unit", UNITS)
def test_one_unit_of_each_kind_passes_its_check(workloads, unit):
    # perfbench/run.py runs these at workload seed 0; a dropped name or a moved
    # stored fig3 error fails here rather than in a benchmark run
    units = {name: (run, check) for _, make_units in workloads.WORKLOADS.values() for name, run, check in make_units(0)}
    run, check = units[unit]
    failures, _ = check(run())
    assert failures == []
