"""The benchmark's workloads still run and pass their own output checks."""

import importlib.util
from pathlib import Path

import pytest

from rstcnn import fig3_config, run_equivariance_sweep

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


@pytest.mark.parametrize("seed", [0, 1])
def test_stored_sweep_rows_of_seeds_0_and_1_still_hold(workloads, seed):
    # the rows of perfbench/sweep_reference.csv that benchmark rounds 0 and 1
    # check, under the benchmark's own check_sweep (relative 1e-6, inf only
    # over a zero reference slice); the file is only read
    reference = workloads.load_reference()
    for K, L_alpha in workloads.SWEEP_CELLS:
        cfg = fig3_config(k_list=(K,), l_alpha_list=(L_alpha,), seeds=(seed,))
        assert all((K, L_alpha, seed, layer) in reference for layer in range(1, cfg.layers + 1))
        failures, _ = workloads.check_sweep(run_equivariance_sweep(cfg), cfg, reference)
        assert failures == []
