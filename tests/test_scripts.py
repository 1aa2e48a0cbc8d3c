"""Smoke runs of the scripts in scripts/, each through its main()."""

import importlib.util
import json
from pathlib import Path

import pytest

from rstcnn import parse_sweep_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_five_layer_sweep_script(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load_script("run_five_layer_sweep").main(["--seeds", "0", "--out", str(out)]) == 0
    rows = parse_sweep_csv(out.read_text())
    # K in {5, 10} x L_alpha in {1, 3}, one seed, five layers
    assert sorted({r[:2] for r in rows}) == [(5, 1), (5, 3), (10, 1), (10, 3)]
    assert len(rows) == 4 * 5
    assert "median relative equivariance error over seeds" in capsys.readouterr().out


def test_stability_demo_script(tmp_path, capsys):
    out = tmp_path / "stab.json"
    assert load_script("run_stability_demo").main(["--trials", "2", "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert len(body["trials"]) == 2 and body["violations"] == 0
    assert "0 violations in 2 trials" in capsys.readouterr().out


@pytest.mark.parametrize(
    "script, argv, cause",
    [
        ("run_stability_demo", ["--trials", "1", "--beta", "0.3"], "off-lattice group element: beta=0.3"),
        ("run_stability_demo", ["--trials", "0"], "config error: seeds must be non-empty"),
        ("run_five_layer_sweep", ["--seeds", "0,x"], "argument --seeds: expected comma-separated integers, got '0,x'"),
    ],
    ids=["stab-off-lattice-beta", "stab-zero-trials", "sweep-bad-seed"],
)
def test_scripts_exit_two_naming_the_cause(tmp_path, capsys, script, argv, cause):
    out = tmp_path / "out"
    # the scripts run through the CLI, so bad input exits as the CLI does: 2, one stderr line, no output
    assert load_script(script).main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert cause in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("script", ["run_stability_demo", "run_five_layer_sweep"])
def test_scripts_reject_an_unknown_flag_in_one_line(tmp_path, capsys, script):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        load_script(script).main(["--foo", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --foo" in captured.err and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()
