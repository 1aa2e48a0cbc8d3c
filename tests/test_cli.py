"""Command-line interface: exit codes, file outputs, path resolution."""

import json
import os
import struct

import numpy as np
import pytest

from rstcnn import parse_sweep_csv, read_bank
from rstcnn.cli import main
from rstcnn.data import synthetic_blob_set, write_idx

TINY_NET_CFG = """
layers = 2
channels = 1
K = 3
N_r = 4
N_s = 5
T = 1.0
L = 5
L_theta = 2
L_alpha = 1
seed = 0
"""


@pytest.fixture
def net_cfg(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(TINY_NET_CFG)
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "basis" in capsys.readouterr().out


def test_bad_usage_exits_two(capsys):
    assert main([]) == 2
    assert main(["equi"]) == 2
    assert main(["equi", "sweep", "--no-such-flag"]) == 2
    capsys.readouterr()
    # the convolutions derive their own thread count; no subcommand takes one
    for argv in (["equi", "sweep"], ["stab", "trials"]):
        assert main(argv + ["--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err


def test_basis_validate_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["basis", "validate", "--k-list", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["K"] == 3
    # stdout default
    assert main(["basis", "validate", "--k-list", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_equi_sweep_identity_zero(tmp_path, net_cfg):
    out = tmp_path / "sweep.csv"
    code = main(
        ["equi", "sweep", "--config", net_cfg, "--out", str(out),
         "--eta", "0", "--beta", "0", "--height", "24", "--width", "24"]
    )
    assert code == 0
    text = out.read_text()
    assert "# kind = equivariance-sweep" in text
    rows = parse_sweep_csv(text)
    assert len(rows) == 2  # one seed, two layers
    assert all(err == 0.0 for *_k, err in rows)


def test_equi_sweep_flags_override_config(tmp_path, net_cfg):
    out = tmp_path / "sweep.csv"
    code = main(
        ["equi", "sweep", "--config", net_cfg, "--out", str(out), "--seeds", "0,1",
         "--k-list", "3", "--eta", "0", "--beta", "0", "--height", "24", "--width", "24"]
    )
    assert code == 0
    rows = parse_sweep_csv(out.read_text())
    assert sorted({r[2] for r in rows}) == [0, 1]


def test_unknown_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["equi", "sweep", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bank_build_round_trip(tmp_path, net_cfg, capsys):
    out = tmp_path / "bank.rst"
    assert main(["bank", "build", "--config", net_cfg, "--out", str(out), "--layer", "1"]) == 0
    assert "wrote" in capsys.readouterr().out
    arc = read_bank(out)
    assert arc.bank.K == 3 and arc.bank.stencil == 5
    assert arc.meta["layer"] == 1 and arc.meta["source"] == "net.cfg"
    assert len(arc.coeffs) == 1
    assert arc.coeffs[0].a.shape[2] == 3


def test_bank_build_requires_config_and_valid_layer(tmp_path, net_cfg, capsys):
    assert main(["bank", "build", "--out", str(tmp_path / "b.rst")]) == 2
    assert main(["bank", "build", "--config", net_cfg, "--out", str(tmp_path / "b.rst"), "--layer", "7"]) == 2
    capsys.readouterr()


def test_stab_trials_pass(tmp_path, net_cfg):
    out = tmp_path / "stab.json"
    code = main(["stab", "trials", "--config", net_cfg, "--trials", "1", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["violations"] == 0
    assert len(body["trials"]) == 1
    assert body["trials"][0]["violation"] is False


def test_stab_trials_flag_overrides_config_seed(tmp_path, net_cfg):
    # defaults <- config file <- flags: --trials wins over the file's seed key
    out = tmp_path / "stab.json"
    assert main(["stab", "trials", "--config", net_cfg, "--trials", "2", "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert len(body["trials"]) == 2
    assert body["config"]["seeds"] == [0, 1]


def test_stab_trials_violation_exits_three(tmp_path, net_cfg, monkeypatch):
    from rstcnn import experiments
    from rstcnn.analysis import StabilityReport

    fake = StabilityReport(
        lhs=1.0, rhs=0.5, beta=-0.5, L=2, j_L=1.0, sup_tau=0.1, sup_grad_tau=0.02,
        per_layer_errors=(0.5, 1.0), allowance=0.05, violation=True, vacuous=False,
    )
    monkeypatch.setattr(experiments, "run_stability_trials", lambda cfg: ([fake], True))
    out = tmp_path / "stab.json"
    assert main(["stab", "trials", "--config", net_cfg, "--trials", "1", "--out", str(out)]) == 3
    assert json.loads(out.read_text())["violations"] == 1


def test_bounds_report(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(
        ["bounds", "report", "--k-list", "3", "--seeds", "0", "--channels", "1",
         "--l-alpha-list", "1", "--out", str(out)]
    )
    assert code == 2  # --channels / --l-alpha-list are not bounds flags
    code = main(["bounds", "report", "--k-list", "3", "--seeds", "0", "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["ok"] is True and body["worst_ratio"] <= 1.02


def test_data_rs_make_with_env_dir(tmp_path, monkeypatch, capsys):
    write_idx(tmp_path / "im.idx", tmp_path / "lb.idx", synthetic_blob_set(2, 12, 12, seed=0))
    monkeypatch.setenv("RSTCNN_DATA_DIR", str(tmp_path))
    prefix = str(tmp_path / "out")
    code = main(
        ["data", "rs-make", "--idx-images", "im.idx", "--idx-labels", "lb.idx",
         "--out", prefix, "--seed", "3", "--upsize", "16"]
    )
    assert code == 0
    assert "2 images at 16x16" in capsys.readouterr().out
    from rstcnn import read_idx

    ds = read_idx(prefix + ".images.idx", prefix + ".labels.idx")
    assert ds.images.shape == (2, 1, 16, 16)


def test_truncated_idx_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">4I", 0x803, 5, 9, 9) + b"\x00" * 10)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">2I", 0x801, 5) + bytes(5))
    code = main(
        ["data", "rs-make", "--idx-images", str(bad), "--idx-labels", str(lab),
         "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exits_four(tmp_path, capsys):
    code = main(
        ["data", "rs-make", "--idx-images", str(tmp_path / "nope.idx"),
         "--idx-labels", str(tmp_path / "nope2.idx"), "--out", str(tmp_path / "o")]
    )
    assert code == 4
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cause, detail, cfg_lines",
    [
        (["equi", "sweep", "--beta", "0.3", "--height", "24", "--width", "24"], "off-lattice group element", "beta=0.3", ""),
        (["stab", "trials", "--trials", "1", "--grad-levels", "0.3"], "certificate assumption violated", "(A3)", ""),
        (["equi", "sweep", "--k-list", "600", "--height", "24", "--width", "24"], "basis pool exhausted", "K=600", ""),
        (["equi", "sweep", "--height", "16", "--width", "16", "--margin", "8"], "config error", "margin=8", ""),
        (["equi", "sweep", "--margin", "-3"], "config error", "margin=-3", ""),
        (["equi", "sweep", "--layers", "0"], "config error", "layers", ""),
        (["equi", "sweep", "--height", "24", "--width", "24"], "config error", "stencil", "L = 1\n"),
        (["equi", "sweep", "--seeds", "-1"], "config error", "seeds", ""),
        (["bounds", "report", "--seeds", "-1"], "config error", "seeds", ""),
        (["basis", "validate", "--k-list", "0"], "config error", "k_list", ""),
        (["stab", "trials", "--trials", "1", "--grad-levels=-0.1"], "config error", "grad_levels", ""),
        (["stab", "trials", "--trials", "1", "--grad-levels", ","], "config error", "grad_levels", ""),
        (["stab", "trials", "--trials", "1", "--grad-levels", "nan"], "config error", "grad_levels", ""),
        (["equi", "sweep", "--eta", "nan"], "config error", "eta must be finite", ""),
        (["equi", "sweep", "--vx", "nan"], "config error", "v must be finite", ""),
        (["stab", "trials", "--beta", "inf"], "config error", "beta must be finite", ""),
        (["equi", "sweep", "--height", "24", "--width", "24"], "config error", "layer_scale", "j = nan\n"),
        (["bounds", "report"], "config error", "layer_scale", "j = inf\n"),
        (["equi", "sweep", "--height", "24", "--width", "24", "--vx", "1e10"], "config error", "v=(10000000000.0, 0.0)", ""),
        (["equi", "sweep", "--height", "24", "--width", "24", "--vx", "1e300"], "config error", "v=(1e+300, 0.0)", ""),
    ],
    ids=["off-lattice", "assumption", "pool-exhaustion", "margin-too-wide", "margin-negative", "layers-zero",
         "stencil-one", "sweep-seed-negative", "bounds-seed-negative", "k-list-zero", "grad-level-negative",
         "grad-levels-empty", "grad-level-nan", "eta-nan", "vx-nan", "beta-inf", "sweep-j-nan", "bounds-j-inf",
         "vx-off-canvas", "vx-1e300"],
)
def test_bad_input_exits_two_naming_the_cause(net_cfg, capsys, argv, cause, detail, cfg_lines):
    with open(net_cfg, "a") as fh:
        fh.write(cfg_lines)  # a later key wins over the fixture's
    assert main(argv + ["--config", net_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cause}:") and detail in err
    assert err.count("\n") == 1


def test_unsupported_bessel_order_exits_two(net_cfg, monkeypatch, capsys):
    from rstcnn import experiments
    from rstcnn.bessel import MAX_ORDER, bessel_j

    # no CLI flag reaches an order past MAX_ORDER, so the sweep calls one directly
    monkeypatch.setattr(experiments, "run_equivariance_sweep", lambda cfg: bessel_j(MAX_ORDER + 1, 1.0))
    assert main(["equi", "sweep", "--config", net_cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unsupported Bessel order:") and str(MAX_ORDER + 1) in err
    assert err.count("\n") == 1


CHARACTER_CFG = TINY_NET_CFG + "j = 2.5\n"

# the fields a CHARACTER_CFG file sets on every experiment
CHARACTER_FIELDS = dict(
    layers=2, channels=1, k_list=(3,), n_rotations=4, n_scales=5, scale_range=1.0, stencil=5,
    L_theta=2, l_alpha_list=(1,), seeds=(0,), layer_scale=2.5,
)

_RUNNERS = {
    "equivariance-sweep": ("run_equivariance_sweep", ""),
    "stability-trials": ("run_stability_trials", ([], False)),
    "bounds-report": ("run_bounds_report", {"ok": True}),
    "basis-validate": ("run_basis_validate", {"ok": True}),
}


@pytest.fixture
def captured_config(monkeypatch):
    """Run main(argv) with the experiment runners stubbed; return the ExperimentConfig it built."""
    from rstcnn import experiments

    def run(argv):
        seen = []
        for name, result in _RUNNERS.values():
            monkeypatch.setattr(experiments, name, lambda cfg, result=result: seen.append(cfg) or result)
        assert main(argv) == 0
        assert len(seen) == 1
        return seen[0]

    return run


def _character_cases(cfg, data_dir):
    """(argv, expected ExperimentConfig fields) per experiment subcommand."""
    out = ["--out", os.path.join(data_dir, "out.txt")]
    every_sweep_flag = [
        "--k-list", "3,5", "--l-alpha-list", "1,2", "--seeds", "4,2", "--layers", "3",
        "--channels", "2", "--eta", "0.5", "--beta", "-1", "--vx", "1.5", "--vy", "-2",
        "--margin", "3", "--height", "30", "--width", "32", "--idx-images", "im.idx",
        "--idx-labels", os.path.join(data_dir, "abs.idx"), "--kind", "sl",
    ]
    sweep_fields = dict(
        k_list=(3, 5), l_alpha_list=(1, 2), seeds=(4, 2), layers=3, channels=2, eta=0.5, beta=-1.0,
        v=(1.5, -2.0), margin=3, height=30, width=32, idx_images=os.path.join(data_dir, "im.idx"),
        idx_labels=os.path.join(data_dir, "abs.idx"), spatial_kind="sl",
    )
    stab_flags = ["--trials", "3", "--grad-levels", "0.01,0.2", "--beta", "0", "--eta", "0.25",
                  "--channels", "3"]
    stab_fields = dict(seeds=(0, 1, 2), grad_levels=(0.01, 0.2), beta=0.0, eta=0.25, channels=3)
    stab_preset = dict(layers=3, k_list=(5,), seeds=tuple(range(20)))
    return [
        # equi sweep: the fig3 preset, flags alone, the file alone, file then flags
        (["equi", "sweep"], "equivariance-sweep", {}),
        (["equi", "sweep"] + every_sweep_flag + out, "equivariance-sweep", sweep_fields),
        (["equi", "sweep", "--config", cfg], "equivariance-sweep", CHARACTER_FIELDS),
        (["equi", "sweep", "--config", cfg] + every_sweep_flag + out, "equivariance-sweep",
         {**CHARACTER_FIELDS, **sweep_fields}),
        (["equi", "sweep", "--vx", "1.5"], "equivariance-sweep", dict(v=(1.5, 0.0))),
        (["equi", "sweep", "--vy", "-2"], "equivariance-sweep", dict(v=(0.0, -2.0))),
        # stab trials: its preset, and --trials (default 20) always sets the seeds
        (["stab", "trials"], "stability-trials", stab_preset),
        (["stab", "trials"] + stab_flags + out, "stability-trials", {**stab_preset, **stab_fields}),
        (["stab", "trials", "--config", cfg], "stability-trials",
         {**stab_preset, **CHARACTER_FIELDS, "seeds": tuple(range(20))}),
        (["stab", "trials", "--config", cfg] + stab_flags + out, "stability-trials",
         {**stab_preset, **CHARACTER_FIELDS, **stab_fields}),
        # bounds report
        (["bounds", "report"], "bounds-report", {}),
        (["bounds", "report", "--k-list", "4,3", "--seeds", "1,0", "--kind", "sl"] + out, "bounds-report",
         dict(k_list=(4, 3), seeds=(1, 0), spatial_kind="sl")),
        (["bounds", "report", "--config", cfg, "--k-list", "4", "--seeds", "2", "--kind", "sl"] + out,
         "bounds-report", {**CHARACTER_FIELDS, "k_list": (4,), "seeds": (2,), "spatial_kind": "sl"}),
        # basis validate
        (["basis", "validate"], "basis-validate", {}),
        (["basis", "validate", "--config", cfg, "--k-list", "4", "--kind", "sl"] + out, "basis-validate",
         {**CHARACTER_FIELDS, "k_list": (4,), "spatial_kind": "sl"}),
    ]


def test_experiment_config_merge_characterization(tmp_path, monkeypatch, captured_config):
    # preset <- config file <- flags, with relative dataset paths under $RSTCNN_DATA_DIR
    from rstcnn.experiments import ExperimentConfig

    cfg = tmp_path / "net.cfg"
    cfg.write_text(CHARACTER_CFG)
    monkeypatch.setenv("RSTCNN_DATA_DIR", str(tmp_path))
    for argv, kind, fields in _character_cases(str(cfg), str(tmp_path)):
        assert captured_config(argv) == ExperimentConfig(kind=kind, **fields), argv


def test_experiment_config_paths_without_data_dir(tmp_path, monkeypatch, captured_config):
    from rstcnn.experiments import ExperimentConfig

    monkeypatch.delenv("RSTCNN_DATA_DIR", raising=False)
    argv = ["equi", "sweep", "--idx-images", "im.idx", "--idx-labels", "lb.idx"]
    want = ExperimentConfig(kind="equivariance-sweep", idx_images="im.idx", idx_labels="lb.idx")
    assert captured_config(argv) == want


# parser dests that are not ExperimentConfig fields
NON_FIELD_DESTS = {"config", "out", "vx", "vy", "func", "group", "command"}


@pytest.mark.parametrize(
    "argv", [["equi", "sweep"], ["stab", "trials"], ["bounds", "report"], ["basis", "validate"]], ids="-".join
)
def test_experiment_flags_are_named_after_fields(argv):
    # a flag whose dest names no field would be silently ignored by the merge; the
    # subcommand, not a flag, sets the experiment kind
    from dataclasses import fields

    from rstcnn.cli import build_parser
    from rstcnn.experiments import ExperimentConfig

    dests = set(vars(build_parser().parse_args(argv)))
    assert dests - NON_FIELD_DESTS <= {f.name for f in fields(ExperimentConfig)} - {"kind"}


# ExperimentConfig fields that no flag or config key sets (--vx/--vy set v)
SET_FROM_PYTHON = {"kind", "upsize", "grid_n", "v"}


def test_every_experiment_field_is_settable():
    # a field that no flag and no config key reaches is a knob no run can turn
    from dataclasses import fields

    from rstcnn.cli import build_parser
    from rstcnn.config import KNOWN_KEYS, experiment_fields
    from rstcnn.experiments import ExperimentConfig

    parser = build_parser()
    dests = set()
    for argv in (["equi", "sweep"], ["stab", "trials"], ["bounds", "report"], ["basis", "validate"]):
        dests |= set(vars(parser.parse_args(argv)))
    keys = set(experiment_fields(dict.fromkeys(KNOWN_KEYS, 1)))
    assert {f.name for f in fields(ExperimentConfig)} - dests - keys == SET_FROM_PYTHON
