"""Command-line interface: exit codes, file outputs, path resolution."""

import json
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
         "--eta", "0", "--beta", "0", "--height", "24", "--width", "24", "--workers", "2"]
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
    "argv, cause, detail",
    [
        (["equi", "sweep", "--beta", "0.3", "--height", "24", "--width", "24"], "off-lattice group element", "beta=0.3"),
        (["stab", "trials", "--trials", "1", "--grad-levels", "0.3"], "certificate assumption violated", "(A3)"),
        (["equi", "sweep", "--k-list", "600", "--height", "24", "--width", "24"], "basis pool exhausted", "K=600"),
    ],
    ids=["off-lattice", "assumption", "pool-exhaustion"],
)
def test_bad_input_exits_two_naming_the_cause(net_cfg, capsys, argv, cause, detail):
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
