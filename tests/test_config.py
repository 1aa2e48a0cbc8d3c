"""Config files: parsing, the ExperimentConfig overlay, and bank build, which reads them as every subcommand does."""

import hashlib

import numpy as np
import pytest

from rstcnn import ConfigError, ExperimentConfig, build_network, init_coeffs, parse_config_text, read_bank
from rstcnn.cli import main
from rstcnn.config import DEFAULTS, experiment_fields

# a small network; its bank build containers were pinned at the commit before
# bank build read its file through the subcommands' shared merge
PIN_CFG = """
layers = 3
channels = 2
K = 4
N_r = 4
N_s = 5
T = 0.75
L = 7
L_theta = 2
L_alpha = 3
seed = 3
"""
PIN_SHA256 = {
    0: "3801dcc2c107c9396162ccf47f0d1da7ce1c5c5c762a78821a330888ba5f6356",
    1: "965ea0f8b64202811a9c513c98c0dafc7bdc5c299ce1935322b3b4b51fdfc3bc",
}


def network_from_text(text):
    # the path every subcommand takes: parse, overlay a preset, build the first sweep cell
    cfg = ExperimentConfig(kind="bank-build", **experiment_fields(parse_config_text(text)))
    return build_network(cfg, cfg.k_list[0], cfg.l_alpha_list[0], seed=cfg.seeds[0])


def bank_build(tmp_path, text, layer):
    cfg = tmp_path / "net.cfg"
    cfg.write_text(text)
    out = tmp_path / f"bank{layer}.rst"
    return main(["bank", "build", "--config", str(cfg), "--out", str(out), "--layer", str(layer)]), out


def test_defaults_fill_missing_keys():
    values = parse_config_text("")
    assert values == DEFAULTS
    net = network_from_text("")
    assert net.depth == 5
    assert net.n_rotations == 8 and net.n_scales == 9
    assert net.layers[0].in_channels == 1 and net.layers[0].out_channels == 1
    assert net.layers[1].L_theta == 4 and net.layers[1].L_alpha == 1
    assert net.layers[0].layer_scale == 2.0 and net.seed == 0


def test_parse_comments_blanks_and_values():
    text = """
    # a comment line
    layers = 2
    K = 5          # trailing comment
    T = 0.5

    L_alpha=3
    j = 2.5
    seed = 7
    """
    values = parse_config_text(text)
    assert values["layers"] == 2
    assert values["K"] == 5
    assert values["T"] == 0.5
    assert values["L_alpha"] == 3
    assert values["j"] == 2.5
    assert values["N_r"] == DEFAULTS["N_r"]
    net = network_from_text(text)
    assert net.depth == 2 and net.layers[0].K == 5 and net.seed == 7
    assert net.layers[1].L_alpha == 3
    assert net.layers[1].n_scale == 3
    assert net.scale_range == 0.5
    assert [spec.layer_scale for spec in net.layers] == [2.5, 2.5]


def test_parse_errors_name_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("layers = 2\nno equals sign here")
    with pytest.raises(ConfigError, match="line 1: unknown key 'pitch'"):
        parse_config_text("pitch = 3")
    with pytest.raises(ConfigError, match="line 3: bad value for K"):
        parse_config_text("layers = 2\n\nK = many")


def test_bank_build_rejects_bad_shapes(tmp_path, capsys):
    for line, detail in (("layers = 0", "layers"), ("L = 8", "stencil"), ("L_theta = 3", "L_theta=3")):
        code, out = bank_build(tmp_path, line + "\n", 0)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("config error:") and detail in err and err.count("\n") == 1
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config_text("bogus = 1")


def test_bank_build_reads_config_files(tmp_path, capsys):
    text = "layers = 2\nchannels = 2\nK = 5\nL = 5\n"
    code, out = bank_build(tmp_path, text, 1)
    assert code == 0 and "wrote" in capsys.readouterr().out
    arc = read_bank(out)
    assert arc.bank.K == 5 and arc.bank.stencil == 5
    assert arc.meta["layer"] == 1 and arc.meta["seed"] == 0 and arc.meta["source"] == "net.cfg"
    (coeffs,) = arc.coeffs
    want = init_coeffs(network_from_text(text))[1]
    assert coeffs.a.shape == (2, 2, 5, 9, 1)
    assert np.array_equal(coeffs.a, want.a) and np.array_equal(coeffs.b, want.b)
    assert bank_build(tmp_path, text, 2)[0] == 2  # depth 2
    assert "outside depth 2" in capsys.readouterr().err


@pytest.mark.parametrize("layer", sorted(PIN_SHA256))
def test_bank_build_container_bytes_are_pinned(tmp_path, layer):
    code, out = bank_build(tmp_path, PIN_CFG, layer)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PIN_SHA256[layer]
