"""Experiment runners: determinism, presets, CSV/JSON serialization."""

import json
import math
import os

import numpy as np
import pytest

from rstcnn import (
    ConfigError,
    ExperimentConfig,
    build_network,
    fig3_config,
    layer_bank,
    parse_sweep_csv,
    run_basis_validate,
    run_bounds_report,
    run_equivariance_sweep,
    run_stability_trials,
    stability_config,
    stability_json,
    sweep_input,
)
from rstcnn.data import synthetic_blob_set, write_idx
from rstcnn.experiments import INPUT_SALT


def tiny_sweep_config(**overrides):
    base = dict(
        kind="equivariance-sweep",
        layers=2,
        channels=1,
        k_list=(3,),
        l_alpha_list=(1,),
        seeds=(0, 1),
        n_rotations=4,
        n_scales=3,
        L_theta=2,
        stencil=5,
        eta=0.0,
        beta=0.0,
        v=(0.0, 0.0),
        height=24,
        width=24,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig(kind="frobnicate")
    with pytest.raises(ConfigError, match="k_list"):
        tiny_sweep_config(k_list=())
    with pytest.raises(ConfigError, match="distinct"):
        tiny_sweep_config(seeds=(1, 1))
    with pytest.raises(ConfigError, match="together"):
        tiny_sweep_config(idx_images="a.idx")
    with pytest.raises(ConfigError, match="layers"):
        tiny_sweep_config(layers=0)


def test_presets():
    cfg = fig3_config()
    assert cfg.kind == "equivariance-sweep"
    assert cfg.layers == 5 and cfg.channels == 2
    assert cfg.k_list == (5, 10) and cfg.l_alpha_list == (1, 3)
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.n_rotations == 8 and cfg.n_scales == 9 and cfg.stencil == 9
    assert cfg.eta == -math.pi / 2.0 and cfg.beta == -0.5
    st = stability_config()
    assert st.kind == "stability-trials"
    assert st.layers == 3 and st.k_list == (5,)
    assert st.seeds == tuple(range(20))
    assert st.grad_levels == (0.02, 0.05, 0.1)
    st2 = stability_config(seeds=(0, 1), layers=2)
    assert st2.seeds == (0, 1) and st2.layers == 2


def test_echo_lines():
    cfg = tiny_sweep_config()
    lines = cfg.echo_lines()
    assert lines[0] == "# kind = equivariance-sweep"
    assert "# j = default" in lines
    assert "# source = synthetic" in lines
    cfg2 = tiny_sweep_config(layer_scale=1.5)
    assert "# j = 1.5" in cfg2.echo_lines()


def test_build_network_wiring():
    cfg = tiny_sweep_config(layers=3, channels=2)
    net = build_network(cfg, K=3, L_alpha=2, seed=9)
    assert net.depth == 3 and net.seed == 9
    assert net.layers[0].in_channels == 1 and net.layers[0].out_channels == 2
    for spec in net.layers[1:]:
        assert (spec.in_channels, spec.out_channels) == (2, 2)
        assert spec.L_theta == cfg.L_theta and spec.L_alpha == 2
        assert spec.n_scale == 2 and spec.max_angular == 4


def test_fig3_layers_share_one_bank():
    # the bank samples only the spatial elements, so the lifting and joint
    # layers' different angular/scale profiles must not split it
    cfg = fig3_config()
    for K in cfg.k_list:
        for L_alpha in cfg.l_alpha_list:
            net = build_network(cfg, K, L_alpha)
            assert layer_bank(net, 0) is layer_bank(net, 1), (K, L_alpha)


def test_sweep_identity_errors_are_zero():
    csv = run_equivariance_sweep(tiny_sweep_config())
    rows = parse_sweep_csv(csv)
    assert len(rows) == 2 * 2  # seeds x layers
    assert all(err == 0.0 for *_key, err in rows)
    assert csv.endswith("\n")


def test_sweep_rerun_bit_identical():
    cfg = tiny_sweep_config(eta=-math.pi / 2.0, seeds=(0, 1, 2))
    first = run_equivariance_sweep(cfg)
    again = run_equivariance_sweep(cfg)
    assert first == again
    rows = parse_sweep_csv(first)
    assert any(err > 0.0 for *_key, err in rows)
    assert [r[:4] for r in rows] == sorted(r[:4] for r in rows)


def test_parse_sweep_csv_round_trips_inf():
    text = "# kind = equivariance-sweep\nK,L_alpha,seed,layer,error\n3,1,0,1,0.125\n3,1,0,2,inf\n"
    rows = parse_sweep_csv(text)
    assert rows == [(3, 1, 0, 1, 0.125), (3, 1, 0, 2, math.inf)]
    assert repr(math.inf) == "inf"  # the writer's float serialization covers inf


def test_sweep_cell_failures_name_the_cell():
    cfg = tiny_sweep_config(L_theta=3)  # 3 does not divide N_r = 4
    with pytest.raises(ConfigError, match="sweep cell K=3 L_alpha=1 seed=0"):
        run_equivariance_sweep(cfg)


def test_sweep_input_synthetic_deterministic():
    cfg = tiny_sweep_config()
    a = sweep_input(cfg, 3)
    b = sweep_input(cfg, 3)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (1, 24, 24)
    c = sweep_input(cfg, 4)
    assert not np.array_equal(a.values, c.values)


def test_sweep_input_idx_source(tmp_path):
    from rstcnn import make_rs_dataset, read_idx

    ds = synthetic_blob_set(3, 12, 12, seed=1)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx(ip, lp, ds)
    cfg = tiny_sweep_config(idx_images=ip, idx_labels=lp, upsize=16)
    x5 = sweep_input(cfg, 5)  # 5 % 3 == image 2
    want = make_rs_dataset(read_idx(ip, lp), seed=INPUT_SALT, upsize=16).images[2]
    np.testing.assert_array_equal(x5.values, want)
    np.testing.assert_array_equal(sweep_input(cfg, 5).values, x5.values)


def test_sweep_input_rereads_rewritten_idx_files(tmp_path):
    from rstcnn import make_rs_dataset, read_idx

    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    write_idx(ip, lp, synthetic_blob_set(3, 12, 12, seed=1))
    cfg = tiny_sweep_config(idx_images=ip, idx_labels=lp, upsize=16)
    before = sweep_input(cfg, 0).values
    stamp = os.stat(ip)
    write_idx(ip, lp, synthetic_blob_set(3, 12, 12, seed=2))  # same sizes, new pixels
    # a distinct mtime even where the file clock is coarser than the rewrite
    os.utime(ip, ns=(stamp.st_atime_ns, stamp.st_mtime_ns + 10**9))
    after = sweep_input(cfg, 0).values
    want = make_rs_dataset(read_idx(ip, lp), seed=INPUT_SALT, upsize=16).images[0]
    np.testing.assert_array_equal(after, want)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(height=16, width=16, margin=8),  # 2 * margin == side: empty interior
        dict(height=24, width=12, margin=6),  # the shorter side counts
        dict(margin=-3),
        dict(idx_images="a.idx", idx_labels="b.idx", upsize=16, margin=8),  # IDX input is upsize^2
    ],
)
def test_sweep_rejects_margins_without_interior(overrides):
    with pytest.raises(ConfigError, match="margin"):
        tiny_sweep_config(**overrides)


def test_margin_checked_against_the_image_the_sweep_uses():
    assert tiny_sweep_config(height=16, width=16, margin=7).margin == 7
    assert tiny_sweep_config(margin=0).margin == 0
    # IDX input is upsize x upsize whatever height and width say
    tiny_sweep_config(idx_images="a.idx", idx_labels="b.idx", upsize=56, height=8, width=8, margin=20)
    # stability trials do not read the margin
    stability_config(height=8, width=8, margin=4)


def stability_test_config(**overrides):
    base = dict(
        layers=2,
        channels=1,
        k_list=(3,),
        seeds=(0, 1, 2),
        n_rotations=4,
        n_scales=5,
        L_theta=2,
        stencil=5,
        height=29,
        width=29,
    )
    base.update(overrides)
    return stability_config(**base)


def test_stability_trials_cycle_levels_and_hold():
    cfg = stability_test_config()
    reports, violated = run_stability_trials(cfg)
    assert not violated
    assert len(reports) == 3
    for i, rep in enumerate(reports):
        assert rep.sup_grad_tau == pytest.approx(cfg.grad_levels[i % 3], rel=1e-12)
        assert not rep.violation
        assert rep.L == 2


# run_stability_trials(stability_config(seeds=(0, 1, 2))) at commit 885bc22,
# before the fields were evaluated on tensor grids (floats moved by <= 4.4e-16 rel)
PINNED_STABILITY = [
    dict(lhs=1.055187163120816e-06, rhs=4.961650134295235, beta=-0.5, L=3, j_L=2.0,
         sup_tau=0.08409894383736692, sup_grad_tau=0.02,
         per_layer_errors=[0.3136074315981069, 0.002114018371850082, 1.055187163120816e-06],
         allowance=0.4971650134295235, violation=False, vacuous=False, margin=4.961649079108072),
    dict(lhs=3.583330158956142e-06, rhs=8.219900187300805, beta=-0.5, L=3, j_L=2.0,
         sup_tau=0.20864409549100527, sup_grad_tau=0.05,
         per_layer_errors=[0.09315626503883723, 0.0004289975292978166, 3.583330158956142e-06],
         allowance=0.8229900187300806, violation=False, vacuous=False, margin=8.219896603970646),
    dict(lhs=4.000637489609683e-06, rhs=19.155130587079103, beta=-0.5, L=3, j_L=2.0,
         sup_tau=0.47035691913552136, sup_grad_tau=0.1,
         per_layer_errors=[0.20343141307402282, 0.0007467410134680266, 4.000637489609683e-06],
         allowance=1.9165130587079102, violation=False, vacuous=False, margin=19.155126586441614),
]


def test_stability_trials_match_pinned_values():
    reports, violated = run_stability_trials(stability_config(seeds=(0, 1, 2)))
    assert violated is False
    for rep, want in zip(reports, PINNED_STABILITY, strict=True):
        got = rep.to_dict()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float) or key == "per_layer_errors":
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            else:
                assert got[key] == value, key


def test_stability_json_deterministic():
    cfg = stability_test_config(seeds=(0, 1))
    reports, _ = run_stability_trials(cfg)
    text = stability_json(cfg, reports)
    assert text == stability_json(cfg, reports)
    body = json.loads(text)
    assert body["violations"] == 0
    assert len(body["trials"]) == 2
    assert body["config"]["beta"] == -0.5
    assert text.endswith("\n")


def test_basis_validate_report():
    cfg = ExperimentConfig(kind="basis-validate", k_list=(3,))
    report = run_basis_validate(cfg)
    assert report["ok"] is True
    assert report["K"] == 3
    assert report["max_gram_deviation"] < 1e-2
    assert report["max_laplacian_residual"] < 5e-2
    assert report["max_zero_residual"] < 1e-9
    assert report["j01_error"] < 1e-9


@pytest.mark.parametrize("grid_n", [1, 0])
def test_bounds_config_rejects_a_grid_without_cells(grid_n):
    with pytest.raises(ConfigError, match="grid_n"):
        ExperimentConfig(kind="bounds-report", grid_n=grid_n)


def test_bounds_report_structure():
    cfg = ExperimentConfig(
        kind="bounds-report", k_list=(3,), l_alpha_list=(1,), channels=1, seeds=(0,), grid_n=61
    )
    report = run_bounds_report(cfg)
    assert report["ok"] is True
    assert report["worst_ratio"] <= 1.02
    (draw,) = report["draws"]
    for part in ("lifting", "joint"):
        assert draw[part]["ratio"] <= 1.02
        assert draw[part]["A"] <= 1.0 + 1e-9
        assert draw[part]["B"] > 0.0
