"""Filter synthesis, convolution layers, and amplitude normalization.

The two convolution kernels are checked entry-by-entry against naive loop
implementations of their defining sums; synthesis is checked against a
direct (k, m, n) triple loop plus one-hot probes.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
import rstcnn.net
import rstcnn.parts
from rstcnn.analysis import REPORT_PAIRS
from rstcnn import (
    ConfigError,
    CoeffTensor,
    FeatureMap,
    ImageTensor,
    LayerSpec,
    NetworkConfig,
    alpha_taps,
    alpha_weights,
    angular_matrix,
    build_network,
    channel_cone,
    draw_coeffs,
    fig3_config,
    filter_amplitude,
    forward,
    forward_layers,
    init_coeffs,
    joint_conv,
    layer_bank,
    layer_basis,
    lifting_conv,
    live_slices,
    normalize_coeffs_A2,
    scale_matrix,
    stability_config,
    synthesize_filters,
    theta_taps,
)

from conftest import interior_image, outputs_per_part_count, small_net


def joint_net():
    return small_net(layers=2, channels=2, L_alpha=3, max_angular=2)


def test_alpha_taps_and_weights_match_reference():
    for n in range(1, 7):
        np.testing.assert_array_equal(alpha_taps(n), reference.uniform_alpha_taps(n))
        np.testing.assert_array_equal(alpha_weights(n), reference.trapezoid_weights(n))
    assert alpha_weights(1)[0] == 1.0
    assert alpha_weights(3).sum() == pytest.approx(2.0, abs=1e-15)


def test_theta_taps_uniform():
    np.testing.assert_allclose(theta_taps(4), [0.0, math.pi / 2, math.pi, 1.5 * math.pi], atol=1e-15)
    assert theta_taps(1).tolist() == [0.0]


def test_synthesize_lifting_one_hot():
    net = small_net()
    spec = net.layers[0]
    bank = layer_bank(net, 0)
    for k in range(spec.K):
        a = np.zeros((1, 1, spec.K))
        a[0, 0, k] = -1.75
        filt = synthesize_filters(CoeffTensor(a, np.zeros(1)), bank, spec)
        np.testing.assert_array_equal(filt[0, 0], -1.75 * bank.values[k])


def test_synthesize_joint_one_hot_factorizes():
    net = joint_net()
    spec = net.layers[1]
    bank = layer_bank(net, 1)
    taps_t = theta_taps(spec.L_theta)
    taps_a = alpha_taps(spec.L_alpha)
    rng = np.random.default_rng(5)
    for _ in range(6):
        k = rng.integers(spec.K)
        m = rng.integers(spec.n_angular)
        n = rng.integers(spec.n_scale)
        a = np.zeros((2, 2, spec.K, spec.n_angular, spec.n_scale))
        a[1, 0, k, m, n] = 2.5
        filt = synthesize_filters(CoeffTensor(a, np.zeros(2)), bank, spec)
        for t, theta in enumerate(taps_t):
            for q, alpha in enumerate(taps_a):
                want = (
                    2.5
                    * bank.values[k]
                    * reference.angular_value(m, theta)
                    * reference.scale_value(n, alpha)
                )
                np.testing.assert_allclose(filt[1, 0, :, t, :, q], want, atol=1e-14)
        assert np.all(filt[0] == 0.0) and np.all(filt[1, 1] == 0.0)


def test_synthesize_joint_matches_loop_oracle():
    net = joint_net()
    spec = net.layers[1]
    bank = layer_bank(net, 1)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2, spec.K, spec.n_angular, spec.n_scale))
    filt = synthesize_filters(CoeffTensor(a, np.zeros(2)), bank, spec)
    assert filt.shape == (2, 2, 4, spec.L_theta, 3, spec.L_alpha, 5, 5)
    for _ in range(20):
        pos = tuple(rng.integers(d) for d in filt.shape)
        want = reference.naive_synthesize_joint_at(
            a, bank.values, spec.L_theta, spec.L_alpha, pos
        )
        assert filt[pos] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("preset", [fig3_config, stability_config])
@pytest.mark.parametrize("kind", ["fb", "sl"])
@pytest.mark.parametrize("K", [3, 5, 10])
@pytest.mark.parametrize("L_alpha", [1, 3])
def test_synthesize_joint_keeps_the_whole_layer_einsum_bits(preset, kind, K, L_alpha):
    # The filter GEMM runs in column blocks small enough for one BLAS thread;
    # every element must keep the bits of the one whole-layer einsum, whose
    # GEMM OpenBLAS may split over threads, and whose contraction order
    # depends on the sizes.
    net = build_network(preset(spatial_kind=kind), K, L_alpha, seed=K + L_alpha)
    coeffs = init_coeffs(net)
    for idx in range(1, net.depth):
        spec, bank, basis = net.layers[idx], layer_bank(net, idx), layer_basis(net, idx)
        phi = angular_matrix(basis, theta_taps(spec.L_theta))
        xi = scale_matrix(basis, alpha_taps(spec.L_alpha))
        want = np.einsum("abkmn,krsij,mt,nq->abrtsqij", coeffs[idx].a, bank.values, phi, xi, optimize=True)
        got = synthesize_filters(coeffs[idx], bank, spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_synthesize_is_linear_in_coefficients():
    net = joint_net()
    spec = net.layers[1]
    bank = layer_bank(net, 1)
    rng = np.random.default_rng(3)
    shape = (2, 2, spec.K, spec.n_angular, spec.n_scale)
    a1, a2 = rng.standard_normal(shape), rng.standard_normal(shape)
    b = np.zeros(2)
    f_sum = synthesize_filters(CoeffTensor(a1 + 2.0 * a2, b), bank, spec)
    f1 = synthesize_filters(CoeffTensor(a1, b), bank, spec)
    f2 = synthesize_filters(CoeffTensor(a2, b), bank, spec)
    np.testing.assert_allclose(f_sum, f1 + 2.0 * f2, atol=1e-12)


def test_lifting_conv_matches_loop_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 9, 11))
    filters = rng.standard_normal((2, 3, 4, 3, 5, 5))
    bias = rng.standard_normal(3)
    out = lifting_conv(ImageTensor(x), filters, bias, np.linspace(-0.5, 0.5, 3))
    assert out.values.shape == (3, 4, 3, 9, 11)
    for _ in range(10):
        o, r, s = rng.integers(3), rng.integers(4), rng.integers(3)
        y, x0 = rng.integers(9), rng.integers(11)
        want = reference.naive_lifting_at(x, filters, bias, o, r, s, y, x0)
        assert out.values[o, r, s, y, x0] == pytest.approx(want, abs=1e-10)


def test_joint_conv_matches_loop_oracle():
    rng = np.random.default_rng(22)
    spec = LayerSpec(2, 3, 3, 5, L_theta=2, L_alpha=2, max_angular=2, n_scale=2)
    feat = FeatureMap(
        rng.standard_normal((2, 4, 3, 7, 8)), math.pi / 2, np.linspace(-1.0, 1.0, 3)
    )
    filters = rng.standard_normal((2, 3, 4, 2, 3, 2, 5, 5))
    bias = rng.standard_normal(3)
    out = joint_conv(feat, filters, bias, spec)
    assert out.values.shape == (3, 4, 3, 7, 8)
    for _ in range(10):
        o, r, s = rng.integers(3), rng.integers(4), rng.integers(3)
        y, x0 = rng.integers(7), rng.integers(8)
        want = reference.naive_joint_at(feat.values, filters, bias, o, r, s, y, x0)
        assert out.values[o, r, s, y, x0] == pytest.approx(want, abs=1e-10)


def test_joint_conv_scale_taps_read_upward_with_zero_fill():
    # Input lives only on scale channel 1; the filter has only its q=1 tap,
    # so output channel s responds iff s + 1 == 1, i.e. only s = 0.
    spec = LayerSpec(1, 1, 1, 3, L_theta=1, L_alpha=2, max_angular=0, n_scale=1)
    feat = np.zeros((1, 2, 3, 5, 5))
    feat[0, :, 1, 2, 2] = 1.0
    filters = np.zeros((1, 1, 2, 1, 3, 2, 3, 3))
    filters[0, 0, :, 0, :, 1, 1, 1] = 1.0  # center pixel, alpha tap q=1 only
    out = joint_conv(
        FeatureMap(feat, math.pi, np.linspace(-1.0, 1.0, 3)), filters, np.zeros(1), spec
    )
    w_top = alpha_weights(2)[1]
    assert out.values[0, 0, 0, 2, 2] == pytest.approx(w_top, abs=1e-15)
    assert np.all(out.values[0, :, 1:] == 0.0)


LIFTING_EDGE_SHAPES = [
    (1, 2, 2, 3, 6, 9, 5),  # H != W, even x odd
    (2, 1, 2, 2, 7, 4, 3),  # H != W, odd x even
    (1, 1, 2, 2, 3, 4, 7),  # stencil wider than the image
    (1, 2, 2, 2, 2, 3, 9),  # stencil wider than twice the image: taps wrap past the H+p grid
    (2, 1, 2, 1, 1, 4, 7),  # a single row
    (3, 2, 2, 1, 5, 5, 3),  # M_in != M_out
]

JOINT_EDGE_SHAPES = [
    (2, 2, 4, 3, 6, 9, 3, 2, 2),  # H != W, even x odd
    (2, 2, 4, 3, 7, 4, 3, 2, 2),  # H != W, odd x even
    (1, 2, 2, 2, 3, 4, 7, 1, 1),  # stencil wider than the image
    (1, 2, 2, 2, 2, 3, 9, 2, 2),  # stencil wider than twice the image: taps wrap past the H+p grid
    (2, 1, 2, 2, 1, 4, 7, 1, 2),  # a single row
    (2, 1, 2, 2, 4, 5, 3, 2, 4),  # L_alpha > N_s: taps q >= N_s read only zeros
    (1, 1, 4, 2, 5, 5, 3, 1, 2),  # L_theta = 1
    (1, 1, 4, 2, 5, 5, 3, 4, 2),  # L_theta = N_r
    (3, 2, 4, 2, 5, 6, 3, 2, 1),  # M_in != M_out
]


@pytest.mark.parametrize("m_in, m_out, n_r, n_s, H, W, L", LIFTING_EDGE_SHAPES)
def test_lifting_conv_edge_shapes_match_loop_oracle(m_in, m_out, n_r, n_s, H, W, L):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((m_in, H, W))
    filters = rng.standard_normal((m_in, m_out, n_r, n_s, L, L))
    bias = rng.standard_normal(m_out)
    out = lifting_conv(ImageTensor(x), filters, bias, np.linspace(-1.0, 1.0, n_s)).values
    assert out.shape == (m_out, n_r, n_s, H, W)
    for pos in np.ndindex(out.shape):
        assert out[pos] == pytest.approx(reference.naive_lifting_at(x, filters, bias, *pos), abs=1e-10)


@pytest.mark.parametrize("m_in, m_out, n_r, n_s, H, W, L, L_theta, L_alpha", JOINT_EDGE_SHAPES)
def test_joint_conv_edge_shapes_match_loop_oracle(m_in, m_out, n_r, n_s, H, W, L, L_theta, L_alpha):
    rng = np.random.default_rng(32)
    spec = LayerSpec(m_in, m_out, 1, L, L_theta=L_theta, L_alpha=L_alpha)
    vals = rng.standard_normal((m_in, n_r, n_s, H, W))
    feat = FeatureMap(vals, 2.0 * math.pi / n_r, np.linspace(-1.0, 1.0, n_s))
    filters = rng.standard_normal((m_in, m_out, n_r, L_theta, n_s, L_alpha, L, L))
    bias = rng.standard_normal(m_out)
    out = joint_conv(feat, filters, bias, spec).values
    assert out.shape == (m_out, n_r, n_s, H, W)
    for pos in np.ndindex(out.shape):
        assert out[pos] == pytest.approx(reference.naive_joint_at(vals, filters, bias, *pos), abs=1e-10)


# sample orders of a batch drawn from three inputs, reversed and partial ones included
BATCH_ORDERS = ([0], [0, 1], [0, 1, 2], [2, 1, 0], [1, 2])


@pytest.mark.parametrize("m_in, m_out, n_r, n_s, H, W, L", LIFTING_EDGE_SHAPES)
def test_lifting_conv_batch_is_bit_identical_per_sample(m_in, m_out, n_r, n_s, H, W, L):
    rng = np.random.default_rng(41)
    xs = rng.standard_normal((3, m_in, H, W))
    filters = rng.standard_normal((m_in, m_out, n_r, n_s, L, L))
    bias = rng.standard_normal(m_out)
    grid = np.linspace(-1.0, 1.0, n_s)
    singles = [lifting_conv(ImageTensor(x), filters, bias, grid).values for x in xs]
    for order in BATCH_ORDERS:
        out = lifting_conv(ImageTensor(xs[order]), filters, bias, grid).values
        assert out.shape == (len(order), m_out, n_r, n_s, H, W)
        for b, i in enumerate(order):
            assert np.array_equal(out[b], singles[i])


@pytest.mark.parametrize("m_in, m_out, n_r, n_s, H, W, L, L_theta, L_alpha", JOINT_EDGE_SHAPES)
def test_joint_conv_batch_is_bit_identical_per_sample(m_in, m_out, n_r, n_s, H, W, L, L_theta, L_alpha):
    rng = np.random.default_rng(42)
    spec = LayerSpec(m_in, m_out, 1, L, L_theta=L_theta, L_alpha=L_alpha)
    vals = rng.standard_normal((3, m_in, n_r, n_s, H, W))
    step, grid = 2.0 * math.pi / n_r, np.linspace(-1.0, 1.0, n_s)
    filters = rng.standard_normal((m_in, m_out, n_r, L_theta, n_s, L_alpha, L, L))
    bias = rng.standard_normal(m_out)
    singles = [joint_conv(FeatureMap(v, step, grid), filters, bias, spec).values for v in vals]
    for order in BATCH_ORDERS:
        out = joint_conv(FeatureMap(vals[order], step, grid), filters, bias, spec).values
        assert out.shape == (len(order), m_out, n_r, n_s, H, W)
        for b, i in enumerate(order):
            assert np.array_equal(out[b], singles[i])


@pytest.mark.parametrize("m_out", [1, 2, 3])
def test_lifting_conv_is_bit_identical_for_every_part_count(m_out, monkeypatch):
    # 2 samples x 2 input channels give 4 rows to the forward transform
    rng = np.random.default_rng(51)
    xs = rng.standard_normal((2, 2, 7, 6))
    filters = rng.standard_normal((2, m_out, 4, 3, 5, 5))
    bias = rng.standard_normal(m_out)
    grid = np.linspace(-1.0, 1.0, 3)
    outs = outputs_per_part_count(monkeypatch, lambda: lifting_conv(ImageTensor(xs), filters, bias, grid).values)
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])
    for _ in range(12):
        b, o, r, s = rng.integers(2), rng.integers(m_out), rng.integers(4), rng.integers(3)
        y, x0 = rng.integers(7), rng.integers(6)
        want = reference.naive_lifting_at(xs[b], filters, bias, o, r, s, y, x0)
        assert outs[0][b, o, r, s, y, x0] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("m_out", [1, 2, 3])
def test_joint_conv_is_bit_identical_for_every_part_count(m_out, monkeypatch):
    rng = np.random.default_rng(52)
    spec = LayerSpec(2, m_out, 1, 5, L_theta=2, L_alpha=2)
    vals = rng.standard_normal((2, 2, 4, 3, 6, 7))
    feat = FeatureMap(vals, math.pi / 2, np.linspace(-1.0, 1.0, 3))
    filters = rng.standard_normal((2, m_out, 4, 2, 3, 2, 5, 5))
    bias = rng.standard_normal(m_out)
    outs = outputs_per_part_count(monkeypatch, lambda: joint_conv(feat, filters, bias, spec).values)
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])
    for _ in range(12):
        b, o, r, s = rng.integers(2), rng.integers(m_out), rng.integers(4), rng.integers(3)
        y, x0 = rng.integers(6), rng.integers(7)
        want = reference.naive_joint_at(vals[b], filters, bias, o, r, s, y, x0)
        assert outs[0][b, o, r, s, y, x0] == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("m_out", [1, 2, 3])
def test_joint_conv_skips_all_zero_tap_slices_exactly(m_out, monkeypatch):
    # With q0 the lowest live scale tap, input scales below q0 are read by no
    # tap and output scales from n_s - q0 on are written by none: neither is
    # transformed, and the dead outputs are exactly relu(0 + bias).
    rng = np.random.default_rng(54)
    scales_seen = []
    for name in ("rfft2", "ifft"):
        fft = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, fft=fft, **kw: scales_seen.append(a.shape[1]) or fft(a, *args, **kw))
    cases = [
        # the fig3 L_alpha = 3 pattern: both end scale taps are zero for every
        # channel, and tap (t=1, q=1) is zero for input channel 1 only
        (3, [0, 2], (1, 1)),
        # only the top tap lives: two dead channels at each end of the scale axis
        (4, [0, 1], (1, 2)),
    ]
    for n_s, dead_taps, (dead_t, dead_q) in cases:
        spec = LayerSpec(2, m_out, 1, 5, L_theta=2, L_alpha=3)
        vals = rng.standard_normal((2, 2, 4, n_s, 6, 7))
        feat = FeatureMap(vals, math.pi / 2, np.linspace(-1.0, 1.0, n_s))
        filters = rng.standard_normal((2, m_out, 4, 2, n_s, 3, 5, 5))
        filters[:, :, :, :, :, dead_taps] = 0.0
        filters[1, :, :, dead_t, :, dead_q] = 0.0
        bias = rng.standard_normal(m_out)
        q0 = min(set(range(3)) - set(dead_taps))
        scales_seen.clear()
        outs = outputs_per_part_count(monkeypatch, lambda: joint_conv(feat, filters, bias, spec).values)
        assert set(scales_seen) == {n_s - q0}
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
        top = outs[0][:, :, :, n_s - q0 :]
        dead = np.broadcast_to(np.maximum(0.0 + bias, 0.0)[None, :, None, None, None, None], top.shape)
        assert np.array_equal(top, dead) and np.array_equal(np.signbit(top), np.signbit(dead))
        for pos in np.ndindex(outs[0].shape):
            want = reference.naive_joint_at(vals[pos[0]], filters, bias, *pos[1:])
            assert outs[0][pos] == pytest.approx(want, abs=1e-10)


def row_spectra(row, live, n_val, ey, wex):
    """The runs of one row's live slices and a copy of each (t, q, i, spectrum) _row_spectra yields over them."""
    plane = ey.shape[0] * wex[0].shape[1]
    runs = rstcnn.net._spectra_runs(live, n_val, plane)
    buf = np.empty(max(len(ts) * n_val[q] for q, ts, _ in runs) * plane, dtype=complex)
    return runs, [(t, q, i, spec.copy()) for t, q, i, spec in rstcnn.net._row_spectra(row, runs, n_val, ey, wex, buf)]


@pytest.mark.parametrize("P, Q", [(11, 9), (8, 12)])
def test_row_spectra_are_the_conjugate_rfft2_of_the_live_slices(P, Q):
    # One row's slices over (M_in, L_theta, n_w, L_alpha) = (2, 3, 4, 3);
    # tap q writes n_val[q] output scales, and the top tap writes none.
    rng = np.random.default_rng(56)
    L = 5
    row = rng.standard_normal((2, 3, 4, 3, L, L))
    live = rng.random((2, 3, 3)) < 0.6
    live[0, 0, 0] = live[1, 2, 1] = live[1, 1, 2] = True
    live[0, 1, 0] = False
    n_val = [4, 2, 0]
    weights = rng.uniform(0.1, 1.0, size=3)
    ey, ex = rstcnn.net._conj_dft(L, P, Q)
    got = row_spectra(row, live, n_val, ey, [w * ex for w in weights])[1]
    want_keys = [(t, q, i) for t in range(3) for q in range(3) for i in range(2) if live[i, t, q] and n_val[q] > 0]
    assert [(t, q, i) for t, q, i, _ in got] == want_keys
    for t, q, i, spec in got:
        assert spec.shape == (n_val[q], P, Q // 2 + 1)
        for s in range(n_val[q]):
            laid = np.zeros((P, Q))
            laid[:L, :L] = weights[q] * row[i, t, s, q]
            want = np.conj(np.fft.rfft2(laid))
            assert np.abs(spec[s] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "shape, n_val, P, Q, runs",
    [
        # L_alpha = 3, live taps q = 0 and 1 in turn: each run stops where q changes
        ((2, 3, 4, 3), [4, 2, 0], 11, 9, [(0, 2), (1, 1), (0, 1), (1, 2), (0, 2), (1, 1)]),
        # L_alpha = 1: the runs cross rotation taps; three slices' spectra (2 x 64 x
        # 33 x 16 B each) fit in 256 KB and four do not, so the cap splits them
        ((2, 4, 2, 1), [2], 64, 64, [(0, 3), (0, 3), (0, 2)]),
    ],
    ids=["scale-taps", "capped"],
)
def test_grouped_row_spectra_keep_the_bytes_of_each_slice(shape, n_val, P, Q, runs):
    # Each spectrum of a run is the bytes of the per-slice product ey @ (f @
    # wex[q]) of its slice f cast to complex, whatever run formed it.
    rng = np.random.default_rng(59)
    L = 5
    m_in, l_th, n_w, l_al = shape
    row = rng.standard_normal(shape + (L, L))
    live = np.ones((m_in, l_th, l_al), dtype=bool)
    if l_al == 3:  # tap 2 is live but writes no scale (n_val 0), so it has no slices
        live[1, 0, 1] = live[0, 1, 0] = live[0, 2, 1] = False
    ey, ex = rstcnn.net._conj_dft(L, P, Q)
    wex = [w * ex for w in rng.uniform(0.1, 1.0, size=l_al)]
    got_runs, got = row_spectra(row, live, n_val, ey, wex)
    assert [(q, len(ts)) for q, ts, _ in got_runs] == runs
    assert len(got) == sum(k for _, k in runs)
    for t, q, i, spec in got:
        assert np.array_equal(spec, ey @ (row[i, t, : n_val[q], q].astype(complex) @ wex[q]))


@pytest.mark.parametrize("parts", [1, 2])
def test_joint_conv_memory_is_input_spectra_output_and_row_blocks(parts, monkeypatch):
    # A joint layer of the criterion-5 report (batch 8, 2 -> 2 channels, N_r = 8,
    # N_s = 9, 28 x 28, L = 9, L_theta = 4) holds the input spectra, the output
    # and, per part, one row's block, products and row transform; the slack
    # covers, per part, one run of filter spectra with its factors (about
    # 0.3 MB here: three slices' spectra of 78 KB each).  An accumulator of
    # the whole layer is as large as the input spectra here, and held beside
    # them it does not fit even in one part's bound.
    monkeypatch.setattr(rstcnn.parts, "_PARTS", parts)
    rng = np.random.default_rng(57)
    n, m, n_r, n_s, H, W, L = 8, 2, 8, 9, 28, 28, 9
    spec = LayerSpec(m, m, 1, L, L_theta=4, L_alpha=1)
    feat = FeatureMap(rng.standard_normal((n, m, n_r, n_s, H, W)), math.pi / 4, np.linspace(-1.0, 1.0, n_s))
    filters = rng.standard_normal((m, m, n_r, 4, n_s, 1, L, L))
    bias = rng.standard_normal(m)
    P, Q = H + (L - 1) // 2, W + (L - 1) // 2
    spectra = n * m * n_r * n_s * P * (Q // 2 + 1) * 16
    out = n * m * n_r * n_s * H * W * 8
    row = 2 * n * n_s * P * (Q // 2 + 1) * 16 + n * n_s * H * Q * 8
    slack = (parts + 1) * 2**18
    bound = spectra + out + parts * row + slack
    if parts == 1:
        assert spectra + spectra > bound
    joint_conv(feat, filters, bias, spec)  # warm-up
    tracemalloc.start()
    try:
        joint_conv(feat, filters, bias, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("parts", [1, 2])
def test_sweep_joint_conv_memory_has_no_transform_temporaries(parts, monkeypatch):
    # A joint layer of a full forward of a fig3 K = 10, L_alpha = 3 pair (batch
    # 2, 2 -> 2 channels, N_r = 8, N_s = 9, 56 x 56, L = 9, L_theta = 4), every
    # tap live, under the bound of test_joint_conv_memory_is_input_spectra_output_and_row_blocks.
    # Its slack holds, per part, one run of filter spectra (one slice of 0.27
    # MB here) and its factors, with no room for the row's filters cast to
    # complex (0.28 MB).  The bound has no term for the forward transform:
    # each part writes its rfft2 straight into the input spectra, and two
    # spectrum-sized temporaries per part (2.1 MB each) do not fit it at 2 parts.
    monkeypatch.setattr(rstcnn.parts, "_PARTS", parts)
    rng = np.random.default_rng(60)
    n, m, n_r, n_s, H, W, L = 2, 2, 8, 9, 56, 56, 9
    spec = LayerSpec(m, m, 1, L, L_theta=4, L_alpha=3)
    feat = FeatureMap(rng.standard_normal((n, m, n_r, n_s, H, W)), math.pi / 4, np.linspace(-1.0, 1.0, n_s))
    filters = rng.standard_normal((m, m, n_r, 4, n_s, 3, L, L))
    bias = rng.standard_normal(m)
    P, Q = H + (L - 1) // 2, W + (L - 1) // 2
    spectra = n * m * n_r * n_s * P * (Q // 2 + 1) * 16
    out = n * m * n_r * n_s * H * W * 8
    row = 2 * n * n_s * P * (Q // 2 + 1) * 16 + n * n_s * H * Q * 8
    slack = (parts + 1) * 2**18
    bound = spectra + out + parts * row + slack
    if parts == 2:
        padded = n_r * n_s * P * Q * 8
        assert spectra + parts * (padded + 2 * (n_r * n_s * P * (Q // 2 + 1) * 16)) > bound
    joint_conv(feat, filters, bias, spec)  # warm-up
    tracemalloc.start()
    try:
        joint_conv(feat, filters, bias, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_concurrent_callers_share_the_part_pool(monkeypatch):
    # More callers than cores, each splitting into more parts than cores, with
    # frequent thread switches: every result must equal the serial one.
    rng = np.random.default_rng(53)
    spec = LayerSpec(2, 3, 1, 3, L_theta=2, L_alpha=2)
    feat = FeatureMap(rng.standard_normal((2, 4, 3, 6, 6)), math.pi / 2, np.linspace(-1.0, 1.0, 3))
    filters = rng.standard_normal((2, 3, 4, 2, 3, 2, 3, 3))
    bias = rng.standard_normal(3)
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 1)
    want = joint_conv(feat, filters, bias, spec).values
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 3)
    results = []

    def caller():
        for _ in range(5):
            results.append(np.array_equal(joint_conv(feat, filters, bias, spec).values, want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 20


def test_part_failure_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 3)
    done = []

    def part(lo, hi):
        if lo == 2:
            raise RuntimeError("part 2 failed")
        done.append((lo, hi))

    with pytest.raises(RuntimeError, match="part 2 failed"):
        rstcnn.parts.run_parts(part, 3)
    assert sorted(done) == [(0, 1), (1, 2)]


def test_nested_run_parts_call_raises_instead_of_deadlocking(monkeypatch):
    # on 2 CPUs the pool has one thread: a part it runs that called run_parts
    # would wait on itself, so that call raises and the caller sees why
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 2)
    done = []

    def part(lo, hi):
        rstcnn.parts.run_parts(lambda a, b: done.append((a, b)), 2)

    with pytest.raises(RuntimeError, match="part-pool thread"):
        rstcnn.parts.run_parts(part, 2)
    # the caller's own part is not a pool thread: its nested call ran both
    # halves, the pool's once the pool's part had raised
    assert sorted(done) == [(0, 1), (1, 2)]
    rstcnn.parts.run_parts(lambda lo, hi: done.append((lo, hi)), 2)  # the pool is free again
    assert len(done) == 4


def test_import_starts_no_thread():
    # the part pool's threads start on its first submit, not at import
    src = os.path.dirname(os.path.dirname(rstcnn.net.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import threading, rstcnn; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "1\n"


def test_forward_batch_is_bit_identical_per_sample():
    net = small_net(layers=3, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=1)
    xs = np.stack([interior_image(height=15, width=17, margin=4, seed=s).values for s in range(3)])
    singles = [forward(net, coeffs, ImageTensor(x), return_all=True) for x in xs]
    for order in BATCH_ORDERS:
        feats = forward(net, coeffs, ImageTensor(xs[order]), return_all=True)
        assert len(feats) == 3
        for layer, f in enumerate(feats):
            assert f.values.shape == (len(order), 2, 4, 3, 15, 17)
            for b, i in enumerate(order):
                assert np.array_equal(f.values[b], singles[i][layer].values)


def _cone_net(depth, L_theta, L_alpha):
    return small_net(layers=depth, channels=2, K=3, n_rotations=8, n_scales=5, L_theta=L_theta, L_alpha=L_alpha)


def _window_mask(net, window):
    rows, lo, hi = window
    mask = np.zeros((net.n_rotations, net.n_scales), dtype=bool)
    mask[rows, lo:hi] = True
    return mask


def _live(net, coeffs):
    return [live_slices(net, coeffs, idx) for idx in range(1, net.depth)]


def _keep(*channels):
    keep = np.zeros((8, 5), dtype=bool)
    for channel in channels:
        keep[channel] = True
    return keep


# one residue class (whatever L_theta), two classes unless L_theta = 8, and the top scale channel
CONE_MASKS = {"one-class": _keep((0, 2)), "two-classes": _keep((0, 2), (3, 1)), "top-scale": _keep((5, 4))}


@pytest.mark.parametrize("depth", [1, 5])
@pytest.mark.parametrize("L_alpha", [1, 3, 4])
@pytest.mark.parametrize("L_theta", [1, 2, 4, 8])
def test_cone_forward_equals_full_forward_on_the_cone(depth, L_theta, L_alpha, monkeypatch):
    # channels in each layer's window keep the full run's bits whatever the
    # batch order and part count; every other channel is NaN
    net = _cone_net(depth, L_theta, L_alpha)
    coeffs = init_coeffs(net, seed=L_theta + 10 * L_alpha)
    xs = np.stack([interior_image(height=11, width=10, margin=2, seed=s).values for s in range(3)])
    full = [f.values for f in forward_layers(net, coeffs, ImageTensor(xs))]
    live = _live(net, coeffs)
    for keep in CONE_MASKS.values():
        masks = [_window_mask(net, w) for w in channel_cone(net, live, keep)]
        for mask in masks:
            assert (mask | keep).tolist() == mask.tolist()
        orders = iter(([2, 0, 1], [1, 2], [0, 1, 2]))

        def run():
            order = next(orders)
            return order, [f.values for f in forward_layers(net, coeffs, ImageTensor(xs[order]), keep=keep)]

        for order, layers in outputs_per_part_count(monkeypatch, run):
            for got, want, mask in zip(layers, full, masks):
                inside, kept = got[:, :, mask], want[order][:, :, mask]
                assert np.array_equal(inside, kept) and np.array_equal(np.signbit(inside), np.signbit(kept))
                assert np.isnan(got[:, :, ~mask]).all()


def test_cone_of_a_one_live_scale_tap_network():
    # L_theta = 4 on 8 rotations: residue classes mod 2.  Only the middle of
    # the 3 scale taps lives, so each joint layer reads one channel higher.
    net = _cone_net(5, 4, 3)
    live = _live(net, init_coeffs(net, seed=0))
    windows = channel_cone(net, live, CONE_MASKS["one-class"])
    assert [(w[0].tolist(), w[1], w[2]) for w in windows] == [
        ([True, False] * 4, 2, 5),  # the lifting layer reads no channel
        ([True, False] * 4, 2, 5),
        ([True, False] * 4, 2, 5),
        ([True, False] * 4, 2, 4),
        ([True, False] * 4, 2, 3),
    ]
    windows = channel_cone(net, live, CONE_MASKS["two-classes"])
    assert [(w[0].all(), w[1], w[2]) for w in windows] == [(True, 1, 5)] * 3 + [(True, 1, 4), (True, 1, 3)]


@pytest.mark.parametrize("L_theta, L_alpha", [(2, 1), (4, 3), (8, 1), (1, 3)])
@pytest.mark.parametrize("mask", sorted(CONE_MASKS))
def test_cone_passes_the_dependence_oracle(L_theta, L_alpha, mask):
    # perturbing every channel outside a layer's window moves no bit inside
    # the windows above it, and does move some channel outside them
    net = _cone_net(4, L_theta, L_alpha)
    coeffs = init_coeffs(net, seed=3)
    windows = channel_cone(net, _live(net, coeffs), CONE_MASKS[mask])
    x = ImageTensor(np.stack([interior_image(height=11, width=10, margin=2, seed=s).values for s in range(2)]))
    flags = reference.cone_dependence(net, coeffs, x, windows, seed=4)
    assert all(kept for kept, _ in flags)
    assert any(moved for _, moved in flags)


@pytest.mark.parametrize(
    "window",
    [
        ([True, False, True, False], 0, 3),
        ([False, True, False, True], 1, 3),
        ([True] * 4, 1, 2),
        ([False, True, False, True], 2, 3),
    ],
)
@pytest.mark.parametrize("dead_q", [(), (0,), (2,), (0, 1)])
def test_joint_conv_window_reads_only_its_cone(window, dead_q):
    # random filters with live end taps: the input channels the window does
    # not read hold NaN, and the window still equals the full output
    rng = np.random.default_rng(61)
    rows, lo, hi = np.array(window[0]), window[1], window[2]
    spec = LayerSpec(2, 3, 1, 5, L_theta=2, L_alpha=3)
    filters = rng.standard_normal((2, 3, 4, 2, 3, 3, 5, 5))
    filters[:, :, :, :, :, list(dead_q)] = 0.0
    vals = rng.standard_normal((2, 2, 4, 3, 6, 7))
    full = joint_conv(FeatureMap(vals, math.pi / 2, np.linspace(-1.0, 1.0, 3)), filters, np.array([0.3, -0.2, 0.0]), spec)
    live = sorted(set(range(3)) - set(dead_q))
    read = np.zeros((4, 3), dtype=bool)
    for q in live:
        read[np.ix_(np.tile(rows.reshape(2, 2).any(axis=0), 2), np.arange(lo + q, min(hi + q, 3)))] = True
    blanked = np.where(read[:, :, None, None], vals, np.nan)
    feat = FeatureMap(blanked, math.pi / 2, np.linspace(-1.0, 1.0, 3))
    got = joint_conv(feat, filters, np.array([0.3, -0.2, 0.0]), spec, window=(rows, lo, hi)).values
    mask = np.zeros((4, 3), dtype=bool)
    mask[rows, lo:hi] = True
    assert np.array_equal(got[:, :, mask], full.values[:, :, mask])
    assert np.array_equal(np.signbit(got[:, :, mask]), np.signbit(full.values[:, :, mask]))
    assert np.isnan(got[:, :, ~mask]).all()


@pytest.mark.parametrize("kind", ["fb", "sl"])
@pytest.mark.parametrize("K", [5, 10])
@pytest.mark.parametrize("L_alpha", [1, 3])
def test_live_slices_are_the_live_taps_of_the_synthesized_filters(kind, K, L_alpha):
    # the fig3 networks: at L_alpha = 3 every Dirichlet scale profile is 0 at
    # the end taps, so only the middle one lives; an input channel with zero
    # coefficients has no live slice
    net = build_network(fig3_config(spatial_kind=kind), K, L_alpha, seed=0)
    coeffs = init_coeffs(net)
    coeffs[2] = CoeffTensor(coeffs[2].a * (np.arange(2) > 0)[:, None, None, None, None], coeffs[2].b)
    for idx in range(1, net.depth):
        live = live_slices(net, coeffs, idx)
        filters = synthesize_filters(coeffs[idx], layer_bank(net, idx), net.layers[idx])
        assert np.array_equal(live, rstcnn.net._live_taps(filters))
        taps = [[q == L_alpha // 2 for q in range(L_alpha)]] * 4
        assert live.tolist() == ([[[False] * L_alpha] * 4] if idx == 2 else [taps]) + [taps]


def _owner(a):
    """The array that owns a's memory (NumPy points a view's base at it)."""
    return a if a.base is None else a.base


@pytest.mark.parametrize("cone", [False, True], ids=["full", "cone"])
def test_forward_layers_drops_each_input_once_its_spectra_exist(cone, monkeypatch):
    # Each correlation calls run_parts for its input transform, then for its
    # row passes.  A consumer that keeps only a weakref to the memory of each
    # map's values (the array that owns it, as a reshape view of it outlives
    # the values) finds the previous layer's alive during the transform and
    # dead by the row passes, so the next map is allocated after the previous
    # one is freed.
    net = _cone_net(4, 4, 3)
    coeffs = init_coeffs(net, seed=2)
    x = ImageTensor(np.stack([interior_image(height=11, width=10, margin=2, seed=s).values for s in range(2)]))
    previous = [None]  # a weakref to the last map taken
    alive = []
    run_parts = rstcnn.net.run_parts

    def probe(fn, count):
        alive.append(previous[0] is not None and previous[0]() is not None)
        return run_parts(fn, count)

    monkeypatch.setattr(rstcnn.net, "run_parts", probe)
    layers = forward_layers(net, coeffs, x, keep=CONE_MASKS["one-class"] if cone else None)
    for idx in range(net.depth):
        alive.clear()
        previous[0] = weakref.ref(_owner(next(layers).values))
        assert alive == [idx > 0, False]


def test_forward_holds_one_layer_at_a_time(monkeypatch):
    # every map forward takes from forward_layers is gone once the next exists
    net = _cone_net(4, 2, 3)
    coeffs = init_coeffs(net, seed=2)
    refs, alive = [], []
    original = rstcnn.net.forward_layers

    def recorded(*args, **kwargs):
        layers = original(*args, **kwargs)
        for _ in range(net.depth):
            f = next(layers)
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(_owner(f.values)))
            yield f
            del f

    monkeypatch.setattr(rstcnn.net, "forward_layers", recorded)
    last = forward(net, coeffs, interior_image(height=11, width=10, margin=2))
    assert alive == [0] * net.depth
    assert refs[-1]() is _owner(last.values)


@pytest.mark.parametrize("parts", [1, 2])
def test_forward_layers_step_holds_no_input_map(parts, monkeypatch):
    # One joint step of the criterion-5 report's largest batch (REPORT_PAIRS
    # pairs and the zero input of the fig3 K = 5, L_alpha = 1 network at 28 x
    # 28), traced from before its
    # input map was formed, peaks at the input spectra, the output and the
    # part buffers of test_joint_conv_memory_is_input_spectra_output_and_row_blocks,
    # with the layer's filters in the slack.  The input map has no term: it is
    # freed once its spectra exist.  Held beside them, it does not fit.
    monkeypatch.setattr(rstcnn.parts, "_PARTS", parts)
    net = build_network(fig3_config(), 5, 1, seed=0)
    coeffs = init_coeffs(net)
    x = ImageTensor(np.random.default_rng(0).uniform(size=(2 * REPORT_PAIRS + 1, 1, 28, 28)))
    forward(net, coeffs, x)  # warm-up: banks, bases and profiles are cached
    n, m, n_r, n_s, H, W, L = 2 * REPORT_PAIRS + 1, 2, 8, 9, 28, 28, 9
    P, Q = H + (L - 1) // 2, W + (L - 1) // 2
    spectra = n * m * n_r * n_s * P * (Q // 2 + 1) * 16
    out = n * m * n_r * n_s * H * W * 8
    row = 2 * n * n_s * P * (Q // 2 + 1) * 16 + n * n_s * H * Q * 8
    slack = m * m * n_r * 4 * n_s * L * L * 8 + (parts + 1) * 2**18
    bound = spectra + out + parts * row + slack
    assert out + spectra + out + parts * row > bound
    layers = forward_layers(net, coeffs, x)
    next(layers)
    tracemalloc.start()
    try:
        vals = next(layers).values  # layer 2, the input of the measured step
        tracemalloc.reset_peak()
        del vals
        next(layers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize(
    "keep, match",
    [
        (np.ones((8, 4), dtype=bool), "keep must be a boolean"),
        (np.ones((5, 8), dtype=bool), "keep must be a boolean"),
        (np.ones((8, 5), dtype=int), "keep must be a boolean"),
        (np.zeros((8, 5), dtype=bool), "keep must be a boolean"),
    ],
    ids=["scales", "transposed", "int", "empty"],
)
def test_keep_must_be_a_nonempty_boolean_mask(keep, match):
    net = _cone_net(2, 2, 1)
    coeffs = init_coeffs(net, seed=0)
    with pytest.raises(ValueError, match=match):
        next(forward_layers(net, coeffs, interior_image(height=9, width=9, margin=2), keep=keep))


def test_batched_shape_mismatches_raise():
    # a batch of two one-channel maps must not pass for one two-channel map
    rng = np.random.default_rng(0)
    spec = LayerSpec(1, 1, 1, 3, L_theta=2, L_alpha=1)
    feat = FeatureMap(rng.standard_normal((2, 1, 4, 2, 5, 5)), math.pi / 2, np.array([-1.0, 1.0]))
    for bad in ((2, 1, 4, 2, 2, 1, 3, 3), (1, 1, 8, 2, 2, 1, 3, 3), (1, 1, 4, 2, 3, 1, 3, 3)):
        with pytest.raises(ConfigError, match="group shape"):
            joint_conv(feat, rng.standard_normal(bad), np.zeros(1), spec)
    with pytest.raises(ConfigError, match="input channels"):
        lifting_conv(ImageTensor(np.zeros((2, 1, 5, 5))), np.zeros((2, 1, 4, 2, 3, 3)), np.zeros(1), np.array([0.0, 1.0]))


def test_batched_containers_read_group_sizes_from_trailing_axes():
    assert ImageTensor(np.zeros((3, 2, 5, 4))).values.shape[-3] == 2
    FeatureMap(np.zeros((3, 2, 4, 2, 5, 5)), math.pi / 2, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="rotation_step"):
        FeatureMap(np.zeros((4, 2, 3, 2, 5, 5)), math.pi / 2, np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="scale_grid"):
        FeatureMap(np.zeros((2, 2, 4, 3, 5, 5)), math.pi / 2, np.array([-1.0, 1.0]))


@pytest.mark.parametrize("ndim", [0, 1, 2, 5, 6])
def test_image_tensor_rejects_other_ranks(ndim):
    with pytest.raises(ValueError, match="image values"):
        ImageTensor(np.zeros((2,) * ndim))


@pytest.mark.parametrize("ndim", [0, 1, 2, 3, 4, 7])
def test_feature_map_rejects_other_ranks(ndim):
    with pytest.raises(ValueError, match="feature values"):
        FeatureMap(np.zeros((2,) * ndim), math.pi, np.array([-1.0, 1.0]))


def test_convolutions_of_zero_input_are_exactly_relu_bias():
    rng = np.random.default_rng(33)
    bias = np.array([-0.5, 0.0, 0.75])
    want = np.broadcast_to(np.maximum(bias, 0.0)[:, None, None, None, None], (3, 4, 3, 6, 7))
    lifted = lifting_conv(
        ImageTensor(np.zeros((2, 6, 7))),
        rng.standard_normal((2, 3, 4, 3, 5, 5)),
        bias,
        np.linspace(-1.0, 1.0, 3),
    )
    np.testing.assert_array_equal(lifted.values, want)
    spec = LayerSpec(2, 3, 1, 5, L_theta=2, L_alpha=2)
    feat = FeatureMap(np.zeros((2, 4, 3, 6, 7)), math.pi / 2, np.linspace(-1.0, 1.0, 3))
    joint = joint_conv(feat, rng.standard_normal((2, 3, 4, 2, 3, 2, 5, 5)), bias, spec)
    np.testing.assert_array_equal(joint.values, want)


def test_filter_amplitude_single_element_closed_form():
    net = small_net()
    spec = net.layers[0]
    basis = layer_basis(net, 0)
    for k in range(spec.K):
        a = np.zeros((1, 1, spec.K))
        a[0, 0, k] = -0.3
        amp = filter_amplitude(CoeffTensor(a, np.zeros(1)), basis)
        want = math.pi * math.sqrt(basis.spatial_eigenvalues[k]) * 0.3
        assert amp == pytest.approx(want, rel=1e-12)


def test_filter_amplitude_positively_homogeneous():
    net = joint_net()
    rng = np.random.default_rng(7)
    for idx in (0, 1):
        spec = net.layers[idx]
        basis = layer_basis(net, idx)
        if idx == 0:
            shape = (spec.in_channels, spec.out_channels, spec.K)
        else:
            shape = (spec.in_channels, spec.out_channels, spec.K, spec.n_angular, spec.n_scale)
        a = rng.standard_normal(shape)
        base = filter_amplitude(CoeffTensor(a, np.zeros(spec.out_channels)), basis)
        scaled = filter_amplitude(CoeffTensor(3.7 * a, np.zeros(spec.out_channels)), basis)
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)
        assert base > 0.0


def test_normalize_leaves_small_amplitudes_alone():
    net = small_net()
    spec = net.layers[0]
    basis = layer_basis(net, 0)
    a = np.zeros((1, 1, spec.K))
    a[0, 0, 0] = 1e-3
    coeffs = CoeffTensor(a, np.full(1, 0.25))
    out, amp = normalize_coeffs_A2(coeffs, basis)
    assert amp == filter_amplitude(coeffs, basis) < 1.0
    np.testing.assert_array_equal(out.a, coeffs.a)
    np.testing.assert_array_equal(out.b, coeffs.b)


def test_normalize_caps_large_amplitudes_at_one():
    net = joint_net()
    spec = net.layers[1]
    basis = layer_basis(net, 1)
    rng = np.random.default_rng(9)
    a = 50.0 * rng.standard_normal((2, 2, spec.K, spec.n_angular, spec.n_scale))
    coeffs = CoeffTensor(a, np.full(2, 1.0))
    assert filter_amplitude(coeffs, basis) > 1.0
    out, amp = normalize_coeffs_A2(coeffs, basis)
    assert amp == 1.0
    assert filter_amplitude(out, basis) == pytest.approx(1.0, rel=1e-12)
    # bias is rescaled by the same factor so pre-activation values rescale too
    ratio = coeffs.a.ravel()[0] / out.a.ravel()[0]
    assert out.b[0] * ratio == pytest.approx(coeffs.b[0], rel=1e-12)


def test_init_coeffs_deterministic_normalized_zero_bias():
    net = joint_net()
    c1 = init_coeffs(net, seed=4)
    c2 = init_coeffs(net, seed=4)
    c3 = init_coeffs(net, seed=5)
    for idx, (u, v) in enumerate(zip(c1, c2)):
        np.testing.assert_array_equal(u.a, v.a)
        assert np.all(u.b == 0.0)
        amp = filter_amplitude(u, layer_basis(net, idx))
        assert amp <= 1.0 + 1e-12
    assert any(not np.array_equal(u.a, w.a) for u, w in zip(c1, c3))
    # default seed comes from the config
    d1 = init_coeffs(net)
    d2 = init_coeffs(NetworkConfig(net.layers, 4, 3, seed=0))
    np.testing.assert_array_equal(d1[0].a, d2[0].a)


@pytest.mark.parametrize("seed", [0, 4])
def test_init_coeffs_draws_each_layer_from_its_own_stream(seed):
    net = small_net(layers=3, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=seed)
    assert len(coeffs) == net.depth
    for idx, got in enumerate(coeffs):
        want = draw_coeffs(net, idx, np.random.default_rng([seed, idx]))
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
    # the shared stream of a bounds report: layer 1 continues where layer 0 stopped
    rng = np.random.default_rng([seed, 31])
    first, second = draw_coeffs(net, 0, rng), draw_coeffs(net, 1, rng)
    assert first.a.shape == (1, 2, 3) and second.a.shape == (2, 2, 3, 5, 3)
    assert not np.array_equal(second.a, draw_coeffs(net, 1, np.random.default_rng([seed, 31])).a)


def test_forward_shapes_and_return_all():
    net = small_net(layers=3, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=1)
    single = interior_image(height=15, width=17, margin=4, channels=1)
    pair = ImageTensor(np.stack([interior_image(height=15, width=17, margin=4, seed=s).values for s in range(2)]))
    for x, lead in ((single, ()), (pair, (2,))):
        feats = forward(net, coeffs, x, return_all=True)
        assert len(feats) == 3
        for f in feats:
            assert f.values.shape == lead + (2, 4, 3, 15, 17)
            assert f.rotation_step == pytest.approx(math.pi / 2)
        # the generator yields the very maps return_all lists, and forward returns the last
        layers = list(forward_layers(net, coeffs, x))
        assert len(layers) == len(feats)
        for got, want in zip(layers, feats):
            np.testing.assert_array_equal(got.values, want.values)
            assert got.rotation_step == want.rotation_step
            np.testing.assert_array_equal(got.scale_grid, want.scale_grid)
        last = forward(net, coeffs, x)
        np.testing.assert_array_equal(last.values, layers[-1].values)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LayerSpec(1, 1, 3, 4),
        lambda: LayerSpec(1, 1, 0, 5),
        lambda: LayerSpec(0, 1, 3, 5),
        lambda: LayerSpec(1, 1, 3, 5, L_theta=0),
        lambda: LayerSpec(1, 1, 3, 5, n_scale=0),
        lambda: NetworkConfig((), 4, 3),
        lambda: NetworkConfig((LayerSpec(1, 2, 3, 5), LayerSpec(3, 2, 3, 5)), 4, 3),
        lambda: NetworkConfig((LayerSpec(1, 1, 3, 5), LayerSpec(1, 1, 3, 5, L_theta=3)), 4, 3),
        lambda: NetworkConfig((LayerSpec(1, 1, 3, 5),), 0, 3),
        lambda: NetworkConfig((LayerSpec(1, 1, 3, 5),), 4, 3, spatial_kind="nope"),
        lambda: NetworkConfig(
            (LayerSpec(1, 1, 3, 5, layer_scale=2.0), LayerSpec(1, 1, 3, 5, layer_scale=1.0)), 4, 3
        ),
        lambda: CoeffTensor(np.zeros((1, 1, 3, 5)), np.zeros(1)),
        lambda: CoeffTensor(np.zeros((1, 2, 3)), np.zeros(1)),
    ],
)
def test_config_errors(make):
    with pytest.raises(ConfigError):
        make()


def test_nonpositive_scale_range_rejected_with_several_scale_channels():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="scale_range"):
            NetworkConfig((LayerSpec(1, 1, 3, 5),), 4, 9, scale_range=bad)
    # a single scale channel sits at 0 whatever the range
    assert NetworkConfig((LayerSpec(1, 1, 3, 5),), 4, 1, scale_range=0.0).scale_grid.tolist() == [0.0]


def test_synthesize_rejects_mismatched_coefficients():
    net = joint_net()
    bank = layer_bank(net, 1)
    spec = net.layers[1]
    with pytest.raises(ConfigError):
        synthesize_filters(CoeffTensor(np.zeros((2, 2, spec.K + 1)), np.zeros(2)), bank, spec)
    bad = np.zeros((2, 2, spec.K, spec.n_angular + 2, spec.n_scale))
    with pytest.raises(ConfigError):
        synthesize_filters(CoeffTensor(bad, np.zeros(2)), bank, spec)


def test_conv_shape_mismatches_raise():
    rng = np.random.default_rng(0)
    spec = LayerSpec(1, 1, 1, 3, L_theta=2, L_alpha=1)
    feat = FeatureMap(rng.standard_normal((1, 4, 2, 5, 5)), math.pi / 2, np.array([-1.0, 1.0]))
    good = rng.standard_normal((1, 1, 4, 2, 2, 1, 3, 3))
    with pytest.raises(ConfigError):
        joint_conv(feat, rng.standard_normal((2, 1, 4, 2, 2, 1, 3, 3)), np.zeros(1), spec)
    with pytest.raises(ConfigError):
        joint_conv(feat, good[:, :, :, :1], np.zeros(1), spec)  # tap axes vs spec
    with pytest.raises(ConfigError):
        lifting_conv(ImageTensor(np.zeros((2, 5, 5))), np.zeros((1, 1, 4, 2, 3, 3)), np.zeros(1), np.array([0.0, 1.0]))
    net = small_net()
    with pytest.raises(ConfigError):
        forward(net, init_coeffs(net)[:1], interior_image(height=9, width=9, margin=3))
