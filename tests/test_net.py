"""Filter synthesis, convolution layers, and amplitude normalization.

The two convolution kernels are checked entry-by-entry against naive loop
implementations of their defining sums; synthesis is checked against a
direct (k, m, n) triple loop plus one-hot probes.
"""

import math

import numpy as np
import pytest

import reference
from rstcnn import (
    ConfigError,
    CoeffTensor,
    FeatureMap,
    ImageTensor,
    LayerSpec,
    NetworkConfig,
    alpha_taps,
    alpha_weights,
    filter_amplitude,
    forward,
    group_pool,
    init_coeffs,
    joint_conv,
    layer_bank,
    layer_basis,
    lifting_conv,
    normalize_coeffs_A2,
    synthesize_filters,
    theta_taps,
)

from conftest import interior_image, small_net


def joint_net():
    return small_net(layers=2, channels=2, L_alpha=2, max_angular=2)


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
    basis = layer_basis(net, 1)
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
                    * reference.angular_value(basis.angular[m], theta)
                    * reference.scale_value(basis.scale[n], alpha)
                )
                np.testing.assert_allclose(filt[1, 0, :, t, :, q], want, atol=1e-14)
        assert np.all(filt[0] == 0.0) and np.all(filt[1, 1] == 0.0)


def test_synthesize_joint_matches_loop_oracle():
    net = joint_net()
    spec = net.layers[1]
    bank = layer_bank(net, 1)
    basis = layer_basis(net, 1)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2, spec.K, spec.n_angular, spec.n_scale))
    filt = synthesize_filters(CoeffTensor(a, np.zeros(2)), bank, spec)
    assert filt.shape == (2, 2, 4, spec.L_theta, 3, spec.L_alpha, 5, 5)
    for _ in range(20):
        pos = tuple(rng.integers(d) for d in filt.shape)
        want = reference.naive_synthesize_joint_at(
            a, bank.values, basis, spec.L_theta, spec.L_alpha, pos
        )
        assert filt[pos] == pytest.approx(want, abs=1e-12)


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


@pytest.mark.parametrize(
    "m_in, m_out, n_r, n_s, H, W, L",
    [
        (1, 2, 2, 3, 6, 9, 5),  # H != W, even x odd
        (2, 1, 2, 2, 7, 4, 3),  # H != W, odd x even
        (1, 1, 2, 2, 3, 4, 7),  # stencil wider than the image
        (3, 2, 2, 1, 5, 5, 3),  # M_in != M_out
    ],
)
def test_lifting_conv_edge_shapes_match_loop_oracle(m_in, m_out, n_r, n_s, H, W, L):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((m_in, H, W))
    filters = rng.standard_normal((m_in, m_out, n_r, n_s, L, L))
    bias = rng.standard_normal(m_out)
    out = lifting_conv(ImageTensor(x), filters, bias, np.linspace(-1.0, 1.0, n_s)).values
    assert out.shape == (m_out, n_r, n_s, H, W)
    for pos in np.ndindex(out.shape):
        assert out[pos] == pytest.approx(reference.naive_lifting_at(x, filters, bias, *pos), abs=1e-10)


@pytest.mark.parametrize(
    "m_in, m_out, n_r, n_s, H, W, L, L_theta, L_alpha",
    [
        (2, 2, 4, 3, 6, 9, 3, 2, 2),  # H != W, even x odd
        (2, 2, 4, 3, 7, 4, 3, 2, 2),  # H != W, odd x even
        (1, 2, 2, 2, 3, 4, 7, 1, 1),  # stencil wider than the image
        (2, 1, 2, 2, 4, 5, 3, 2, 4),  # L_alpha > N_s: taps q >= N_s read only zeros
        (1, 1, 4, 2, 5, 5, 3, 1, 2),  # L_theta = 1
        (1, 1, 4, 2, 5, 5, 3, 4, 2),  # L_theta = N_r
        (3, 2, 4, 2, 5, 6, 3, 2, 1),  # M_in != M_out
    ],
)
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
        amp = filter_amplitude(CoeffTensor(a, np.zeros(1)), basis, spec)
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
        base = filter_amplitude(CoeffTensor(a, np.zeros(spec.out_channels)), basis, spec)
        scaled = filter_amplitude(CoeffTensor(3.7 * a, np.zeros(spec.out_channels)), basis, spec)
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)
        assert base > 0.0


def test_normalize_leaves_small_amplitudes_alone():
    net = small_net()
    spec = net.layers[0]
    basis = layer_basis(net, 0)
    a = np.zeros((1, 1, spec.K))
    a[0, 0, 0] = 1e-3
    coeffs = CoeffTensor(a, np.full(1, 0.25))
    out, amp = normalize_coeffs_A2(coeffs, basis, spec)
    assert amp == filter_amplitude(coeffs, basis, spec) < 1.0
    np.testing.assert_array_equal(out.a, coeffs.a)
    np.testing.assert_array_equal(out.b, coeffs.b)


def test_normalize_caps_large_amplitudes_at_one():
    net = joint_net()
    spec = net.layers[1]
    basis = layer_basis(net, 1)
    rng = np.random.default_rng(9)
    a = 50.0 * rng.standard_normal((2, 2, spec.K, spec.n_angular, spec.n_scale))
    coeffs = CoeffTensor(a, np.full(2, 1.0))
    assert filter_amplitude(coeffs, basis, spec) > 1.0
    out, amp = normalize_coeffs_A2(coeffs, basis, spec)
    assert amp == 1.0
    assert filter_amplitude(out, basis, spec) == pytest.approx(1.0, rel=1e-12)
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
        amp = filter_amplitude(u, layer_basis(net, idx), net.layers[idx])
        assert amp <= 1.0 + 1e-12
    assert any(not np.array_equal(u.a, w.a) for u, w in zip(c1, c3))
    # default seed comes from the config
    d1 = init_coeffs(net)
    d2 = init_coeffs(NetworkConfig(net.layers, 4, 3, seed=0))
    np.testing.assert_array_equal(d1[0].a, d2[0].a)


def test_forward_shapes_and_return_all():
    net = small_net(layers=3, channels=2, L_alpha=2, max_angular=2)
    coeffs = init_coeffs(net, seed=1)
    x = interior_image(height=15, width=17, margin=4, channels=1)
    feats = forward(net, coeffs, x, return_all=True)
    assert len(feats) == 3
    for f in feats:
        assert f.values.shape == (2, 4, 3, 15, 17)
        assert f.rotation_step == pytest.approx(math.pi / 2)
    last = forward(net, coeffs, x)
    np.testing.assert_array_equal(last.values, feats[-1].values)


def test_group_pool_takes_max_over_group_axes():
    vals = np.zeros((2, 2, 2, 3, 3))
    vals[0, 1, 0, 2, 1] = 4.0
    vals[0, 0, 1, 0, 0] = -1.0
    vals[1, 1, 1, 1, 1] = 0.5
    f = FeatureMap(vals, math.pi, np.array([-1.0, 1.0]))
    np.testing.assert_array_equal(group_pool(f), [4.0, 0.5])


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
