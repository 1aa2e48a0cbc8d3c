"""Equivariance errors, stability certificates, and filter-bound quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from rstcnn import (
    AssumptionError,
    BasisSet,
    CoeffTensor,
    DeformationField,
    FeatureMap,
    GroupElement,
    ImageTensor,
    LayerSpec,
    NetworkConfig,
    UndefinedEquivarianceError,
    build_basis,
    build_network,
    channel_cone,
    disk_quadrature,
    equivariance_curve,
    equivariance_error,
    feature_norm,
    fig3_config,
    filter_bound_report,
    forward,
    init_coeffs,
    isometry_deviation,
    layer_bank,
    layer_basis,
    live_slices,
    make_tau_targeting_grad,
    nonexpansiveness_report,
    normalize_coeffs_A2,
    smooth_feature_values,
    stability_certificate,
    sweep_input,
    tau_norms,
)
import rstcnn.analysis
import rstcnn.basis
from rstcnn.analysis import REPORT_PAIRS
from rstcnn.basis import eval_spatial_stack
import reference
from conftest import interior_image, outputs_per_part_count, small_net

IDENTITY = GroupElement(0.0, 0.0, (0.0, 0.0))


def test_identity_equivariance_error_is_exactly_zero(tiny_net, tiny_coeffs):
    x = interior_image(seed=0)
    for layer in (1, 2):
        assert equivariance_error(tiny_net, tiny_coeffs, x, IDENTITY, layer) == 0.0
    curve = equivariance_curve(tiny_net, tiny_coeffs, x, IDENTITY)
    assert curve.errors == (0.0, 0.0)


def test_one_layer_integer_translation_error_tiny():
    net = small_net(layers=1)
    coeffs = init_coeffs(net, seed=2)
    x = interior_image(height=25, width=25, margin=8, seed=1)
    g = GroupElement(0.0, 0.0, (2.0, -1.0))
    assert equivariance_error(net, coeffs, x, g, layer=1) < 1e-6


def test_one_layer_quarter_rotation_error_tiny():
    net = small_net(layers=1)  # N_r = 4, odd grid
    coeffs = init_coeffs(net, seed=3)
    x = interior_image(height=21, width=21, margin=6, seed=2)
    g = GroupElement(-math.pi / 2.0, 0.0, (0.0, 0.0))
    assert equivariance_error(net, coeffs, x, g, layer=1) < 1e-6


def test_zero_reference_raises_and_curve_reports_inf(tiny_net, tiny_coeffs):
    x = interior_image(seed=4)
    # zero the second layer's coefficients: its output is identically zero
    dead = list(tiny_coeffs)
    dead[1] = CoeffTensor(np.zeros_like(dead[1].a), np.zeros_like(dead[1].b))
    with pytest.raises(UndefinedEquivarianceError):
        equivariance_error(tiny_net, dead, x, IDENTITY, layer=2)
    g = GroupElement(0.0, 0.0, (1.0, 0.0))
    curve = equivariance_curve(tiny_net, dead, x, g)
    assert curve.errors[0] < 1e-6
    assert math.isinf(curve.errors[1])


def test_curve_echoes_configuration(tiny_net, tiny_coeffs):
    g = GroupElement(-math.pi / 2.0, 0.0, (1.0, 0.0))
    curve = equivariance_curve(tiny_net, tiny_coeffs, interior_image(seed=5), g)
    assert len(curve.errors) == tiny_net.depth
    with pytest.raises(ValueError):
        equivariance_error(tiny_net, tiny_coeffs, interior_image(), g, layer=3)


def stability_setup(seed=0, level=0.05):
    # n_scales = 5 on [-1, 1] gives scale step 0.5, so beta = -0.5 is on-lattice
    net = small_net(layers=2, channels=2, L_alpha=3, max_angular=2, n_scales=5)
    coeffs = init_coeffs(net, seed=seed)
    x = interior_image(height=29, width=29, margin=8, seed=seed)
    tau = make_tau_targeting_grad([seed, 99], level, 3, 29, 29)
    g = GroupElement(-math.pi / 2.0, -0.5, (0.0, 0.0))
    return net, coeffs, x, tau, g


def test_stability_certificate_holds_and_reports():
    net, coeffs, x, tau, g = stability_setup()
    report = stability_certificate(net, coeffs, x, g, tau)
    assert not report.violation and not report.vacuous
    assert report.lhs <= report.rhs + report.allowance
    assert report.lhs >= 0.0 and report.rhs > 0.0
    assert len(report.per_layer_errors) == net.depth
    assert report.margin == report.rhs - report.lhs
    d = report.to_dict()
    assert d["violation"] is False and d["L"] == 2


def test_stability_rhs_matches_closed_form():
    net, coeffs, x, tau, g = stability_setup(seed=1)
    report = stability_certificate(net, coeffs, x, g, tau)
    sup_tau, sup_grad = tau_norms(tau)
    want = (
        2.0 ** (g.beta + 1.0)
        * (4.0 * net.depth * sup_grad + 2.0 ** (-net.layers[-1].layer_scale) * sup_tau)
        * feature_norm(x)
    )
    assert report.rhs == pytest.approx(want, rel=1e-12)
    assert report.sup_tau == sup_tau and report.sup_grad_tau == sup_grad


def test_stability_vacuous_for_zero_field_and_identity():
    net, coeffs, x, _, _ = stability_setup(seed=2)
    zero_tau = DeformationField(np.zeros((2, 4, 4, 4)), 29, 29)
    report = stability_certificate(net, coeffs, x, IDENTITY, zero_tau)
    assert report.vacuous and not report.violation
    assert report.rhs == 0.0


def test_amplitude_precondition_named_a2():
    net, coeffs, x, tau, g = stability_setup(seed=3)
    loud = [CoeffTensor(50.0 * c.a, c.b) for c in coeffs]
    with pytest.raises(AssumptionError, match=r"\(A2\)"):
        stability_certificate(net, loud, x, g, tau)


def test_gradient_precondition_named_a3():
    net, coeffs, x, _, g = stability_setup(seed=4)
    steep = make_tau_targeting_grad([4, 99], 0.25, 3, 29, 29)
    with pytest.raises(AssumptionError, match=r"\(A3\)"):
        stability_certificate(net, coeffs, x, g, steep)


def test_nonexpansiveness_with_normalized_coefficients():
    net = small_net(layers=2, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=6)
    report = nonexpansiveness_report(net, coeffs, n_trials=4, seed=11, height=15, width=15)
    assert report.n_trials == 4
    assert len(report.per_layer_worst) == net.depth
    assert report.worst_ratio <= 1.0 + 1e-9
    assert report.centered_worst <= 1.0 + 1e-9
    assert report.constancy_dev < 1e-10  # zero bias: zero input stays zero


@pytest.mark.parametrize("n_trials", [1, 3, 4, 5, 9])
def test_nonexpansiveness_report_equals_per_pair_oracle(n_trials):
    # partial and whole batches of REPORT_PAIRS trial pairs give the per-pair report exactly
    net = small_net(layers=3, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=6)
    got = nonexpansiveness_report(net, coeffs, n_trials=n_trials, seed=11, height=15, width=15)
    want = reference.pairwise_nonexpansiveness_report(net, coeffs, n_trials=n_trials, seed=11, height=15, width=15)
    assert got == want


@pytest.mark.parametrize(
    "L_alpha, v, beta, eta, kind, layers",
    [
        (3, (0.0, 0.0), -0.5, -math.pi / 2.0, "fb", 5),
        (3, (1.5, -2.0), -0.5, -math.pi / 2.0, "fb", 5),
        (1, (2.0, 1.0), -0.5, -math.pi / 2.0, "fb", 5),
        (1, (0.0, 0.0), 1.5, -math.pi / 2.0, "fb", 5),
        (3, (0.5, 0.0), -0.5, math.pi / 4.0, "fb", 5),
        (3, (0.0, 1.0), 0.5, -math.pi / 2.0, "fb", 5),
        (3, (1.0, 1.0), -0.5, -math.pi / 2.0, "sl", 5),
        (1, (0.0, 0.0), -0.5, -math.pi / 2.0, "fb", 1),
    ],
    ids=[
        "fig3-La3",
        "fig3-La3-translated",
        "fig3-La1-translated",
        "beyond-scale-axis",
        "eta-quarter-pi",
        "beta-up",
        "sine-basis",
        "one-layer",
    ],
)
def test_equivariance_curve_equals_full_map_oracle(L_alpha, v, beta, eta, kind, layers):
    # the curve forwards only the cone of its two compared channels and warps
    # only one of them; the oracle forwards and warps every channel and slices.
    # At eta = pi/4 the two channels lie in different residue classes of rotations.
    cfg = fig3_config(height=24, width=24, channels=1, k_list=(3,), spatial_kind=kind, layers=layers)
    net = build_network(cfg, 3, L_alpha, seed=0)
    coeffs = init_coeffs(net)
    g = GroupElement(eta, beta, v)
    errors = equivariance_curve(net, coeffs, sweep_input(cfg, 0), g).errors
    assert len(errors) == layers
    assert errors == reference.full_map_equivariance_errors(net, coeffs, sweep_input(cfg, 0), g)
    if L_alpha == 3 and beta == -0.5:
        assert math.isinf(errors[3]) and math.isinf(errors[4]) and all(math.isfinite(e) for e in errors[:3])
    if beta == 1.5:  # the middle of 9 channels 0.25 apart reads channel 4 - 6 = -2
        assert all(math.isinf(e) for e in errors)
    else:
        assert math.isfinite(errors[0])


def test_sweep_cell_transforms_only_its_cone(monkeypatch):
    # fig3 K=10, L_alpha=1, g = (-pi/2, -0.5, 0): the compared channels are
    # (0, 4) of D_g x and (2, 6) of x, one residue class mod 2 of rotations.
    # Each rfft2 and ifft call counts the 2-D slices it transforms.
    cfg = fig3_config()
    net = build_network(cfg, 10, 1, seed=0)
    coeffs = init_coeffs(net)
    keep = np.zeros((8, 9), dtype=bool)
    keep[0, 4] = keep[2, 6] = True
    live = [live_slices(net, coeffs, idx) for idx in range(1, net.depth)]
    windows = channel_cone(net, live, keep)
    assert [(w[0].tolist(), w[1], w[2]) for w in windows] == [([True, False] * 4, 4, 7)] * 5
    slices = []
    for name in ("rfft2", "ifft"):
        fft = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, fft=fft, **kw: slices.append(math.prod(a.shape[:-2])) or fft(a, *args, **kw))
    equivariance_curve(net, coeffs, sweep_input(cfg, 0), cfg.group_element)
    # per sample: the lifting layer transforms its one image and inverse-transforms
    # its window; a joint layer with one live scale tap reads its own window
    cone = [int(w[0].sum()) * (w[2] - w[1]) for w in windows]
    per_sample = sum(
        spec.in_channels * (1 if idx == 0 else cone[idx]) + spec.out_channels * cone[idx]
        for idx, spec in enumerate(net.layers)
    )
    assert sum(slices) == 2 * per_sample == 2 * (1 + 2 * 12 + 4 * (2 * 12 + 2 * 12))


def test_batched_report_forward_peaks_below_a_sweep_forward():
    # one REPORT_PAIRS batch of the criterion-5 network at 28x28 against a full
    # forward (every channel) of one fig3 K=10, L_alpha=3 pair at 56x56; the
    # sweep forwards only the cone of its compared channels, which peaks lower
    cfg = fig3_config()
    runs = []
    for K, L_alpha, samples, side in ((5, 1, 2 * REPORT_PAIRS, 28), (10, 3, 2, 56)):
        net = build_network(cfg, K, L_alpha, seed=0)
        coeffs = init_coeffs(net)
        for idx in range(net.depth):
            layer_bank(net, idx)  # banks are cached across forwards, so not part of either peak
        x = ImageTensor(np.random.default_rng(0).uniform(size=(samples, 1, side, side)))
        runs.append((net, coeffs, x))
    peaks = []
    for net, coeffs, x in runs:
        tracemalloc.start()
        try:
            forward(net, coeffs, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_filter_bounds_vanish_for_zero_coefficients(tiny_net):
    spec = tiny_net.layers[0]
    basis = layer_basis(tiny_net, 0)
    zero = CoeffTensor(np.zeros((1, 1, spec.K)), np.zeros(1))
    (report,) = filter_bound_report([zero], [basis], [spec], disk_quadrature(basis, 32), n_theta=8)
    assert report.B == report.C == report.D == report.A == 0.0
    assert report.scaled_D == 0.0
    assert report.to_dict()["layer_scale"] == spec.layer_scale


def test_filter_bound_single_element_against_radial_quadrature(tiny_net):
    # element 0 is the radial m = 0 element, so each bound is |a| times a
    # 1-D radial integral: B = 2 pi int |psi| r dr, C = 2 pi int r |psi'| r dr
    # and 2^j D = 2 pi int |psi'| r dr.  Neither integrand has a kink on
    # [0, 1] (J_0 and J_1 keep their signs below j_{0,1}), so the polar
    # Gauss rule is exact on them to rounding and a fine trapezoid's
    # 1e-10-sized error decides the tolerance.
    from rstcnn import eval_spatial, eval_spatial_grad

    spec = tiny_net.layers[0]
    basis = layer_basis(tiny_net, 0)
    assert basis.spatial[0].kind == "fb-disk" and basis.spatial[0].indices == (0, 1)
    a = np.zeros((1, 1, spec.K))
    a[0, 0, 0] = -1.4
    (report,) = filter_bound_report([CoeffTensor(a, np.zeros(1))], [basis], [spec], disk_quadrature(basis))
    rs = np.linspace(0.0, 1.0, 20001)
    # the element and its gradient are zero on the edge, so the last sample
    # sits just inside it, where psi' keeps its limit
    pts = np.stack([np.minimum(rs, np.nextafter(1.0, 0.0)), np.zeros_like(rs)], axis=-1)
    psi = eval_spatial(basis.spatial[0], pts)
    dpsi = eval_spatial_grad(basis.spatial[0], pts)[:, 0]  # on the x axis the gradient is (psi', 0)
    radial = {
        "B": 2.0 * math.pi * np.trapezoid(np.abs(psi) * rs, rs),
        "C": 2.0 * math.pi * np.trapezoid(np.abs(dpsi) * rs * rs, rs),
        "scaled_D": 2.0 * math.pi * np.trapezoid(np.abs(dpsi) * rs, rs),
    }
    for name, value in radial.items():
        assert getattr(report, name) == pytest.approx(1.4 * value, rel=1e-8)
    # and the analytic ordering B <= A = pi sqrt(mu_0) |a|
    assert report.B <= report.A
    assert report.A == pytest.approx(math.pi * math.sqrt(basis.spatial_eigenvalues[0]) * 1.4, rel=1e-12)


def test_filter_bound_of_the_first_sine_element_is_exact():
    # psi = sin(pi (x + 1) / 2) sin(pi (y + 1) / 2) is positive on the open
    # square, so int |psi| = c (4 / pi)^2 exactly; the integrand is smooth
    # up to the edge, and the Gauss rule is exact on it to rounding
    net = small_net(layers=1, K=3, spatial_kind="sl")
    spec, basis = net.layers[0], layer_basis(net, 0)
    assert basis.spatial[0].indices == (1, 1)
    a = np.zeros((1, 1, spec.K))
    a[0, 0, 0] = 0.7
    (report,) = filter_bound_report([CoeffTensor(a, np.zeros(1))], [basis], [spec], disk_quadrature(basis))
    assert report.B == pytest.approx(0.7 * basis.spatial[0].normalization * (4.0 / math.pi) ** 2, rel=1e-12)


def test_filter_bound_joint_constant_angular_profile_doubles_lifting():
    # a joint layer whose only angular mode is m = 0 integrates to the same
    # per-pair values as the lifting layer; the joint aggregation then takes
    # the 2 M_in / M_out branch for M_in = M_out = 1.
    net = small_net(layers=2, channels=1, L_alpha=1, max_angular=1)
    rng = np.random.default_rng(3)
    ak = rng.standard_normal(net.layers[0].K)
    lift_spec = net.layers[0]
    lift = CoeffTensor(ak[None, None, :], np.zeros(1))
    quad = disk_quadrature(layer_basis(net, 0), 64)
    (lift_report,) = filter_bound_report([lift], [layer_basis(net, 0)], [lift_spec], quad, n_theta=8)
    joint_spec = net.layers[1]
    aj = np.zeros((1, 1, joint_spec.K, joint_spec.n_angular, 1))
    aj[0, 0, :, 0, 0] = ak
    joint = CoeffTensor(aj, np.zeros(1))
    (joint_report,) = filter_bound_report([joint], [layer_basis(net, 1)], [joint_spec], quad, n_theta=8)
    for name in ("B", "C", "D"):
        assert getattr(joint_report, name) == pytest.approx(
            2.0 * getattr(lift_report, name), rel=1e-10
        )


def bounds_net(spatial_kind, K=4):
    # M_in != M_out on both layers and two scale modes on the joint one
    return NetworkConfig(
        layers=(
            LayerSpec(2, 3, K, 5),
            LayerSpec(3, 2, K, 5, L_theta=2, L_alpha=3, max_angular=2, n_scale=2),
        ),
        n_rotations=4,
        n_scales=3,
        scale_range=1.0,
        spatial_kind=spatial_kind,
    )


@pytest.mark.parametrize("spatial_kind", ["fb", "sl"])
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("n_theta", [8, 5])
def test_filter_bounds_match_chunked_grid_oracle(spatial_kind, layer, n_theta):
    net = bounds_net(spatial_kind)
    coeffs = init_coeffs(net, seed=11)[layer]
    basis, spec = layer_basis(net, layer), net.layers[layer]
    expected = reference.chunked_filter_bounds(coeffs, basis, spec, n=42, n_theta=n_theta)
    # one quadrature from layer 0's basis serves both layers, as in run_bounds_report
    (report,) = filter_bound_report([coeffs], [basis], [spec], disk_quadrature(layer_basis(net, 0), 42), n_theta=n_theta)
    for name, value in expected.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spatial_kind", ["fb", "sl"])
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("n_theta", [1, 5])
def test_filter_bounds_are_bit_identical_for_every_part_count(spatial_kind, layer, n_theta, monkeypatch):
    # the pool splits the rule's chunks, not the theta samples: chunks of 100
    # points cut the 1,764 nodes of the n = 42 rule into 18 blocks, the last
    # one short, and n_theta = 1 gives each block one theta sample per layer
    net = bounds_net(spatial_kind)
    coeffs = init_coeffs(net, seed=12)[layer]
    basis, spec = layer_basis(net, layer), net.layers[layer]
    quad = disk_quadrature(layer_basis(net, 0), 42)
    quad.recipe.chunk = 100
    reports = outputs_per_part_count(monkeypatch, lambda: filter_bound_report([coeffs], [basis], [spec], quad, n_theta=n_theta)[0])
    for report in reports[1:]:
        assert (report.B, report.C, report.D) == (reports[0].B, reports[0].C, reports[0].D)
    expected = reference.chunked_filter_bounds(coeffs, basis, spec, n=42, n_theta=n_theta)
    for name, value in expected.items():
        assert getattr(reports[0], name) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spatial_kind", ["fb", "sl"])
@pytest.mark.parametrize("n_theta", [1, 5])
def test_layers_sharing_one_pass_keep_their_own_bits(spatial_kind, n_theta, monkeypatch):
    # the lifting and joint layers' sums come from one assembly of each
    # chunk, and each report keeps the bits of its one-layer call, for
    # every part count
    net = bounds_net(spatial_kind)
    coeffs = init_coeffs(net, seed=14)
    bases = [layer_basis(net, layer) for layer in (0, 1)]
    quad = disk_quadrature(bases[0], 42)
    quad.recipe.chunk = 100

    def run():
        alone = [filter_bound_report([coeffs[i]], [bases[i]], [net.layers[i]], quad, n_theta=n_theta)[0] for i in (0, 1)]
        return filter_bound_report(coeffs, bases, net.layers, quad, n_theta=n_theta), alone

    runs = outputs_per_part_count(monkeypatch, run)
    for both, alone in runs:
        assert both == alone == runs[0][1]
    # and the two-layer call assembles each chunk once
    assembled = []
    assemble = quad.recipe.assemble
    monkeypatch.setattr(quad.recipe, "assemble", lambda lo, hi: assembled.append((lo, hi)) or assemble(lo, hi))
    filter_bound_report(coeffs, bases, net.layers, quad, n_theta=n_theta)
    assert sorted(assembled) == [(lo, min(lo + 100, quad.radius.size)) for lo in range(0, quad.radius.size, 100)]
    with pytest.raises(ValueError, match="2 coefficient tensors, 1 bases and 2 layer specs"):
        filter_bound_report(coeffs, bases[:1], net.layers, quad)


@pytest.mark.parametrize("spatial_kind", ["fb", "sl"])
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("block_size", [4000, None])
def test_block_sums_keep_the_bits_of_one_pass_per_theta(spatial_kind, layer, block_size, monkeypatch):
    # _block_sums runs every theta sample's values, then every sample's
    # gradients; each block's sums must keep the bits of one pass per
    # sample, one GEMM per sample and factor over the whole block.  With
    # block_size, chunks of block_size // 40 = 100 nodes cut the 1,764 nodes
    # of the n = 42 rule into several blocks, the last one short; the
    # default chunk takes them whole.
    net = bounds_net(spatial_kind)
    coeffs = init_coeffs(net, seed=13)[layer]
    quad = disk_quadrature(layer_basis(net, 0), 42)
    if block_size:
        quad.recipe.chunk = block_size // 40
    size, step = quad.radius.size, quad.recipe.chunk
    calls = []
    block_sums = rstcnn.analysis._block_sums

    def recorded(*args):
        calls.append((args, block_sums(*args)))
        return calls[-1][1]

    monkeypatch.setattr(rstcnn.analysis, "_block_sums", recorded)
    filter_bound_report([coeffs], [layer_basis(net, layer)], [net.layers[layer]], quad, n_theta=5)
    widths = [min(step, size - lo) for lo in range(0, size, step)]
    assert sorted(args[1].shape[1] for args, _ in calls) == sorted(widths)
    assert widths[-1] < step if block_size else widths == [size]
    for args, sums in calls:
        assert np.array_equal(sums, reference.block_sums_per_theta(*args))


@pytest.mark.parametrize("kind", ["fb", "sl"])
@pytest.mark.parametrize("n", [42, 128])
def test_quadrature_nodes_lie_strictly_inside_the_domain_off_the_origin(kind, n):
    # no node sits on the domain's edge, where |grad W| jumps, or at the
    # origin, and the weights are positive and add up to the domain's area
    quad = disk_quadrature(build_basis(kind, 10), n)
    x, y = quad.points.T
    assert quad.points.shape == (n * n, 2) and quad.weights.shape == (n * n,)
    assert quad.rule == {"fb": "gauss-polar", "sl": "gauss-square"}[kind]
    assert (quad.radius > 0.0).all()
    if kind == "fb":
        assert (quad.radius < 1.0).all()
    else:
        assert ((np.abs(x) < 1.0) & (np.abs(y) < 1.0)).all()
    assert (quad.weights > 0.0).all()
    assert quad.weights.sum() == pytest.approx(math.pi if kind == "fb" else 4.0, rel=1e-13)
    # the rule's nodes and weights, written out node by node
    nodes, weights = reference.gauss_rule(quad.spatial[0].kind, n)
    np.testing.assert_allclose(quad.points, nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(quad.weights, weights, rtol=1e-14, atol=0.0)


def test_quadrature_rejects_a_basis_of_two_domains():
    # a basis that mixes Fourier-Bessel and sine elements has no one
    # domain to fit a rule to
    mixed = BasisSet("fb", build_basis("fb", 3).spatial + build_basis("sl", 3).spatial, 0, 1)
    with pytest.raises(ValueError, match="'fb-disk' and 'sl-square'"):
        disk_quadrature(mixed)


@pytest.mark.parametrize("spatial_kind", ["fb", "sl"])
def test_filter_bounds_converge_in_the_rule_order(spatial_kind):
    # C and 2^j D, whose integrands |grad W| jump at the domain's edge on a
    # square grid, agree at n = 128 and at 2n: the rule fits the edge
    net = bounds_net(spatial_kind, K=10)
    coeffs = init_coeffs(net, seed=21)
    bases = [layer_basis(net, layer) for layer in (0, 1)]
    n = rstcnn.analysis.BOUND_QUAD_N
    coarse, fine = (filter_bound_report(coeffs, bases, net.layers, disk_quadrature(bases[0], m)) for m in (n, 2 * n))
    for a, b in zip(coarse, fine):
        assert a.C == pytest.approx(b.C, rel=1e-4) and a.scaled_D == pytest.approx(b.scaled_D, rel=1e-4)


@pytest.mark.parametrize(
    "make_basis",
    [lambda: build_basis("fb", 10), lambda: build_basis("fb", 100), lambda: build_basis("sl", 10)],
    ids=["fb10", "fb100", "sl10"],
)
@pytest.mark.parametrize("n", [42, 128])
def test_disk_quadrature_assembles_eval_spatial_stack_of_its_nodes(make_basis, n, monkeypatch):
    # the blocks the recipe assembles, concatenated, keep the bits of one
    # eval_spatial_stack call on the rule's nodes, for every part count
    basis = make_basis()
    step = 4099  # blocks that cut across the recipe's chunks, the last one short

    def digests():
        quad = disk_quadrature(basis, n)
        vals, grads = eval_spatial_stack(basis.spatial, quad.points, grad=True)
        want = [reference.array_digest(a) for a in (vals, grads[0], grads[1])]
        size = quad.radius.size
        got = []
        for component in range(3):  # values, then each gradient component: one [K, P] array at a time
            whole = np.empty((basis.n_spatial, size))
            for lo in range(0, size, step):
                block_vals, block_grads = quad.recipe.assemble(lo, min(lo + step, size))
                assert all(a.flags.c_contiguous for a in (block_vals, block_grads[0], block_grads[1]))
                whole[:, lo : lo + step] = (block_vals, block_grads[0], block_grads[1])[component]
            got.append(reference.array_digest(whole))
        assert got == want
        return got

    runs = outputs_per_part_count(monkeypatch, digests)
    assert runs == [runs[0]] * len(runs)


def test_bound_quadrature_memory_stays_below_the_grids():
    # The values and gradients of K = 100 elements on the 16,384 nodes of the
    # n = 128 rule would take 39 MB as [K, P] arrays.  The quadrature holds
    # their radial tables and node geometry (2.0 MB) and the report
    # assembles one block at a time, so building both peaks far lower
    # (11.5 MB traced).
    net = NetworkConfig(layers=(LayerSpec(1, 2, 100, 5),), n_rotations=8, n_scales=9, scale_range=1.0)
    basis, spec = layer_basis(net, 0), net.layers[0]
    coeffs = CoeffTensor(np.random.default_rng(0).standard_normal((1, 2, 100)), np.zeros(2))
    tracemalloc.start()
    try:
        (report,) = filter_bound_report([coeffs], [basis], [spec], disk_quadrature(basis))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.B > 0.0 and peak < 40e6


def test_filter_bounds_reject_a_mismatched_quadrature():
    net = bounds_net("fb")
    coeffs, basis, spec = init_coeffs(net, seed=0)[1], layer_basis(net, 1), net.layers[1]
    for other in (layer_basis(bounds_net("sl"), 1), build_basis("fb", spec.K + 1)):
        with pytest.raises(ValueError, match="other spatial elements"):
            filter_bound_report([coeffs], [basis], [spec], disk_quadrature(other, 42))


@pytest.mark.parametrize("bad", [{"n_theta": 0}, {"n_theta": -1}, {"n": 1}, {"n": 0}, {"n": 41}])
def test_filter_bounds_reject_an_empty_quadrature(bad):
    # an empty or odd rule fails in disk_quadrature, an empty theta grid in the report
    net = bounds_net("fb")
    coeffs, basis, spec = init_coeffs(net, seed=0)[1], layer_basis(net, 1), net.layers[1]
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be"):
        quad = disk_quadrature(basis, bad.get("n", 42))
        filter_bound_report([coeffs], [basis], [spec], quad, n_theta=bad.get("n_theta", 64))


def test_isometry_deviation_zero_for_exact_translation():
    # lifting features of a strictly interior image stay interior (the
    # stencil spreads support by 2 pixels against an 8-pixel margin), so an
    # integer shift relocates every nonzero value without loss
    net = small_net(layers=2, channels=2, L_alpha=3, max_angular=2)
    coeffs = init_coeffs(net, seed=9)
    feats = forward(net, coeffs, interior_image(height=25, width=25, margin=8, seed=9), return_all=True)
    assert feature_norm(feats[0]) > 0.0
    assert isometry_deviation(feats[0], GroupElement(0.0, 0.0, (2.0, 1.0))) < 1e-10


def test_isometry_deviation_small_for_lattice_scale_step():
    rng = np.random.default_rng(10)
    grid = np.linspace(-1.0, 1.0, 9)
    vals = smooth_feature_values(1, 4, grid, 41, 41, rng)
    feat = FeatureMap(vals, math.pi / 2.0, grid)
    dev = isometry_deviation(feat, GroupElement(-math.pi / 2.0, -0.25, (0.0, 0.0)))
    assert dev < 2e-2


def test_isometry_deviation_rejects_zero_feature():
    feat = FeatureMap(np.zeros((1, 4, 3, 5, 5)), math.pi / 2.0, np.linspace(-1, 1, 3))
    with pytest.raises(ValueError):
        isometry_deviation(feat, IDENTITY)
