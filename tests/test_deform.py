"""Truncated-Fourier deformation fields and image resampling."""

import math

import numpy as np
import pytest

import reference
from rstcnn import (
    DeformationField,
    GroupElement,
    ImageTensor,
    act_on_image,
    apply_deformation,
    make_tau_targeting_grad,
    tau_norms,
)

from conftest import interior_image
from rstcnn.group import pixel_axes


def random_field(seed=0, height=17, width=19, sup_grad=0.3):
    return make_tau_targeting_grad(seed, sup_grad, height, width)


def test_on_grid_matches_loop_oracle():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((2, 4, 4, 4))
    f = DeformationField(coeffs, 15, 21)
    xs = rng.uniform(-10.0, 10.0, size=6)
    ys = rng.uniform(-7.0, 7.0, size=5)
    vals, _ = f.on_grid(xs, ys)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            for comp in (0, 1):
                want = reference.fourier_field_value(coeffs, f.box, comp, x, y)
                assert vals[comp, iy, ix] == pytest.approx(want, abs=1e-12)


def test_on_grid_shapes():
    f = random_field()
    tau, jac = f.on_grid(np.linspace(-2, 2, 5), np.linspace(-1, 1, 3))
    assert tau.shape == (2, 3, 5) and jac.shape == (2, 2, 3, 5)
    tau, jac = f.on_grid(*pixel_axes(f.height, f.width))
    assert tau.shape == (2, f.height, f.width) and jac.shape == (2, 2, f.height, f.width)


def test_jacobian_matches_finite_differences():
    f = random_field(seed=4)  # 17 x 19, not square
    rng = np.random.default_rng(2)
    xs = rng.uniform(-8.0, 8.0, size=12)
    ys = rng.uniform(-7.0, 7.0, size=9)
    _, J = f.on_grid(xs, ys)
    h = 1e-5
    fd_x = (f.on_grid(xs + h, ys)[0] - f.on_grid(xs - h, ys)[0]) / (2 * h)
    fd_y = (f.on_grid(xs, ys + h)[0] - f.on_grid(xs, ys - h)[0]) / (2 * h)
    np.testing.assert_allclose(J[:, 0], fd_x, atol=1e-7)
    np.testing.assert_allclose(J[:, 1], fd_y, atol=1e-7)


def test_targeting_hits_requested_gradient():
    for level in (0.02, 0.05, 0.1):
        f = make_tau_targeting_grad([7, 4242], level, 29, 29)
        _, sup_grad = tau_norms(f)
        assert sup_grad == pytest.approx(level, rel=1e-12)


def test_tau_norms_constant_field():
    c = np.zeros((2, 2, 2, 4))
    c[0, 0, 0, 0] = 3.0
    c[1, 0, 0, 0] = -4.0
    f = DeformationField(c, 11, 11)
    sup_tau, sup_grad = tau_norms(f)
    assert sup_tau == pytest.approx(5.0, abs=1e-12)
    assert sup_grad == pytest.approx(0.0, abs=1e-12)


def test_apply_zero_field_is_identity():
    x = interior_image(height=13, width=13, margin=4, seed=1)
    out = apply_deformation(DeformationField(np.zeros((2, 1, 1, 4)), 13, 13), x)
    np.testing.assert_array_equal(out.values, x.values)


def test_apply_constant_field_equals_translation_action():
    x = interior_image(height=17, width=17, margin=5, seed=2)
    c = np.zeros((2, 1, 1, 4))
    c[0, 0, 0, 0] = 1.3
    c[1, 0, 0, 0] = -0.7
    deformed = apply_deformation(DeformationField(c, 17, 17), x)
    translated = act_on_image(GroupElement(0.0, 0.0, (1.3, -0.7)), x)
    np.testing.assert_array_equal(deformed.values, translated.values)


def test_apply_matches_pointwise_bilinear_oracle():
    x = interior_image(height=15, width=18, margin=4, seed=5, channels=2)
    f = random_field(seed=6, height=15, width=18, sup_grad=0.25)
    out = apply_deformation(f, x)
    H, W = 15, 18
    rng = np.random.default_rng(8)
    for _ in range(10):
        i, j = rng.integers(H), rng.integers(W)
        x0, y0 = j - (W - 1) / 2.0, i - (H - 1) / 2.0
        xq = x0 - reference.fourier_field_value(f.coeffs, f.box, 0, x0, y0)
        yq = y0 - reference.fourier_field_value(f.coeffs, f.box, 1, x0, y0)
        row, col = yq + (H - 1) / 2.0, xq + (W - 1) / 2.0
        for ch in (0, 1):
            want = reference.naive_bilinear(x.values[ch], row, col)
            assert out.values[ch, i, j] == pytest.approx(want, abs=1e-10)


def test_apply_to_a_batch_deforms_each_sample():
    x = ImageTensor(np.stack([interior_image(height=12, width=12, margin=3, seed=s).values for s in (3, 4)]))
    f = random_field(seed=2, height=12, width=12)
    out = apply_deformation(f, x)
    assert out.values.shape == (2, 1, 12, 12)
    for b in range(2):
        assert np.array_equal(out.values[b], apply_deformation(f, ImageTensor(x.values[b])).values)


def test_error_paths():
    with pytest.raises(ValueError):
        DeformationField(np.zeros((2, 2, 3, 4)), 5, 5)
    with pytest.raises(ValueError):
        DeformationField(np.zeros((3, 2, 2, 4)), 5, 5)
    with pytest.raises(ValueError):
        DeformationField(np.full((2, 1, 1, 4), np.nan), 5, 5)
    with pytest.raises(ValueError):
        DeformationField(np.zeros((2, 1, 1, 4)), 0, 5)
    with pytest.raises(ValueError):
        make_tau_targeting_grad(0, -0.5, 9, 9)
    x = interior_image(height=9, width=9, margin=3)
    with pytest.raises(ValueError):
        apply_deformation(random_field(height=8, width=9), x)
    with pytest.raises(ValueError, match=r"does not match image \(9, 9\)"):
        apply_deformation(random_field(height=8, width=9), ImageTensor(np.stack([x.values] * 2)))
