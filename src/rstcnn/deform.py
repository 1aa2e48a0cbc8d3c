"""Smooth deformation fields tau and the resampling x(u - tau(u)).

A field is a truncated two-dimensional Fourier sum per component,

    tau_i(x, y) = sum_{0 <= px, py <= P} [ c0 cos(ax)cos(by) + c1 cos(ax)sin(by)
                                          + c2 sin(ax)cos(by) + c3 sin(ax)sin(by) ],

with ax = px*pi*x/box, by = py*pi*y/box and box the half-width of the pixel
coordinate range.  The representation is smooth and its analytic Jacobian is
linear in the coefficients, which makes exact gradient targeting possible.
Fields are evaluated on tensor grids, where each term factors into per-axis
trig tables.  Constant fields reduce to the pure translation warp
bit-for-bit (same sampling path as the group action).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import ImageTensor, bilinear_sample, pixel_axes


@dataclass(frozen=True)
class DeformationField:
    """Truncated-Fourier vector field over the coordinate box of an H x W pixel grid.

    coeffs[i, px, py, t]: component i in {x, y}, frequency pair (px, py),
    trig product t in (cos*cos, cos*sin, sin*cos, sin*sin).
    """

    coeffs: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 4 or c.shape[0] != 2 or c.shape[1] != c.shape[2] or c.shape[3] != 4:
            raise ValueError(f"coefficients must be [2, P+1, P+1, 4], got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if self.height < 1 or self.width < 1:
            raise ValueError("grid must be at least 1x1")
        object.__setattr__(self, "coeffs", c)

    @property
    def max_freq(self):
        return self.coeffs.shape[1] - 1

    @property
    def box(self):
        return max((self.width - 1) / 2.0, (self.height - 1) / 2.0, 1.0)

    def on_grid(self, xs, ys):
        """tau [2, ny, nx] and d tau_i / d u_j [2, 2, ny, nx] on the grid ys x xs.

        xs, ys are 1-D coordinate axes.  Jacobian index j = 0 is the
        x-derivative, j = 1 the y-derivative.  Trig product t = 2a + b pairs
        the x factor a and the y factor b, each cos (0) or sin (1).
        """
        P = self.max_freq
        w = (np.pi / self.box) * np.arange(P + 1)[:, None]

        def tables(u):
            # (cos, sin) of the axis angles [2, P+1, n] and their derivatives
            c, s = np.cos(w * u), np.sin(w * u)
            return np.stack([c, s]), np.stack([-w * s, w * c])

        fx, dfx = tables(np.asarray(xs, dtype=np.float64))
        fy, dfy = tables(np.asarray(ys, dtype=np.float64))
        c = self.coeffs.reshape(2, P + 1, P + 1, 2, 2)
        tau = np.einsum("ipqab,apx,bqy->iyx", c, fx, fy, optimize=True)
        jac = np.einsum(
            "ipqab,japx,jbqy->ijyx", c, np.stack([dfx, fx]), np.stack([fy, dfy]), optimize=True
        )
        return tau, jac


def tau_norms(field):
    """(sup |tau|_2, sup ||grad tau||_spectral) on an oversampled grid.

    The supremum is taken over an oversample-times denser grid spanning the
    same coordinate box; the Jacobian is evaluated analytically and its
    spectral norm (largest singular value of the 2x2 matrix) in closed form.
    """
    H, W = field.height, field.width
    oversample = 4
    t, J = field.on_grid(*pixel_axes(H, W, oversample * H, oversample * W))
    sup_tau = float(np.sqrt(t[0] ** 2 + t[1] ** 2).max())
    a = J[0, 0] ** 2 + J[1, 0] ** 2
    b = J[0, 1] ** 2 + J[1, 1] ** 2
    c = J[0, 0] * J[0, 1] + J[1, 0] * J[1, 1]
    sigma_sq = 0.5 * (a + b) + np.sqrt(0.25 * (a - b) ** 2 + c**2)
    sup_grad = float(np.sqrt(max(sigma_sq.max(), 0.0)))
    return sup_tau, sup_grad


def make_tau_targeting_grad(seed, sup_grad, max_freq, height, width):
    """Random field rescaled so tau_norms reports exactly the requested sup-grad.

    Coefficients are uniform [-1, 1] draws from the seed (sin terms of the
    zero frequency are dropped since sin(0) = 0).  The Jacobian is linear in
    the coefficients, so one measurement of the draw fixes the scale factor
    exactly.  Deterministic in seed.
    """
    if sup_grad < 0:
        raise ValueError(f"sup_grad must be >= 0, got {sup_grad}")
    if max_freq < 1:
        raise ValueError("targeting a gradient needs at least one nonzero frequency")
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, max_freq + 1, max_freq + 1, 4))
    c[:, 0, :, 2:] = 0.0  # sin(0 * x) terms
    c[:, :, 0, 1] = 0.0  # sin(0 * y) terms
    _, g0 = tau_norms(DeformationField(c, height, width))
    if g0 == 0.0:
        raise ValueError("seed produced a gradient-free field; cannot rescale")
    return DeformationField(c * (sup_grad / g0), height, width)


def apply_deformation(field, image):
    """Resample an image (or a batch [N, M, H, W]) at u - tau(u) (bilinear, zero outside the domain)."""
    vals = image.values
    if (field.height, field.width) != vals.shape[-2:]:
        raise ValueError(
            f"field grid {(field.height, field.width)} does not match image {vals.shape[-2:]}"
        )
    xs, ys = pixel_axes(field.height, field.width)
    tau, _ = field.on_grid(xs, ys)
    return ImageTensor(bilinear_sample(vals, xs - tau[0], ys[:, None] - tau[1]))
