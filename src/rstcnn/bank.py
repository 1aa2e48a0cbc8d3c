"""Sampling steerable basis functions into a discrete filter bank.

The bank stores every rotated and rescaled spatial basis function
2^{-2(alpha+j)} psi_k(2^{-(alpha+j)} R_{-theta} u') on an L x L stencil,
for theta on the N_r-point rotation grid and alpha on the N_s-point scale
grid over [-T, T].  Stencil tap (row i, col t) sits at spatial offset
u' = pitch * (t - (L-1)/2, i - (L-1)/2) where pitch = 2 * 2^j / (L - 1),
i.e. the unrotated, unrescaled basis support 2^j D exactly spans the
stencil.  With the default layer scale j = log2((L-1)/2) the pitch is one
pixel, so stencil offsets coincide with pixel offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import eval_spatial_stack


def _check_stencil(stencil):
    if stencil < 3 or stencil % 2 == 0:
        raise ValueError(f"stencil width must be odd and >= 3, got {stencil}")


def default_layer_scale(stencil):
    """The j that makes an L-point stencil sample its support at 1-pixel pitch."""
    _check_stencil(stencil)
    return math.log2((stencil - 1) / 2.0)


def scale_channel_grid(n_scales, scale_range):
    """Uniform log2-scale grid over [-T, T] (a single channel sits at 0)."""
    if n_scales == 1:
        return np.array([0.0])
    return np.linspace(-scale_range, scale_range, n_scales)


@dataclass(frozen=True)
class FilterBank:
    """Sampled basis stack: values[k, r, s, row, col], immutable after build."""

    spatial_kind: str
    values: np.ndarray
    scale_grid: np.ndarray
    layer_scale: float

    @property
    def K(self):
        return self.values.shape[0]

    @property
    def n_rotations(self):
        return self.values.shape[1]

    @property
    def n_scales(self):
        return self.values.shape[2]

    @property
    def stencil(self):
        return self.values.shape[3]

    @property
    def rotation_step(self):
        return 2.0 * math.pi / self.n_rotations

    @property
    def pitch(self):
        """Stencil tap spacing: the support 2^j D spans the L taps exactly."""
        return 2.0 * (2.0**self.layer_scale) / (self.stencil - 1)


def sample_filter_bank(basis, n_rotations, n_scales, scale_range, stencil, layer_scale):
    """Sample a BasisSet's spatial elements onto the [K, N_r, N_s, L, L] bank.

    layer_scale is j (a LayerSpec's layer_scale).  Sample points that fall
    on or outside the (rescaled) domain boundary are exactly zero.
    """
    _check_stencil(stencil)
    if n_rotations < 1 or n_scales < 1:
        raise ValueError("n_rotations and n_scales must be >= 1")
    j = float(layer_scale)
    for name, value in (("layer_scale", j), ("scale_range", float(scale_range))):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    grid = scale_channel_grid(n_scales, scale_range)
    bank = FilterBank(
        basis.spatial_kind, np.empty((basis.n_spatial, n_rotations, n_scales, stencil, stencil)), grid, j
    )

    offs = (np.arange(stencil) - (stencil - 1) / 2.0) * bank.pitch
    X, Y = np.meshgrid(offs, offs, indexing="xy")  # X[i,t]=offs[t], Y[i,t]=offs[i]
    # args[r, s, i, t, :] = 2^{-(alpha_s + j)} R_{-theta_r} u'; scalar cos, sin and powers keep a per-(r, s) loop's bits
    angles = [r * bank.rotation_step for r in range(n_rotations)]
    c, s = (np.array([trig(th) for th in angles]).reshape(-1, 1, 1, 1) for trig in (math.cos, math.sin))
    f = np.array([2.0 ** (-a - j) for a in grid]).reshape(-1, 1, 1)
    args = np.stack([f * (c * X + s * Y), f * (-s * X + c * Y)], axis=-1)

    amp = (2.0 ** (-2.0 * grid - 2.0 * j))[None, :, None, None]
    np.multiply(amp, eval_spatial_stack(basis.spatial, args), out=bank.values)
    return bank
