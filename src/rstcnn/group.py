"""The roto-scale-translation group and its actions on images and features.

Group elements are (eta, beta, v): rotation angle, log2 scale, translation.
Composition follows (eta, beta, v) . (theta, alpha, u) =
(theta + eta, alpha + beta, v + R_eta 2^beta u).

An image is a stack of planar channels on an H x W pixel grid; pixel (i, j)
sits at spatial coordinates (x, y) = (j - (W-1)/2, i - (H-1)/2).  A feature
map adds a rotation axis (N_r uniform angles, cyclic) and a scale axis (N_s
uniform log2-scale channels, truncated: reads beyond the top channel are
zero).  Acting on either resamples space bilinearly; acting on a feature map
also shifts the rotation axis cyclically and the scale axis with zero fill,
which requires eta and beta to lie on the channel lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LATTICE_TOL = 1e-9


class OffLatticeError(ValueError):
    """Rotation/scale component of g does not lie on the feature channel lattice."""


@dataclass(frozen=True)
class GroupElement:
    """(eta, beta, v): rotate by eta, scale by 2^beta, translate by v."""

    eta: float = 0.0
    beta: float = 0.0
    v: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (
            math.isfinite(self.eta)
            and math.isfinite(self.beta)
            and all(math.isfinite(c) for c in self.v)
        ):
            raise ValueError("group element components must be finite")
        object.__setattr__(self, "v", (float(self.v[0]), float(self.v[1])))


IDENTITY = GroupElement(0.0, 0.0, (0.0, 0.0))


def rotation_matrix(eta):
    c, s = math.cos(eta), math.sin(eta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def compose(g1, g2):
    """Group product g1 . g2 (apply g2 first, then g1)."""
    R = rotation_matrix(g1.eta)
    u = np.asarray(g2.v, dtype=np.float64)
    v = np.asarray(g1.v, dtype=np.float64) + (2.0**g1.beta) * (R @ u)
    return GroupElement(g1.eta + g2.eta, g1.beta + g2.beta, (v[0], v[1]))


def inverse(g):
    """Inverse element: compose(g, inverse(g)) is the identity."""
    R = rotation_matrix(-g.eta)
    v = np.asarray(g.v, dtype=np.float64)
    w = -(2.0**-g.beta) * (R @ v)
    return GroupElement(-g.eta, -g.beta, (w[0], w[1]))


@dataclass
class ImageTensor:
    """Planar image stack, values[channel, row, col], finite float64.

    A batch of images adds a leading sample axis: values[n, channel, row, col].
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (3, 4):
            raise ValueError(
                f"image values must be [channels, H, W] or [N, channels, H, W], got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image values must be finite")

    @property
    def channels(self):
        return self.values.shape[-3]

    @property
    def shape(self):
        return self.values.shape


@dataclass
class FeatureMap:
    """Group feature map, values[channel, rotation, scale, row, col].

    rotation_step is the angular spacing 2*pi/N_r of the cyclic rotation
    axis; scale_grid holds the log2-scale of each scale channel (uniform,
    ascending).  A batch adds a leading sample axis: values[n, channel,
    rotation, scale, row, col]; the group sizes are read from the trailing axes.
    """

    values: np.ndarray
    rotation_step: float
    scale_grid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.scale_grid = np.asarray(self.scale_grid, dtype=np.float64)
        if self.values.ndim not in (5, 6):
            raise ValueError(
                f"feature values must be [(N,) channels, N_r, N_s, H, W], got {self.values.shape}"
            )
        n_r, n_s = self.values.shape[-4:-2]
        if not math.isclose(self.rotation_step * n_r, 2.0 * math.pi, rel_tol=1e-12):
            raise ValueError("rotation_step must equal 2*pi / N_r")
        if self.scale_grid.shape != (n_s,):
            raise ValueError("scale_grid length must match the scale axis")
        if n_s > 1:
            steps = np.diff(self.scale_grid)
            if not np.allclose(steps, steps[0], atol=1e-12):
                raise ValueError("scale_grid must be uniform")

    @property
    def scale_step(self):
        if len(self.scale_grid) < 2:
            return 0.0
        return float(self.scale_grid[1] - self.scale_grid[0])

    @property
    def shape(self):
        return self.values.shape


def pixel_coords(H, W):
    """Spatial coordinates of each pixel center: two [H, W] arrays (x, y)."""
    xs = np.arange(W, dtype=np.float64) - (W - 1) / 2.0
    ys = np.arange(H, dtype=np.float64) - (H - 1) / 2.0
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    return X, Y


def bilinear_sample(values, x, y):
    """Sample values[..., H, W] at spatial points (x, y); outside reads 0.

    x, y are arrays of one shape S; the result has shape values.shape[:-2] + S.
    Sampling at exact pixel centers reproduces stored values exactly.
    """
    H, W = values.shape[-2], values.shape[-1]
    # beyond one pixel outside the grid every tap reads 0, so clipping changes
    # no value and keeps floor() within int64
    col = np.clip(np.asarray(x, dtype=np.float64) + (W - 1) / 2.0, -1.0, W)
    row = np.clip(np.asarray(y, dtype=np.float64) + (H - 1) / 2.0, -1.0, H)
    r0 = np.floor(row).astype(np.int64)
    c0 = np.floor(col).astype(np.int64)
    fr = row - r0
    fc = col - c0
    out = np.zeros(values.shape[:-2] + col.shape, dtype=np.float64)
    for dr, dc, w in (
        (0, 0, (1.0 - fr) * (1.0 - fc)),
        (0, 1, (1.0 - fr) * fc),
        (1, 0, fr * (1.0 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        ok = (rr >= 0) & (rr < H) & (cc >= 0) & (cc < W)
        rs = np.clip(rr, 0, H - 1)
        cs = np.clip(cc, 0, W - 1)
        out += np.where(ok, w, 0.0) * values[..., rs, cs]
    return out


def _warp_grid(g, H, W):
    # source points R_{-eta} 2^{-beta} (u - v) for every output pixel u
    X, Y = pixel_coords(H, W)
    vx, vy = g.v
    R = rotation_matrix(-g.eta)
    s = 2.0**-g.beta
    dx = X - vx
    dy = Y - vy
    sx = s * (R[0, 0] * dx + R[0, 1] * dy)
    sy = s * (R[1, 0] * dx + R[1, 1] * dy)
    return sx, sy


def act_on_image(g, image):
    """Transformed image: output(u) = input(R_{-eta} 2^{-beta} (u - v))."""
    sx, sy = _warp_grid(g, image.values.shape[-2], image.values.shape[-1])
    return ImageTensor(bilinear_sample(image.values, sx, sy))


def off_canvas(g, H, W):
    """True when D_g reads no pixel of an H x W input, so it maps every image to zero."""
    return not act_on_image(g, ImageTensor(np.ones((1, H, W)))).values.any()


def _lattice_steps(value, step, name):
    if step == 0.0:
        if abs(value) > LATTICE_TOL:
            raise OffLatticeError(f"{name}={value} but the axis has a single channel")
        return 0
    k = value / step
    kr = round(k)
    if abs(k - kr) > LATTICE_TOL:
        raise OffLatticeError(f"{name}={value} is not a multiple of the channel step {step}")
    return int(kr)


def act_on_feature(g, feat):
    """Transformed feature map: shift rotation/scale channels, warp space.

    output(u, theta, alpha) = input(R_{-eta} 2^{-beta} (u - v), theta - eta,
    alpha - beta).  eta must be a multiple of rotation_step and beta a
    multiple of the scale-channel step (OffLatticeError otherwise); scale
    channels shifted in from beyond the truncated axis are zero.
    """
    d_rot = _lattice_steps(g.eta, feat.rotation_step, "eta")
    d_sc = _lattice_steps(g.beta, feat.scale_step, "beta")
    n_r, n_s = feat.values.shape[-4:-2]
    # output channel (r, s) reads input channel (r - d_rot mod N_r, s - d_sc)
    rot = (np.arange(n_r) - d_rot) % n_r
    sc = np.arange(n_s) - d_sc
    vals = feat.values[..., rot[:, None], np.clip(sc, 0, n_s - 1), :, :]
    vals[..., (sc < 0) | (sc >= n_s), :, :] = 0.0
    warped = bilinear_sample(vals, *_warp_grid(g, *vals.shape[-2:]))
    return FeatureMap(warped, feat.rotation_step, feat.scale_grid.copy())
