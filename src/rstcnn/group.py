"""The roto-scale-translation group and its actions on images and features.

Group elements are (eta, beta, v): rotation angle, log2 scale, translation.
Composition follows (eta, beta, v) . (theta, alpha, u) =
(theta + eta, alpha + beta, v + R_eta 2^beta u).

An image is a stack of planar channels on an H x W pixel grid; pixel (i, j)
sits at spatial coordinates (x, y) = (j - (W-1)/2, i - (H-1)/2).  A feature
map adds a rotation axis (N_r uniform angles, cyclic) and a scale axis (N_s
uniform log2-scale channels, truncated: reads beyond the top channel are
zero).  Acting on either resamples space bilinearly, reading 0 beyond the
pixel grid from a zero frame around a copy of the values; acting on a
feature map also shifts the rotation axis cyclically and the scale axis with
zero fill, which requires eta and beta to lie on the channel lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def pixel_axes(H, W, ny=None, nx=None):
    """1-D x and y axes of nx and ny (default W and H) samples spanning the pixel centers of an H x W grid.

    At the default sizes they are the pixel centers x = j - (W-1)/2 and y = i - (H-1)/2.
    """
    xs = np.linspace(-(W - 1) / 2.0, (W - 1) / 2.0, W if nx is None else nx)
    ys = np.linspace(-(H - 1) / 2.0, (H - 1) / 2.0, H if ny is None else ny)
    return xs, ys


def pixel_coords(H, W):
    """Spatial coordinates of each pixel center: two [H, W] arrays (x, y)."""
    return np.meshgrid(*pixel_axes(H, W), indexing="xy")


def _zero_frame(shape):
    """Zeros for a [..., H, W] map in bilinear_sample's frame: one row and column before the grid, two after."""
    return np.zeros(shape[:-2] + (shape[-2] + 3, shape[-1] + 3), dtype=np.float64)


def bilinear_sample(values, x, y):
    """Sample values[..., H, W] at spatial points (x, y); outside reads 0.

    x, y are arrays of one shape S; the result has shape values.shape[:-2] + S.
    Sampling at exact pixel centers reproduces stored values exactly.  Taps
    read a copy of the values in a zero frame (_zero_frame) that holds all four
    taps of a point clipped to rows [-1, H] and columns [-1, W]; the clip
    changes no value and bounds floor().  One [S] index serves every plane,
    and the four taps go through one reused buffer: each is gathered into it,
    weighted and added to the output.
    """
    framed = _zero_frame(values.shape)
    framed[..., 1:-2, 1:-2] = values
    taps = _bilinear_taps(x, y, *values.shape[-2:])
    out = np.zeros(values.shape[:-2] + taps[0][0].shape, dtype=np.float64)
    _sample_framed(framed, taps, out)
    return out


def _bilinear_taps(x, y, H, W):
    """bilinear_sample's four taps of the points (x, y) on an H x W map: (flat index into a _zero_frame plane, weight) pairs."""
    col = np.clip(np.asarray(x, dtype=np.float64) + (W - 1) / 2.0, -1.0, W)
    row = np.clip(np.asarray(y, dtype=np.float64) + (H - 1) / 2.0, -1.0, H)
    r0 = np.floor(row).astype(np.int64)
    c0 = np.floor(col).astype(np.int64)
    fr = row - r0
    fc = col - c0
    top_left = (r0 + 1) * (W + 3) + c0 + 1
    return [
        (top_left + offset, w)
        for offset, w in (
            (0, (1.0 - fr) * (1.0 - fc)),
            (1, (1.0 - fr) * fc),
            (W + 3, fr * (1.0 - fc)),
            (W + 4, fr * fc),
        )
    ]


def _sample_framed(framed, taps, out):
    """Add the weighted taps (_bilinear_taps) of the map in the interior of the _zero_frame array framed into out (zeros)."""
    flat = framed.reshape(framed.shape[:-2] + (-1,))
    # take writes straight into tap only in a mode other than "raise"; the
    # last tap index, (H + 2)(W + 3) + W + 2, is inside the framed plane, so
    # "clip" clips nothing.
    tap = np.empty_like(out)
    for index, w in taps:
        np.take(flat, index, axis=-1, out=tap, mode="clip")
        tap *= w
        out += tap


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


def _lattice_steps(value, step, name):
    if step == 0.0:
        if abs(value) > LATTICE_TOL:
            raise OffLatticeError(f"{name}={value} but the axis has a single channel")
        return 0
    k = value / step
    if not abs(k) < 2**52:
        # the quotient has no fractional bits left to test, nor an integer shift a C long holds
        raise OffLatticeError(f"{name}={value} lies 2^52 or more channel steps of {step} from 0")
    kr = round(k)
    if abs(k - kr) > LATTICE_TOL:
        raise OffLatticeError(f"{name}={value} is not a multiple of the channel step {step}")
    return int(kr)


def channel_sources(g, n_rotations, scale_grid):
    """The input channels act_on_feature(g, .) reads on the lattice of N_r = n_rotations angles and scale_grid: (rot, sc).

    Output channel (r, s) reads input rotation rot[r] = (r - d_rot) mod N_r
    and input scale sc[s] = s - d_sc, where eta = d_rot * 2 pi / N_r and
    beta = d_sc times the scale_grid step (OffLatticeError otherwise); an
    sc[s] outside [0, N_s) lies beyond the truncated axis and reads zero.
    """
    n_s = len(scale_grid)
    d_rot = _lattice_steps(g.eta, 2.0 * math.pi / n_rotations, "eta")
    d_sc = _lattice_steps(g.beta, float(scale_grid[1] - scale_grid[0]) if n_s > 1 else 0.0, "beta")
    return (np.arange(n_rotations) - d_rot) % n_rotations, np.arange(n_s) - d_sc


# act_on_feature frames, gathers and warps as many whole planes at a time as
# fit this many bytes framed (at least one plane).  A block's frame, gathered
# planes, tap buffer and output are then about 1 MB together, which stays in
# a 2 MB L2 cache.  On a 2-vCPU VM a [2, 8, 9, 56, 56] map took 3.4 ms here
# and at 512 KB, 3.8 ms at 128 KB, 4.0 ms at 1 MB and 5.4 ms at 2 MB, and its
# traced peak grows with the block: 4.3 MB here, 4.8 MB at 512 KB.
_BLOCK_BYTES = 2**18


def act_on_feature(g, feat):
    """Transformed feature map: shift rotation/scale channels, warp space.

    output(u, theta, alpha) = input(R_{-eta} 2^{-beta} (u - v), theta - eta,
    alpha - beta).  eta must be a multiple of rotation_step and beta a
    multiple of the scale-channel step (OffLatticeError otherwise); scale
    channels shifted in from beyond the truncated axis are zero.  The
    channel each output channel reads is channel_sources(g, N_r, scale_grid).
    The output planes go in blocks of whole planes: each block's sources
    are gathered straight into bilinear_sample's zero frame, zero planes off
    the scale axis, and warped into the output, which is the only map-sized
    array formed.
    """
    vals = feat.values
    n_r, n_s, H, W = vals.shape[-4:]
    rot, sc = channel_sources(g, n_r, feat.scale_grid)
    # output plane (sample, channel, r, s) reads input plane (sample, channel, rot[r], sc[s]) if sc[s] is stored
    planes = vals.reshape(-1, H, W)
    reads = (np.arange(0, len(planes), n_r * n_s)[:, None] + (rot[:, None] * n_s + sc).ravel()).ravel()
    stored = np.tile((sc >= 0) & (sc < n_s), len(planes) // n_s)
    taps = _bilinear_taps(*_warp_grid(g, H, W), H, W)
    out = np.zeros(vals.shape)
    flat_out = out.reshape(planes.shape)
    block = max(1, _BLOCK_BYTES // ((H + 3) * (W + 3) * 8))
    for lo in range(0, len(planes), block):
        hi = min(lo + block, len(planes))
        framed = _zero_frame((hi - lo, H, W))
        framed[stored[lo:hi], 1:-2, 1:-2] = planes[reads[lo:hi][stored[lo:hi]]]
        _sample_framed(framed, taps, flat_out[lo:hi])
    return replace(feat, values=out)
