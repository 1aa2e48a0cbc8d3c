"""Smooth deformation fields tau and the resampling x(u - tau(u)).

A field is a truncated two-dimensional Fourier sum per component,

    tau_i(x, y) = sum_{0 <= px, py <= P} [ c0 cos(ax)cos(by) + c1 cos(ax)sin(by)
                                          + c2 sin(ax)cos(by) + c3 sin(ax)sin(by) ],

with ax = px*pi*x/box, by = py*pi*y/box and box the half-width of the pixel
coordinate range.  The representation is smooth, has an analytic Jacobian,
and its sup-norm is bounded by the absolute coefficient sum, which makes
exact amplitude targeting possible.  Constant fields reduce to the pure
translation warp bit-for-bit (same sampling path as the group action).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .group import ImageTensor, bilinear_sample, pixel_coords


@dataclass(frozen=True)
class DeformationField:
    """Truncated-Fourier vector field sampled on an H x W pixel grid.

    coeffs[i, px, py, t]: component i in {x, y}, frequency pair (px, py),
    trig product t in (cos*cos, cos*sin, sin*cos, sin*sin).  samples[2, H, W]
    caches the field on the pixel grid.
    """

    coeffs: np.ndarray
    height: int
    width: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 4 or c.shape[0] != 2 or c.shape[1] != c.shape[2] or c.shape[3] != 4:
            raise ValueError(f"coefficients must be [2, P+1, P+1, 4], got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if self.height < 1 or self.width < 1:
            raise ValueError("grid must be at least 1x1")
        object.__setattr__(self, "coeffs", c)
        X, Y = pixel_coords(self.height, self.width)
        object.__setattr__(self, "samples", self.evaluate(X, Y))

    @property
    def max_freq(self):
        return self.coeffs.shape[1] - 1

    @property
    def box(self):
        return max((self.width - 1) / 2.0, (self.height - 1) / 2.0, 1.0)

    def _trig_tables(self, x, y):
        p = np.arange(self.max_freq + 1)
        ax = (np.pi / self.box) * p[:, None] * np.ravel(x)[None, :]
        by = (np.pi / self.box) * p[:, None] * np.ravel(y)[None, :]
        return np.cos(ax), np.sin(ax), np.cos(by), np.sin(by)

    def _trig_sum(self, x_tables, y_tables):
        """sum_{p,q,t} c[:, p, q, t] fx_t[p] fy_t[q] over points: [2, n].

        x_tables = (cos, sin) of ax (or their x-derivatives), y_tables the same
        in by; the four products run in coefficient order t.
        """
        return sum(
            np.einsum("ipq,pn,qn->in", self.coeffs[:, :, :, 2 * i + k], fx, fy)
            for i, fx in enumerate(x_tables)
            for k, fy in enumerate(y_tables)
        )

    def evaluate(self, x, y):
        """Field values at arbitrary points: [2] + shape(x)."""
        x = np.asarray(x, dtype=np.float64)
        cx, sx, cy, sy = self._trig_tables(x, y)
        return self._trig_sum((cx, sx), (cy, sy)).reshape((2,) + x.shape)

    def jacobian(self, x, y):
        """Analytic Jacobian d tau_i / d u_j at arbitrary points: [2, 2] + shape(x).

        Index order: [i, j] with j = 0 the x-derivative, j = 1 the y-derivative.
        """
        x = np.asarray(x, dtype=np.float64)
        cx, sx, cy, sy = self._trig_tables(x, y)
        w = (np.pi / self.box) * np.arange(self.max_freq + 1)[:, None]
        dx = self._trig_sum((-w * sx, w * cx), (cy, sy))
        dy = self._trig_sum((cx, sx), (-w * sy, w * cy))
        return np.stack([dx, dy], axis=1).reshape((2, 2) + x.shape)

    def sup_bound(self):
        """Analytic upper bound on sup_u |tau(u)|_2 via absolute coefficient sums."""
        per_comp = np.abs(self.coeffs).sum(axis=(1, 2, 3))
        return float(np.hypot(per_comp[0], per_comp[1]))


def make_tau(seed, amplitude, max_freq, height, width):
    """Random field whose analytic sup-|tau| bound equals the given amplitude.

    Coefficients are uniform [-1, 1] draws from the seed (sin rows of the
    zero frequency are dropped since sin(0) = 0), then rescaled as a whole.
    Deterministic in seed; amplitude 0 yields the zero field.
    """
    if amplitude < 0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=(2, max_freq + 1, max_freq + 1, 4))
    c[:, 0, :, 2:] = 0.0  # sin(0 * x) terms
    c[:, :, 0, 1] = 0.0  # sin(0 * y) terms
    c[:, 0, :, 3] = 0.0
    field = DeformationField(c, height, width)
    bound = field.sup_bound()
    if bound == 0.0:
        return field
    return DeformationField(c * (amplitude / bound), height, width)


def tau_norms(field, oversample=4):
    """(sup |tau|_2, sup ||grad tau||_spectral) on an oversampled grid.

    The supremum is taken over an oversample-times denser grid spanning the
    same coordinate box; the Jacobian is evaluated analytically and its
    spectral norm (largest singular value of the 2x2 matrix) in closed form.
    """
    H, W = field.height, field.width
    xs = np.linspace(-(W - 1) / 2.0, (W - 1) / 2.0, max(oversample * W, 2))
    ys = np.linspace(-(H - 1) / 2.0, (H - 1) / 2.0, max(oversample * H, 2))
    X, Y = np.meshgrid(xs, ys)
    t = field.evaluate(X, Y)
    sup_tau = float(np.sqrt(t[0] ** 2 + t[1] ** 2).max())
    J = field.jacobian(X, Y)
    a = J[0, 0] ** 2 + J[1, 0] ** 2
    b = J[0, 1] ** 2 + J[1, 1] ** 2
    c = J[0, 0] * J[0, 1] + J[1, 0] * J[1, 1]
    sigma_sq = 0.5 * (a + b) + np.sqrt(0.25 * (a - b) ** 2 + c**2)
    sup_grad = float(np.sqrt(max(sigma_sq.max(), 0.0)))
    return sup_tau, sup_grad


def make_tau_targeting_grad(seed, sup_grad, max_freq, height, width):
    """Random field rescaled so tau_norms reports exactly the requested sup-grad.

    Uses the Jacobian's linearity in the coefficients: one measurement of a
    unit-amplitude draw fixes the scale factor exactly.
    """
    if sup_grad < 0:
        raise ValueError(f"sup_grad must be >= 0, got {sup_grad}")
    if max_freq < 1:
        raise ValueError("targeting a gradient needs at least one nonzero frequency")
    base = make_tau(seed, 1.0, max_freq, height, width)
    _, g0 = tau_norms(base)
    if g0 == 0.0:
        raise ValueError("seed produced a gradient-free field; cannot rescale")
    return DeformationField(base.coeffs * (sup_grad / g0), height, width)


def apply_deformation(field, image):
    """Resample an image at u - tau(u) (bilinear, zero outside the domain)."""
    vals = image.values
    H, W = vals.shape[1], vals.shape[2]
    if (field.height, field.width) != (H, W):
        raise ValueError(
            f"field grid {(field.height, field.width)} does not match image {(H, W)}"
        )
    X, Y = pixel_coords(H, W)
    xs = X - field.samples[0]
    ys = Y - field.samples[1]
    return ImageTensor(bilinear_sample(vals, xs, ys))
