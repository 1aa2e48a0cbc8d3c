"""Roto-scale-translation equivariant network: configs, filters, forward pass.

Layer 1 lifts a planar image to a feature map over (rotation, scale) by
correlating with every rotated/rescaled filter; layers l > 1 convolve
jointly over space, rotation (cyclic, on a coarser L_theta grid carrying
the normalized S^1 weight 1/L_theta) and scale (truncated axis, L_alpha
taps on [-1, 1] carrying trapezoidal weights; reads beyond the stored
scale channels are zero).  Filters are synthesized from coefficient
tensors against a fixed sampled basis bank; coefficients can be rescaled
so the layer's filter-amplitude bound A_l is at most one, which makes
every layer non-expansive in the feature norm.

All convolutions are cross-correlations with "same" zero padding and unit
pixel pitch, evaluated on Fourier spectra.  Each input slice is zero-padded
by (L-1)/2 on every side to (H+L-1, W+L-1), so a circular correlation of
that size never wraps data into the H x W output and equals the padded
linear one; its rfft2 is multiplied by the conjugate spectra of the filters
and one irfft2 per output slice, cropped to H x W, gives the spatial sums.
The rotation sum is a cyclic roll of the spectrum stack (tap l_theta reads
rotation r + l_theta * N_r / L_theta mod N_r); the scale sum is an upward
shift of it (tap l_alpha reads scale s + l_alpha, and reads above the top
channel contribute nothing, which is the zero fill).  Every tap's spectrum
product carries the same quadrature weight as in the defining sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bank import FilterBank, default_layer_scale, sample_filter_bank, scale_channel_grid
from .basis import BasisSet, angular_matrix, build_basis, scale_matrix
from .group import FeatureMap, ImageTensor
from .norms import fb_norm, fb_norm_joint


class ConfigError(ValueError):
    """Inconsistent network or experiment configuration."""


@dataclass(frozen=True)
class LayerSpec:
    """Sizes of one layer's filters.

    For the lifting layer (position 0 in a network) the inter-rotation /
    inter-scale fields are ignored: its filters have no (theta', alpha')
    axes.  layer_scale None means the pitch-1 default log2((L-1)/2).
    """

    in_channels: int
    out_channels: int
    K: int
    stencil: int
    L_theta: int = 1
    L_alpha: int = 1
    max_angular: int = 4
    n_scale: int = 1
    layer_scale: float | None = None

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.stencil < 1 or self.stencil % 2 == 0:
            raise ConfigError(f"stencil width must be odd, got {self.stencil}")
        if self.L_theta < 1 or self.L_alpha < 1:
            raise ConfigError("L_theta and L_alpha must be >= 1")
        if self.max_angular < 0 or self.n_scale < 1:
            raise ConfigError("max_angular must be >= 0 and n_scale >= 1")

    @property
    def resolved_scale(self):
        if self.layer_scale is None:
            return default_layer_scale(self.stencil)
        return float(self.layer_scale)

    @property
    def pitch(self):
        return 2.0 * (2.0**self.resolved_scale) / (self.stencil - 1)

    @property
    def n_angular(self):
        return 2 * self.max_angular + 1


@dataclass(frozen=True)
class NetworkConfig:
    """Network-wide sizes: layer stack plus the shared group grids."""

    layers: tuple
    n_rotations: int
    n_scales: int
    scale_range: float = 1.0
    spatial_kind: str = "fb"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        if self.n_rotations < 1 or self.n_scales < 1:
            raise ConfigError("n_rotations and n_scales must be >= 1")
        if self.n_scales > 1 and not self.scale_range > 0:
            raise ConfigError(
                f"scale_range must be > 0 for {self.n_scales} scale channels, got {self.scale_range}"
            )
        if self.spatial_kind not in ("fb", "sl"):
            raise ConfigError(f"unknown spatial kind {self.spatial_kind!r}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_channels != nxt.in_channels:
                raise ConfigError(
                    f"channel mismatch: {prev.out_channels} out vs {nxt.in_channels} in"
                )
        for spec in self.layers[1:]:
            if self.n_rotations % spec.L_theta != 0:
                raise ConfigError(f"L_theta={spec.L_theta} does not divide N_r={self.n_rotations}")
        scales = [spec.resolved_scale for spec in self.layers]
        if any(b < a - 1e-12 for a, b in zip(scales, scales[1:])):
            raise ConfigError(f"layer scales must be nondecreasing, got {scales}")

    @property
    def rotation_step(self):
        return 2.0 * math.pi / self.n_rotations

    @property
    def scale_grid(self):
        return scale_channel_grid(self.n_scales, self.scale_range)

    @property
    def depth(self):
        return len(self.layers)


@dataclass
class CoeffTensor:
    """Filter expansion coefficients and bias of one layer.

    Lifting layers: a[M_in, M_out, K].  Joint layers:
    a[M_in, M_out, K, 2*max_angular+1, n_scale].  b[M_out].
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim not in (3, 5):
            raise ConfigError(f"coefficients must be rank 3 or 5, got {self.a.ndim}")
        if self.b.shape != (self.a.shape[1],):
            raise ConfigError("bias length must equal out_channels")

    @property
    def is_lifting(self):
        return self.a.ndim == 3


def alpha_taps(L_alpha):
    """Uniform alpha' tap grid on [-1, 1]; the single tap sits at 0."""
    if L_alpha == 1:
        return np.array([0.0])
    return np.linspace(-1.0, 1.0, L_alpha)


def alpha_weights(L_alpha):
    """Trapezoidal quadrature weights for the alpha' tap grid (1 when L_alpha=1)."""
    if L_alpha == 1:
        return np.array([1.0])
    h = 2.0 / (L_alpha - 1)
    w = np.full(L_alpha, h)
    w[0] = w[-1] = 0.5 * h
    return w


def theta_taps(L_theta):
    """Uniform theta' tap grid on S^1."""
    return 2.0 * math.pi * np.arange(L_theta) / L_theta


@functools.lru_cache(maxsize=64)
def _cached_basis(spatial_kind, K, max_angular, n_scale):
    return build_basis(spatial_kind, K, max_angular=max_angular, n_scale=n_scale)


@functools.lru_cache(maxsize=64)
def _cached_bank(spatial_kind, K, max_angular, n_scale, n_rot, n_sc, t, stencil, layer_scale):
    basis = _cached_basis(spatial_kind, K, max_angular, n_scale)
    return sample_filter_bank(basis, n_rot, n_sc, t, stencil, layer_scale)


def layer_basis(net, layer_index):
    """The BasisSet a given layer's coefficients expand against."""
    spec = net.layers[layer_index]
    return _cached_basis(net.spatial_kind, spec.K, spec.max_angular, spec.n_scale)


def layer_bank(net, layer_index):
    """The sampled FilterBank for a given layer (cached across calls)."""
    spec = net.layers[layer_index]
    return _cached_bank(
        net.spatial_kind,
        spec.K,
        spec.max_angular,
        spec.n_scale,
        net.n_rotations,
        net.n_scales,
        float(net.scale_range),
        spec.stencil,
        spec.layer_scale,
    )


def synthesize_filters(coeffs, bank, spec):
    """Expand coefficients against the bank into explicit filter tensors.

    Lifting: [M_in, M_out, N_r, N_s, L, L] = sum_k a(k) bank[k].  Joint:
    [M_in, M_out, N_r, L_theta, N_s, L_alpha, L, L] with the (theta',
    alpha') axes given by the angular/scale profiles evaluated on the tap
    grids.
    """
    a = coeffs.a
    if a.shape[2] != bank.K:
        raise ConfigError(f"coefficient K={a.shape[2]} != bank K={bank.K}")
    if coeffs.is_lifting:
        return np.einsum("abk,krsij->abrsij", a, bank.values)
    if a.shape[3] != spec.n_angular or a.shape[4] != spec.n_scale:
        raise ConfigError(
            f"coefficient mode axes {a.shape[3:]} != spec ({spec.n_angular}, {spec.n_scale})"
        )
    basis = _cached_basis(bank.spatial_kind, spec.K, spec.max_angular, spec.n_scale)
    phi = angular_matrix(basis, theta_taps(spec.L_theta))  # [n_ang, L_theta]
    xi = scale_matrix(basis, alpha_taps(spec.L_alpha))  # [n_scale, L_alpha]
    return np.einsum("abkmn,krsij,mt,nq->abrtsqij", a, bank.values, phi, xi, optimize=True)


def filter_amplitude(coeffs, basis, spec):
    """The layer's filter-amplitude bound A_l from its expansion coefficients.

    Lifting: pi * max(sup_out sum_in ||a||_FB, (M_in/M_out) sup_in sum_out
    ||a||_FB).  Joint: same shape with per-scale-mode FB norms summed over n
    and the second branch weighted by 2 M_in / M_out.
    """
    mu = basis.spatial_eigenvalues
    a = coeffs.a
    m_in, m_out = a.shape[0], a.shape[1]
    if coeffs.is_lifting:
        fb = fb_norm(a, mu)  # [M_in, M_out]
        t1 = fb.sum(axis=0).max()
        t2 = (m_in / m_out) * fb.sum(axis=1).max()
        return math.pi * float(max(t1, t2))
    fbn = fb_norm_joint(np.moveaxis(a, 4, 2), mu)  # [M_in, M_out, n_scale]
    t1 = fbn.sum(axis=2).sum(axis=0).max()
    t2 = (2.0 * m_in / m_out) * fbn.sum(axis=1).max(axis=0).sum()
    return math.pi * float(max(t1, t2))


def normalize_coeffs_A2(coeffs, basis, spec):
    """Rescale coefficients (and bias) by 1/max(A_l, 1); returns the new A_l."""
    amp = filter_amplitude(coeffs, basis, spec)
    c = max(amp, 1.0)
    out = CoeffTensor(coeffs.a / c, coeffs.b / c)
    return out, amp / c


def init_coeffs(net, seed=None):
    """Per-layer uniform [-1, 1] coefficients, A2-normalized, zero bias."""
    root = net.seed if seed is None else seed
    out = []
    for idx, spec in enumerate(net.layers):
        rng = np.random.default_rng([root, idx])
        if idx == 0:
            shape = (spec.in_channels, spec.out_channels, spec.K)
        else:
            shape = (spec.in_channels, spec.out_channels, spec.K, spec.n_angular, spec.n_scale)
        raw = CoeffTensor(rng.uniform(-1.0, 1.0, size=shape), np.zeros(spec.out_channels))
        normalized, _ = normalize_coeffs_A2(raw, layer_basis(net, idx), spec)
        out.append(normalized)
    return out


def _group_correlate(vals, filters, d_step, w_alpha, bias):
    """relu(bias + tap-weighted spatial correlations), evaluated on rfft2 spectra.

    vals [M_in, R, S, H, W] (R, S the input's group sizes, or 1 to broadcast
    one image over every output channel); filters [M_in, M_out, N_r, L_theta,
    N_s, L_alpha, L, L].  Tap t reads rotation (r + t * d_step) mod R, tap q
    reads scale s + q (nothing above the top channel) and carries weight
    w_alpha[q] / L_theta.  Returns [M_out, N_r, N_s, H, W].
    """
    m_in, m_out, n_r, l_th, n_s, l_al, L, _ = filters.shape
    H, W = vals.shape[-2:]
    p = (L - 1) // 2
    P, Q = H + 2 * p, W + 2 * p
    xf = np.fft.rfft2(np.pad(vals, [(0, 0)] * 3 + [(p, p), (p, p)]))
    # Conjugated DFT rows restricted to the L-tap support: ey @ f @ ex is the
    # conjugate rfft2 of f zero-padded to (P, Q), so products with xf correlate.
    taps = np.arange(L)
    ey = np.exp(2j * math.pi * (np.outer(np.arange(P), taps) % P) / P)
    ex = np.exp(2j * math.pi * (np.outer(taps, np.arange(Q // 2 + 1)) % Q) / Q)
    acc = np.zeros((m_out, n_r, n_s) + xf.shape[-2:], dtype=complex)
    for t in range(l_th):
        rolled = np.roll(xf, -t * d_step, axis=1)
        for q in range(min(l_al, n_s)):
            n_val = n_s - q
            # Spectra of one tap slice at a time: all slices of a fig3 K=10,
            # L_alpha=3 layer at 56x56 together would take about 117 MB.
            spec = ey @ (filters[:, :, :, t, :n_val, q] @ (w_alpha[q] / l_th * ex))
            spec *= rolled[:, None, :, q : q + n_val]
            for i in range(m_in):
                acc[:, :, :n_val] += spec[i]
    out = np.fft.irfft2(acc, s=(P, Q))[..., :H, :W]
    out += bias[:, None, None, None, None]
    np.maximum(out, 0.0, out=out)
    return np.ascontiguousarray(out)


def lifting_conv(x, filters, bias, scale_grid):
    """Lift an image to a feature map: one 2-d correlation per (rotation, scale).

    x^{(1)}(u, theta_r, alpha_s, out) = relu(sum_in sum_{u'} x(u+u', in) *
    filters[in, out, r, s, u'] + bias[out]), "same" zero padding.
    """
    m_in, _, n_r = filters.shape[:3]
    vals = x.values
    if vals.shape[0] != m_in:
        raise ConfigError(f"input channels {vals.shape[0]} != filter in_channels {m_in}")
    out = _group_correlate(
        vals[:, None, None], filters[:, :, :, None, :, None], 0, alpha_weights(1), bias
    )
    return FeatureMap(out, 2.0 * math.pi / n_r, np.asarray(scale_grid, dtype=np.float64))


def joint_conv(x, filters, bias, spec):
    """One joint convolution layer over (space, rotation, scale).

    For each tap (l_theta, l_alpha): read the input rotated forward by
    l_theta * N_r / L_theta channels (cyclic) and up l_alpha scale channels
    (zero beyond the top), correlate spatially with the filter slice
    [:, :, r, l_theta, s, l_alpha, :, :], and accumulate with quadrature
    weight (1/L_theta) * trapezoid(l_alpha); then bias and ReLU.
    """
    m_in, _, n_r_f, l_th, n_s_f, l_al = filters.shape[:6]
    vals = x.values
    m_x, n_r, n_s = vals.shape[:3]
    if m_x != m_in or n_r_f != n_r or n_s_f != n_s:
        raise ConfigError(
            f"filter group shape {(m_in, n_r_f, n_s_f)} does not match input {(m_x, n_r, n_s)}"
        )
    if l_th != spec.L_theta or l_al != spec.L_alpha:
        raise ConfigError("filter tap axes do not match the layer spec")
    if n_r % l_th != 0:
        raise ConfigError(f"L_theta={l_th} does not divide N_r={n_r}")
    out = _group_correlate(vals, filters, n_r // l_th, alpha_weights(l_al), bias)
    return FeatureMap(out, x.rotation_step, x.scale_grid.copy())


def group_pool(x):
    """Max over the whole group (space, rotation, scale) per channel."""
    return x.values.max(axis=(1, 2, 3, 4))


def forward(net, coeffs, x, return_all=False):
    """Run the full network; returns the last FeatureMap (or all of them)."""
    if len(coeffs) != net.depth:
        raise ConfigError(f"expected {net.depth} coefficient tensors, got {len(coeffs)}")
    feats = []
    cur = x
    for idx, spec in enumerate(net.layers):
        bankl = layer_bank(net, idx)
        filt = synthesize_filters(coeffs[idx], bankl, spec)
        if idx == 0:
            cur = lifting_conv(cur, filt, coeffs[idx].b, net.scale_grid)
        else:
            cur = joint_conv(cur, filt, coeffs[idx].b, spec)
        feats.append(cur)
    return feats if return_all else feats[-1]
