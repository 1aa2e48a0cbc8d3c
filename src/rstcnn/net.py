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
pixel pitch, evaluated on Fourier spectra.  Each input slice is placed after
a band of p = (L-1)/2 zero rows and columns on a (H+p, W+p) grid.  Output
row u < H reads grid rows u + t for taps t < L, all below H + 2p; those at
or past H + p wrap to rows below p, which is the zero band, so the circular
correlation on this grid equals the zero-padded linear one (columns alike).
Its rfft2 is multiplied by the conjugate spectra of the filters and one
irfft2 per output slice, cropped to H x W, gives the spatial sums.
The rotation sum reads the spectrum stack cyclically (tap l_theta reads
rotation r + l_theta * N_r / L_theta mod N_r, one whole input row per output
row); the scale sum is an upward shift of it (tap l_alpha reads scale s +
l_alpha, and reads above the top channel contribute nothing, which is the
zero fill).  Every tap's spectrum product carries the same quadrature weight
as in the defining sum.

The convolutions and forward also take a leading batch axis: images [N, M,
H, W] give feature maps [N, M, N_r, N_s, H, W].  Each filter spectrum is
built once per call and multiplied into every sample, in the same order as
for a single sample, so each sample's output is bit-identical whatever else
is in the batch.  forward_layers yields the layers one at a time, synthesizes
each layer's filters when it runs and drops its input map once its spectra
exist.  The analysis runners reduce each layer and drop it before the next
is computed, so they hold one layer's map at a time: the equivariance and
stability runners send each image pair they compare through as one batch of
2, and the non-expansiveness report sends 3 trial pairs per batch, the first
led by the zero input (7 samples).  Larger batches would run faster but
raise the memory peak, which grows with the batch.

forward_layers(..., keep) computes only what the channels of keep, one
boolean [N_r, N_s] mask read at every layer, depend on.  A joint layer's
tap t reads rotation r + t * N_r / L_theta, so each residue class of
rotations mod N_r / L_theta reads only itself, and its live scale taps q
(the filter slices nonzero for some channel pair, which live_slices reads
from the coefficients' profile rows before any filter is synthesized) read
scale s + q, nothing above the top channel.  channel_cone walks back from
the last layer and gives each layer the whole residue classes and the scale
window that cover keep and what the next layer reads there.  Those channels are
bit-identical to the full forward's; every other channel holds NaN, so a
missed dependency cannot pass unseen.  equivariance_curve keeps its two
compared channels, which on the fig3 sweep leaves 4 of 8 rotations and 3
to 5 of 9 scales per layer.  keep=None computes every channel, through
the same correlation with no window.

Each correlation runs on every CPU the process may use, through
parts.run_parts: the forward rfft2 is split over the flattened (sample,
input channel) rows, each transformed straight into the layer's input
spectra with no temporary of its size, and then one pass per (output
channel, output rotation) row over those rows.  A row's pass forms its
filter spectra, adds their products with every sample's input spectra into
one block of that row's spectra (every sample, the scales it writes),
inverse-transforms the block and applies bias and ReLU into the output.
The block is a few hundred KB at the report's and the sweep's shapes, so
the multiply-adds run in cache, and no accumulator of the whole layer is
ever held.  The filter spectra are formed in runs of live slices that share
a scale tap, one stacked pair of matmuls per run into a buffer of at most
group.BLOCK_BYTES (256 KB, or one slice when that is larger), so a row
makes a few large NumPy calls rather than two per slice.  The run plan is
made once per correlation.  Every output element goes through the same
operations in the same order whatever the split, so the results are
bit-identical for every part count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bank import default_layer_scale, sample_filter_bank, scale_channel_grid
from .basis import angular_matrix, build_basis, scale_matrix
from .group import BLOCK_BYTES, FeatureMap
from .norms import fb_norm, fb_norm_joint
from .parts import BLAS_ONE_THREAD, run_parts


class ConfigError(ValueError):
    """Inconsistent network or experiment configuration."""


@dataclass(frozen=True)
class LayerSpec:
    """Sizes of one layer's filters.

    For the lifting layer (position 0 in a network) the inter-rotation /
    inter-scale fields are ignored: its filters have no (theta', alpha')
    axes.  layer_scale None stores the pitch-1 default log2((L-1)/2).
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
        if self.stencil < 3 or self.stencil % 2 == 0:
            raise ConfigError(f"stencil width must be odd and >= 3, got {self.stencil}")
        if self.L_theta < 1 or self.L_alpha < 1:
            raise ConfigError("L_theta and L_alpha must be >= 1")
        if self.max_angular < 0 or self.n_scale < 1:
            raise ConfigError("max_angular must be >= 0 and n_scale >= 1")
        j = default_layer_scale(self.stencil) if self.layer_scale is None else float(self.layer_scale)
        if not math.isfinite(j):
            raise ConfigError(f"layer_scale must be finite, got {j}")
        object.__setattr__(self, "layer_scale", j)

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
        if self.n_scales > 1 and not math.isfinite(2.0 * self.scale_range):
            raise ConfigError(f"scale_range T={self.scale_range} makes the scale grid [-T, T] non-finite")
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
        scales = [spec.layer_scale for spec in self.layers]
        t = float(self.scale_range) if self.n_scales > 1 else 0.0  # the scale grid spans [-t, t]
        for j in scales:
            # the bank scales by 2^j and 2^(-2(alpha + j)); 2^e is a finite nonzero float for e in [-1074, 1024)
            if not all(-1074 <= e < 1024 for e in (j, 2.0 * t - 2.0 * j, -2.0 * t - 2.0 * j)):
                raise ConfigError(f"layer_scale j={j} makes 2^j or 2^(-2(alpha+j)) zero or non-finite for alpha in [-{t}, {t}]")
        if any(b < a - 1e-12 for a, b in zip(scales, scales[1:])):
            raise ConfigError(f"layer scales must be nondecreasing, got {scales}")

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
    return scale_channel_grid(L_alpha, 1.0)


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
def _cached_bank(spatial_kind, K, n_rot, n_sc, t, stencil, layer_scale):
    # The bank samples only the spatial elements, so layers that share them
    # and the group grid share one bank whatever their angular/scale profiles.
    return sample_filter_bank(build_basis(spatial_kind, K), n_rot, n_sc, t, stencil, layer_scale)


def layer_basis(net, layer_index):
    """The BasisSet a given layer's coefficients expand against."""
    spec = net.layers[layer_index]
    return build_basis(net.spatial_kind, spec.K, max_angular=spec.max_angular, n_scale=spec.n_scale)


def layer_bank(net, layer_index):
    """The sampled FilterBank for a given layer (cached across calls)."""
    spec = net.layers[layer_index]
    return _cached_bank(
        net.spatial_kind,
        spec.K,
        net.n_rotations,
        net.n_scales,
        float(net.scale_range),
        spec.stencil,
        spec.layer_scale,
    )


def _profile_rows(a, basis, spec):
    """[M_in, M_out, L_theta, L_alpha, K]: joint coefficients a times the angular and scale profiles on the tap grids."""
    if a.shape[3:] != (spec.n_angular, spec.n_scale):
        raise ConfigError(f"coefficient mode axes {a.shape[3:]} != spec ({spec.n_angular}, {spec.n_scale})")
    phi = angular_matrix(basis, theta_taps(spec.L_theta))  # [n_ang, L_theta]
    xi = scale_matrix(basis, alpha_taps(spec.L_alpha))  # [n_scale, L_alpha]
    return np.einsum("abkmn,mt,nq->abtqk", a, phi, xi, optimize=True)


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
    basis = build_basis(bank.spatial_kind, spec.K, max_angular=spec.max_angular, n_scale=spec.n_scale)
    # The steps of einsum("abkmn,krsij,mt,nq->abrtsqij", ..., optimize=True):
    # the m and n sums in the order it picks (_profile_rows), then one
    # [(a b t q), K] @ [K, (r s i j)] GEMM, here in column blocks of at most
    # BLAS_ONE_THREAD multiply-adds, which OpenBLAS runs on the calling thread
    # (see rstcnn.parts).  Each element is the same K products summed in the
    # same order, so the filters keep the whole-layer einsum's bits.
    rows = _profile_rows(a, basis, spec).reshape(-1, bank.K)
    cols = bank.values.reshape(bank.K, -1)
    n = cols.shape[1]
    flat = np.empty((rows.shape[0], n))
    blocks = -(-n // max(1, BLAS_ONE_THREAD // rows.size))
    for j in range(blocks):  # near-equal blocks: no one-column GEMV
        lo, hi = n * j // blocks, n * (j + 1) // blocks
        np.matmul(rows, cols[:, lo:hi], out=flat[:, lo:hi])
    m_in, m_out = a.shape[:2]
    shape = (m_in, m_out, spec.L_theta, spec.L_alpha) + bank.values.shape[1:]
    return flat.reshape(shape).transpose(0, 1, 4, 2, 5, 3, 6, 7)


def aggregate_channels(norms, joint):
    """max(sup_out sum_in sum_mode, w sum_mode sup_in sum_out) of per-pair norms [M_in, M_out, modes].

    w = (2 for a joint layer, 1 for lifting) * M_in / M_out.  A_l and the
    quadrature bounds B, C, D all aggregate their (in, out, scale mode) norms so.
    """
    m_in, m_out = norms.shape[:2]
    weight = (2.0 if joint else 1.0) * m_in / m_out
    return max(norms.sum(axis=2).sum(axis=0).max(), weight * norms.sum(axis=1).max(axis=0).sum())


def filter_amplitude(coeffs, basis):
    """The layer's filter-amplitude bound A_l from its expansion coefficients.

    pi * aggregate_channels of the FB norms: one mode per (in, out) pair for
    lifting, per-scale-mode FB norms for joint layers.
    """
    mu = basis.spatial_eigenvalues
    if coeffs.is_lifting:
        norms = fb_norm(coeffs.a, mu)[:, :, None]  # [M_in, M_out, 1]
    else:
        norms = fb_norm_joint(np.moveaxis(coeffs.a, 4, 2), mu)  # [M_in, M_out, n_scale]
    return math.pi * float(aggregate_channels(norms, joint=not coeffs.is_lifting))


def normalize_coeffs_A2(coeffs, basis):
    """Rescale coefficients (and bias) by 1/max(A_l, 1); returns the new A_l."""
    amp = filter_amplitude(coeffs, basis)
    c = max(amp, 1.0)
    out = CoeffTensor(coeffs.a / c, coeffs.b / c)
    return out, amp / c


def draw_coeffs(net, layer_index, rng):
    """One layer's uniform [-1, 1] coefficients from rng, zero bias, A2-normalized.

    The lifting layer (index 0) draws a[M_in, M_out, K], a joint layer
    a[M_in, M_out, K, 2*max_angular+1, n_scale].
    """
    spec = net.layers[layer_index]
    shape = (spec.in_channels, spec.out_channels, spec.K)
    if layer_index > 0:
        shape += (spec.n_angular, spec.n_scale)
    raw = CoeffTensor(rng.uniform(-1.0, 1.0, size=shape), np.zeros(spec.out_channels))
    return normalize_coeffs_A2(raw, layer_basis(net, layer_index))[0]


def init_coeffs(net, seed=None):
    """draw_coeffs for every layer, layer idx from the stream (seed, idx); seed defaults to net.seed."""
    root = net.seed if seed is None else seed
    return [draw_coeffs(net, idx, np.random.default_rng([root, idx])) for idx in range(net.depth)]


def _live_taps(filters):
    """[M_in, L_theta, L_alpha]: whether an (input channel, tap) slice of joint filters is nonzero for some output channel."""
    return filters.any(axis=(1, 2, 4, 6, 7))


def live_slices(net, coeffs, layer_index):
    """[M_in, L_theta, L_alpha]: _live_taps of a joint layer's filters, read from its profile rows instead.

    The filters of an (input channel, tap) slice are its _profile_rows times
    the bank, so a slice whose rows are zero for every output channel has
    zero filters, and the rows are far smaller than the filters.  A nonzero
    row whose bank sum vanished at every tap would only widen channel_cone's
    windows.
    """
    spec = net.layers[layer_index]
    return _profile_rows(coeffs[layer_index].a, layer_basis(net, layer_index), spec).any(axis=(1, 4))


def _rotation_reads(rows, l_theta):
    """The rotations that the rotation mask rows [N_r] reads through L_theta taps, as a mask.

    Tap t reads rotation r + t * N_r / L_theta (cyclic), so a residue class
    mod N_r / L_theta reads only itself: the reads are the whole classes
    that rows meets.
    """
    return np.tile(rows.reshape(l_theta, -1).any(axis=0), l_theta)


def _scale_reads(lo, hi, live_q, n_in):
    """The input scales [i0, i1) that output scales [lo, hi) read through the live scale taps live_q.

    Tap q reads scale s + q and nothing from the top channel n_in on, so the
    reads lie in [lo + q0, hi + q1) cut at n_in, for the lowest and highest
    live taps q0 and q1; i0 == i1 when nothing is read.
    """
    if not live_q.size:
        return lo, lo
    i0 = lo + int(live_q[0])
    return i0, max(i0, min(hi + int(live_q[-1]), n_in))


def _conj_dft(L, P, Q):
    """(ey [P, L], ex [L, Q/2+1]): the conjugated DFT rows restricted to the L-tap support.

    ey @ f @ ex is the conjugate rfft2 of an L x L slice f laid cyclically on
    (P, Q), so its products with an input's rfft2 correlate.
    """
    taps = np.arange(L)
    ey = np.exp(2j * math.pi * (np.outer(np.arange(P), taps) % P) / P)
    ex = np.exp(2j * math.pi * (np.outer(taps, np.arange(Q // 2 + 1)) % Q) / Q)
    return ey, ex


def _spectra_runs(live, n_val, plane):
    """The runs _row_spectra forms its spectra in: [(q, ts, is_)], covering the live slices in (t, q, i) order.

    live [M_in, L_theta, L_alpha] is _live_taps of the layer's filters and
    n_val[q] the number of output scales tap q writes; a tap that writes none
    (n_val[q] <= 0) has no slices.  A run is consecutive slices (t, q, i) for t in ts and i in
    is_ that share the scale tap q, as many as fit BLOCK_BYTES as spectra of
    n_val[q] planes of plane complex elements each, and at least one: the
    byte rule of group.act_on_feature's blocks.  With L_alpha = 1 every slice
    shares q = 0, so a run crosses rotation taps.
    """
    l_th, l_al = live.shape[1:]
    runs = []
    for t in range(l_th):
        for q in range(l_al):
            if n_val[q] <= 0:
                continue
            cap = max(1, BLOCK_BYTES // (16 * n_val[q] * plane))
            for i in np.flatnonzero(live[:, t, q]):
                if runs and runs[-1][0] == q and len(runs[-1][1]) < cap:
                    runs[-1][1].append(t)
                    runs[-1][2].append(int(i))
                else:
                    runs.append((q, [t], [int(i)]))
    return runs


def _row_spectra(row, runs, n_val, ey, wex, buf):
    """The conjugate spectra of one output row's live (input channel, tap) slices, in the defining sum's order.

    row [M_in, L_theta, n_w, L_alpha, L, L] holds the filters of one (output
    channel, rotation) row over the output scales it writes; runs are
    _spectra_runs of the layer's live slices; n_val[q] is the number of those
    scales that tap q writes; ey and wex[q] are _conj_dft's factors, wex[q]
    carrying tap q's quadrature weight.  Yields (t, q, i, spectrum [n_val[q],
    P, Q/2+1]) with t outermost and i innermost: ey @ f @ wex[q] for each
    weighted slice f.  A dead slice gets no spectrum.  Each run's spectra
    come from one stacked pair of matmuls on the real filters, written into
    the flat complex buffer buf, which must hold the largest run (256 KB,
    or one slice when that is larger); so each spectrum is a view of buf, to
    be used before the next is asked for.
    Every spectrum is the same per-matrix products as one pair of matmuls on
    its slice alone, so its bits do not depend on the run it was formed in.
    """
    P, cols = ey.shape[0], wex[0].shape[1]
    for q, ts, is_ in runs:
        n = n_val[q]
        spectra = buf[: len(ts) * n * P * cols].reshape(len(ts), n, P, cols)
        np.matmul(ey, row[is_, ts, :n, q] @ wex[q], out=spectra)
        yield from zip(ts, [q] * len(ts), is_, spectra)


def _group_correlate(held, filters, bias, window=None):
    """relu(bias + tap-weighted spatial correlations), evaluated on rfft2 spectra.

    held is a one-element list of the input vals [N, M_in, R, S, H, W] (N
    samples; R, S the input's group sizes, or 1 to broadcast one image over
    every output channel).  It is emptied, and vals is dropped once its
    spectra exist, so an input no caller holds is freed before the output
    is allocated.  filters [M_in, M_out,
    N_r, L_theta, N_s, L_alpha, L, L].  Tap t reads rotation (r + t * R /
    L_theta) mod R, tap q reads scale s + q (nothing above the top channel)
    and carries weight alpha_weights(L_alpha)[q] / L_theta.  Returns [N,
    M_out, N_r, N_s, H, W].

    window (rows, lo, hi) restricts the output to the rotations of the mask
    rows [N_r] and the scales [lo, hi); None is every channel.  When R > 1
    the rows are widened to the residue classes they read (_rotation_reads),
    which are gathered in ascending order: tap t then steps t * len / L_theta
    rows within them.  Every output channel outside the window is NaN, and
    only the input channels the window reads are transformed.

    After the forward transform, one pass per (output channel, output
    rotation) row does all of that row's work in a block of every sample's
    spectra, small enough to stay in cache: it forms the row's spectra
    (_row_spectra), adds their products with the input spectra into the
    block in the defining sum's (t, q, i) order, then inverse-transforms,
    crops, adds the bias and applies the ReLU into the output.  A (tap,
    input channel) slice whose filters are zero for every output channel
    (the end scale taps of a Dirichlet profile, say) gets no spectrum and
    adds no products: the block starts at +0 and never becomes -0, so
    adding its +-0 products would change no bit.  With q0 the lowest live
    scale tap, the window reads input scales from lo + q0 on, and output
    scales from N_s - q0 on get no inverse transform: they are relu(bias),
    as the inverse transform of zeros plus bias would give.
    """
    vals = held.pop()
    m_in, m_out, n_r, l_th, n_s, l_al, L, _ = filters.shape
    n, _, R, S, H, W = vals.shape
    rows, s_lo, s_hi = window if window is not None else (np.ones(n_r, dtype=bool), 0, n_s)
    rows = np.flatnonzero(_rotation_reads(rows, l_th) if R > 1 else rows)
    r_n = len(rows)
    rows_sel = slice(None) if r_n == n_r else rows
    r_in = r_n if R > 1 else 1
    d_step = r_in // l_th
    w_alpha = alpha_weights(l_al)
    p = (L - 1) // 2
    P, Q = H + p, W + p
    live = _live_taps(filters)  # over every output channel
    live_q = np.flatnonzero(live.any(axis=(0, 1)))
    q0 = int(live_q[0]) if live_q.size else n_s
    w_hi = max(s_lo, min(s_hi, n_s - q0))  # output scales [s_lo, w_hi) some live tap writes
    n_w = w_hi - s_lo
    # xf holds the spectra of the input scales [i0, i1) the window reads
    i0, i1 = (0, min(n_w, 1)) if S == 1 else _scale_reads(s_lo, s_hi, live_q, S)
    xf = np.empty((n, m_in, r_in, i1 - i0, P, Q // 2 + 1), dtype=complex)
    n_rows = n * m_in
    rows_in = vals.reshape((n_rows,) + vals.shape[2:])
    rows_xf = xf.reshape((n_rows,) + xf.shape[2:])
    rot_in = rows_sel if R > 1 else slice(None)

    def transform(lo, hi):
        # One (sample, input channel) row at a time, through one zero-padded
        # buffer per part and transformed straight into the row's spectra:
        # no part allocates per row, and np.pad's cost per call is avoided.
        padded = np.zeros(xf.shape[2:4] + (P, Q))
        for j in range(lo, hi):
            padded[..., p : p + H, p : p + W] = rows_in[j][rot_in, i0:i1]
            np.fft.rfft2(padded, out=rows_xf[j])

    run_parts(transform, n_rows)
    del vals, rows_in  # the input map, unless a caller still holds it
    # allocated after the transform, whose temporaries are gone by then
    out = np.empty((n, m_out, n_r, n_s, H, W))
    if r_n < n_r or s_hi - s_lo < n_s:
        out.fill(np.nan)  # the channels outside the window
    ey, ex = _conj_dft(L, P, Q)
    wex = [w_alpha[q] / l_th * ex for q in range(l_al)]
    n_val = [min(w_hi, n_s - q) - s_lo for q in range(l_al)]  # outputs [s_lo, s_lo + n_val[q]) read s + q
    filt = filters[:, :, rows_sel, :, s_lo:w_hi]  # the window's output channels
    plane = P * (Q // 2 + 1)
    runs = _spectra_runs(live, n_val, plane)
    run_size = max((len(ts) * n_val[q] * plane for q, ts, _ in runs), default=0)

    def row_pass(lo, hi):
        # One (output channel, rotation) row at a time, through four buffers
        # per part: the row's spectra block, its products (then its column
        # transform), its row transform and one run of filter spectra.
        block = np.empty((n, n_w) + xf.shape[-2:], dtype=complex)
        scratch = np.empty_like(block)
        planes = np.empty((n, n_w, H, Q))
        buf = np.empty(run_size, dtype=complex)
        for j in range(lo, hi):
            o, r = divmod(j, r_n)
            block.fill(0.0)
            for t, q, i, spec in _row_spectra(filt[:, o, r], runs, n_val, ey, wex, buf):
                # Output row r reads input row (r + t * d_step) mod r_in whole, and
                # outputs [s_lo, s_lo + n_val[q]) read the inputs from s_lo + q on.
                k = s_lo + q - i0 if S > 1 else 0
                src = xf[:, i, (r + t * d_step) % r_in, k : k + n_val[q]]
                prod = scratch[:, : n_val[q]]
                np.multiply(spec, src, out=prod)
                block[:, : n_val[q]] += prod
            # irfft2(block, s=(P, Q))[..., :H, :W] as its two passes, with the
            # rows the crop drops left out of the second one.
            np.fft.ifft(block, axis=-2, out=scratch)
            np.fft.irfft(scratch[..., :H, :], n=Q, axis=-1, out=planes)
            dest = out[:, o, rows[r], s_lo:s_hi]
            np.add(planes[..., :W], bias[o], out=dest[:, :n_w])
            dest[:, n_w:] = 0.0 + bias[o]
            np.maximum(dest, 0.0, out=dest)

    run_parts(row_pass, m_out * r_n)
    return out


def lifting_conv(x, filters, bias, scale_grid, window=None):
    """Lift an image to a feature map: one 2-d correlation per (rotation, scale).

    x^{(1)}(u, theta_r, alpha_s, out) = relu(sum_in sum_{u'} x(u+u', in) *
    filters[in, out, r, s, u'] + bias[out]), "same" zero padding.  A batch
    [N, M, H, W] of images gives a batch [N, M_out, N_r, N_s, H, W].  A
    window (rows, lo, hi) computes only those channels (_group_correlate).
    """
    m_in, _, n_r = filters.shape[:3]
    shape = x.values.shape
    if shape[-3] != m_in:
        raise ConfigError(f"input channels {shape[-3]} != filter in_channels {m_in}")
    held = [x.values.reshape((-1,) + shape[-3:])[:, :, None, None]]
    out = _group_correlate(held, filters[:, :, :, None, :, None], bias, window=window)
    return FeatureMap(out.reshape(shape[:-3] + out.shape[1:]), 2.0 * math.pi / n_r, np.asarray(scale_grid, dtype=np.float64))


def joint_conv(x, filters, bias, spec, window=None):
    """One joint convolution layer over (space, rotation, scale).

    For each tap (l_theta, l_alpha): read the input rotated forward by
    l_theta * N_r / L_theta channels (cyclic) and up l_alpha scale channels
    (zero beyond the top), correlate spatially with the filter slice
    [:, :, r, l_theta, s, l_alpha, :, :], and accumulate with quadrature
    weight (1/L_theta) * trapezoid(l_alpha); then bias and ReLU.  A batched
    feature map [N, M, N_r, N_s, H, W] gives a batch of the same rank.  A
    window (rows, lo, hi) computes only those channels (_group_correlate).
    No reference to x is kept here, so when the caller holds none either, x
    is freed once its spectra exist.
    """
    m_in, _, n_r_f, l_th, n_s_f, l_al = filters.shape[:6]
    shape = x.values.shape
    m_x, n_r, n_s = shape[-5:-2]
    if m_x != m_in or n_r_f != n_r or n_s_f != n_s:
        raise ConfigError(
            f"filter group shape {(m_in, n_r_f, n_s_f)} does not match input {(m_x, n_r, n_s)}"
        )
    if l_th != spec.L_theta or l_al != spec.L_alpha:
        raise ConfigError("filter tap axes do not match the layer spec")
    if n_r % l_th != 0:
        raise ConfigError(f"L_theta={l_th} does not divide N_r={n_r}")
    held, lattice = [x.values.reshape((-1,) + shape[-5:])], (x.rotation_step, x.scale_grid)
    del x
    out = _group_correlate(held, filters, bias, window=window)
    return FeatureMap(out.reshape(shape[:-5] + out.shape[1:]), *lattice)


def channel_cone(net, live, keep):
    """Per layer, the window (rows, lo, hi) that forward_layers computes for keep.

    keep [N_r, N_s] is a boolean mask of the channels the caller reads at
    every layer.  Walking back from the last layer, each layer's window is
    the rotation mask rows [N_r] and the scales [lo, hi) that cover keep and
    every channel the next layer's window reads: whole residue classes of
    rotations (_rotation_reads) and the scales its live taps reach
    (_scale_reads).  live[idx - 1] is joint layer idx's live_slices mask.
    """
    keep = np.asarray(keep)
    shape = (net.n_rotations, net.n_scales)
    if keep.dtype != bool or keep.shape != shape or not keep.any():
        raise ValueError(f"keep must be a boolean {shape} mask with a channel set, got {keep.dtype} {keep.shape}")
    keep_rows, keep_scales = keep.any(axis=1), keep.any(axis=0)
    rows_read, scales_read = np.zeros_like(keep_rows), np.zeros_like(keep_scales)
    windows = []
    for idx in range(net.depth - 1, -1, -1):
        rows = keep_rows | rows_read
        scales = np.flatnonzero(keep_scales | scales_read)
        lo, hi = int(scales[0]), int(scales[-1]) + 1
        if idx > 0:
            rows = _rotation_reads(rows, net.layers[idx].L_theta)
            live_q = np.flatnonzero(live[idx - 1].any(axis=(0, 1)))
            i0, i1 = _scale_reads(lo, hi, live_q, shape[1])
            rows_read = rows & (i1 > i0)
            scales_read = np.zeros_like(keep_scales)
            scales_read[i0:i1] = True
        windows.append((rows, lo, hi))
    return windows[::-1]


def forward_layers(net, coeffs, x, keep=None):
    """Run the network layer by layer, yielding each layer's FeatureMap in turn.

    x may hold one image [M, H, W] or a batch [N, M, H, W]; a batch runs every
    layer once for all N samples, and each sample's features are bit-identical
    to its own single-image run.  Each layer's filters are synthesized when it
    runs, and its input map is dropped here once the layer's input spectra
    exist.  So a caller that drops each map before asking for the next holds
    one layer's map at a time: the next map is allocated after the previous
    one is freed.  A loop variable, a view (a reshape or an index), an
    enumerate or a generator expression over this generator keeps the
    previous map alive until the next is computed; pass each map into the
    call that reduces it (next(layers)) or del it first.

    keep, a boolean [N_r, N_s] mask of the channels the caller reads at every
    layer, limits each layer to its channel_cone window: those channels are
    bit-identical to the full run's and every other channel is NaN.  None
    keeps every channel.
    """
    if len(coeffs) != net.depth:
        raise ConfigError(f"expected {net.depth} coefficient tensors, got {len(coeffs)}")
    windows = [None] * net.depth
    if keep is not None:
        windows = channel_cone(net, [live_slices(net, coeffs, idx) for idx in range(1, net.depth)], keep)
    maps = [x]  # the next layer's input, popped into the call that reads it
    for idx, spec in enumerate(net.layers):
        filters = synthesize_filters(coeffs[idx], layer_bank(net, idx), spec)
        if idx == 0:
            maps.append(lifting_conv(maps.pop(), filters, coeffs[idx].b, net.scale_grid, window=windows[idx]))
        else:
            maps.append(joint_conv(maps.pop(), filters, coeffs[idx].b, spec, window=windows[idx]))
        del filters
        yield maps[0]


def forward(net, coeffs, x, return_all=False):
    """Run the full network; returns the last FeatureMap, or the list of every layer's.

    The features are forward_layers'; without return_all each layer is
    dropped as soon as it is returned, so one layer is held at a time.
    """
    layers = forward_layers(net, coeffs, x)
    if return_all:
        return list(layers)
    for _ in range(net.depth - 1):
        next(layers)
    return next(layers)
