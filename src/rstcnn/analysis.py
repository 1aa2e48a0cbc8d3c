"""Equivariance, stability, and filter-bound measurements.

Everything here measures a training-free network against the group action:
the relative equivariance error on the (theta=0, alpha=0) slice, the
deformation-stability certificate lhs <= 2^(beta+1) (4 L |grad tau| +
2^(-j_L) |tau|) ||x||, non-expansiveness of the layer stack, and quadrature
values of the filter integral bounds B, C, D against the amplitude bound A.
The bounds integrate on a product Gauss-Legendre rule fitted to the
basis's domain (disk_quadrature): polar on the unit disk, Cartesian on the
square, every node strictly inside, so no domain edge cuts the rule where
|grad W| jumps to zero.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, replace

import numpy as np

from .basis import SpatialRecipe, angular_matrix
from .deform import apply_deformation, tau_norms
from .group import ImageTensor, act_on_feature, act_on_image, channel_sources
from .net import aggregate_channels, filter_amplitude, forward, forward_layers, layer_basis, theta_taps
from .norms import feature_norm
from .parts import run_parts


class UndefinedEquivarianceError(ArithmeticError):
    """The reference slice has zero norm; the relative error is undefined."""


class AssumptionError(ValueError):
    """A certificate precondition failed; the message names the assumption."""


def _slice_error(direct, reference, margin):
    """(||direct - reference||, ||reference||) over the interior of two [M, H, W] slices."""
    sl = slice(margin, -margin) if margin > 0 else slice(None)
    a = direct[:, sl, sl]
    b = reference[:, sl, sl]
    den = float(np.linalg.norm(b))
    num = float(np.linalg.norm(a - b))
    return num, den


def equivariance_error(net, coeffs, x, g, layer, margin=4):
    """Relative L2 error of Eq.-style equivariance at one layer.

    ||(x^(l)[D_g x] - D_g x^(l)[x])|| / ||D_g x^(l)[x]|| on the spatial slice
    at rotation index 0 and the middle scale channel, restricted to an
    interior margin (pixels) to exclude padding artifacts.  layer is
    1-indexed; the value is entry layer - 1 of equivariance_curve.  Raises
    UndefinedEquivarianceError when the reference slice is identically zero.
    """
    if not 1 <= layer <= net.depth:
        raise ValueError(f"layer must be in 1..{net.depth}, got {layer}")
    err = equivariance_curve(net, coeffs, x, g, margin=margin).errors[layer - 1]
    if math.isinf(err):
        raise UndefinedEquivarianceError(
            f"reference slice is zero at layer {layer}; the relative error is undefined"
        )
    return err


@dataclass(frozen=True)
class EquivarianceCurve:
    """Per-layer relative errors (1..L).

    Layers whose reference slice vanishes carry math.inf (the deviation is
    positive while the reference is zero).
    """

    errors: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")


def equivariance_curve(net, coeffs, x, g, margin=4):
    """Per-layer equivariance errors from one forward pass over the pair (D_g x, x).

    The compared slices are channel (0, mid) of x^(l)[D_g x] and the one
    channel of x^(l)[x] that channel (0, mid) of D_g reads (channel_sources;
    a read from beyond the scale axis is zero), warped by act_on_image.  The
    forward computes only the cone of channels those two depend on.
    """
    n_r, n_s = net.n_rotations, net.n_scales
    mid = n_s // 2
    rot, sc = channel_sources(g, n_r, net.scale_grid)
    keep = np.zeros((n_r, n_s), dtype=bool)
    keep[0, mid] = True
    source = (rot[0], sc[mid]) if 0 <= sc[mid] < n_s else None
    if source is not None:
        keep[source] = True
    pair = ImageTensor(np.stack([act_on_image(g, x).values, x.values]))
    layers = forward_layers(net, coeffs, pair, keep=keep)
    # each map goes straight into the call that reduces it, so none is held while the next is computed
    return EquivarianceCurve(tuple(_pair_error(next(layers).values, g, mid, source, margin) for _ in range(net.depth)))


def _pair_error(vals, g, mid, source, margin):
    """The relative error between channel (0, mid) of vals[0] and D_g of channel source of vals[1] (zero when None)."""
    direct, plain = vals
    chan = plain[:, source[0], source[1]] if source is not None else np.zeros_like(plain[:, 0, 0])
    num, den = _slice_error(direct[:, 0, mid], act_on_image(g, ImageTensor(chan)).values, margin)
    return num / den if den > 0.0 else math.inf


@dataclass(frozen=True)
class StabilityReport:
    """Measured deviation vs. the deformation-stability bound for one trial."""

    lhs: float
    rhs: float
    beta: float
    L: int
    j_L: float
    sup_tau: float
    sup_grad_tau: float
    per_layer_errors: tuple
    allowance: float
    violation: bool
    vacuous: bool

    @property
    def margin(self):
        return self.rhs - self.lhs

    def to_dict(self):
        return asdict(self) | {"margin": self.margin, "per_layer_errors": list(self.per_layer_errors)}


GRAD_TAU_LIMIT = 0.2
ALLOWANCE_REL = 0.1
ALLOWANCE_ABS = 1e-3


def stability_certificate(net, coeffs, x, g, tau):
    """Certify ||x^(L)[D_g D_tau x] - D_g x^(L)[x]|| against the stability bound.

    The bound is 2^(beta+1) (4 L |grad tau|_inf + 2^(-j_L) |tau|_inf) ||x||.
    Preconditions: every layer's amplitude bound A_l <= 1 (raise naming (A2))
    and |grad tau|_inf < 1/5 (raise naming (A3)); the nonlinearity is the
    ReLU throughout, satisfying (A1).  A zero bound cannot separate
    discretization error from instability, so the report is then flagged
    vacuous rather than compared.
    """
    for idx in range(net.depth):
        amp = filter_amplitude(coeffs[idx], layer_basis(net, idx))
        if amp > 1.0 + 1e-9:
            raise AssumptionError(
                f"(A2) violated: filter amplitude bound A_l = {amp:.6g} > 1 at layer {idx + 1}"
            )
    sup_tau, sup_grad = tau_norms(tau)
    if sup_grad >= GRAD_TAU_LIMIT:
        raise AssumptionError(
            f"(A3) violated: |grad tau|_inf = {sup_grad:.6g} >= 1/5"
        )

    pair = ImageTensor(np.stack([act_on_image(g, apply_deformation(tau, x)).values, x.values]))
    layers = forward_layers(net, coeffs, pair)
    # each map goes straight into the call that reduces it, so none is held while the next is computed
    per_layer = tuple(_pair_deviation(next(layers), g) for _ in range(net.depth))
    lhs = per_layer[-1]

    L = net.depth
    j_last = net.layers[-1].layer_scale
    rhs = (
        2.0 ** (g.beta + 1.0)
        * (4.0 * L * sup_grad + 2.0 ** (-j_last) * sup_tau)
        * feature_norm(x)
    )
    allowance = ALLOWANCE_REL * rhs + ALLOWANCE_ABS
    vacuous = rhs == 0.0
    violation = (not vacuous) and lhs > rhs + allowance
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        beta=g.beta,
        L=L,
        j_L=j_last,
        sup_tau=sup_tau,
        sup_grad_tau=sup_grad,
        per_layer_errors=per_layer,
        allowance=allowance,
        violation=violation,
        vacuous=vacuous,
    )


def _pair_deviation(f, g):
    """||f[0] - D_g f[1]|| of a pair's feature map f."""
    return feature_norm(f.values[0] - act_on_feature(g, replace(f, values=f.values[1])).values)


@dataclass(frozen=True)
class NonexpansivenessReport:
    """Worst-case layer ratios over random input pairs.

    worst_ratio: max over trials and layers of ||x^(l)[x1] - x^(l)[x2]|| /
    ||x1 - x2||.  centered_worst: max per-layer growth ratio of the centered
    features (zero-input response subtracted).  constancy_dev: max over
    channels of (max - min) of the zero-input features.
    """

    worst_ratio: float
    per_layer_worst: tuple
    centered_worst: float
    constancy_dev: float
    n_trials: int


# Trial pairs per forward of nonexpansiveness_report.  Larger batches run
# faster but raise the memory peak: 4 pairs (8 samples at 28x28) peak at 22
# MB traced, below the 28 MB of a full forward of a fig3 K=10, L_alpha=3 pair
# at 56x56, and 10 pairs at 53 MB, well above it.  The sweep forwards only
# the cone of its compared channels, which peaks at 14 MB for that pair.
REPORT_PAIRS = 4


def nonexpansiveness_report(net, coeffs, n_trials, seed, height=28, width=28):
    """Measure layer non-expansiveness plus zero-input constancy and contraction.

    Pairs are uniform [0, 1] images drawn per trial from (seed, trial)
    streams.  REPORT_PAIRS consecutive trials' pairs go through one forward
    as a batch, and each layer of it is reduced to its norms before the next
    is computed.  Every sample's features are bit-identical to its own run,
    so the report does not depend on the grouping.
    """
    zero = np.zeros((net.layers[0].in_channels, height, width))
    zero_feats = forward(net, coeffs, ImageTensor(zero), return_all=True)
    constancy = 0.0
    for f in zero_feats:
        flat = f.values.reshape(f.values.shape[0], -1)
        constancy = max(constancy, float((flat.max(axis=1) - flat.min(axis=1)).max()))

    per_layer = [0.0] * net.depth
    centered_worst = 0.0
    for start in range(0, n_trials, REPORT_PAIRS):
        images = []
        for t in range(start, min(start + REPORT_PAIRS, n_trials)):
            rng = np.random.default_rng([seed, t])
            images.append(rng.uniform(0.0, 1.0, size=zero.shape))
            images.append(rng.uniform(0.0, 1.0, size=zero.shape))
        x1s, x2s = images[0::2], images[1::2]
        d0 = [feature_norm(x1 - x2) for x1, x2 in zip(x1s, x2s)]
        prev = [feature_norm(x1) for x1 in x1s]  # norm of the centered input to layer l
        layers = forward_layers(net, coeffs, ImageTensor(np.stack(images)))
        for l in range(net.depth):
            # no name holds the map (or a view of it) while the next is computed
            vals = next(layers).values
            for j in range(len(x1s)):
                f1, f2 = vals[2 * j], vals[2 * j + 1]
                per_layer[l] = max(per_layer[l], feature_norm(f1 - f2) / d0[j])
                cur = feature_norm(f1 - zero_feats[l].values)
                if prev[j] > 0.0:
                    centered_worst = max(centered_worst, cur / prev[j])
                prev[j] = cur
            del vals, f1, f2
    return NonexpansivenessReport(
        worst_ratio=max(per_layer) if per_layer else 0.0,
        per_layer_worst=tuple(per_layer),
        centered_worst=centered_worst,
        constancy_dev=constancy,
        n_trials=n_trials,
    )


@dataclass(frozen=True)
class FilterBoundReport:
    """Quadrature values of the filter integral bounds for one layer.

    B = integral of |W|, C of |u| |grad W|, D of |grad W| (per pair, then
    aggregated over channels the same way as the amplitude bound A); all on
    the unit-scale filter, so the scale-invariant comparison is
    B, C, 2^j D <= A.
    """

    B: float
    C: float
    D: float
    A: float
    layer_scale: float

    @property
    def scaled_D(self):
        return 2.0**self.layer_scale * self.D

    def to_dict(self):
        return asdict(self) | {"scaled_D": self.scaled_D}


# The basis at the nodes of a quadrature rule as a basis.SpatialRecipe that
# assembles any block of them, with the nodes, their radii, their weights and
# the rule's name.
_DiskQuadrature = namedtuple("_DiskQuadrature", "spatial recipe points radius weights rule")
# The order of the rule bounds report integrates on: n^2 = 16,384 nodes.  At
# K = 10 the largest relative deviation of B, C or 2^j D from an n = 1024
# rule is 1.9e-5 (fb, in B) and 4.7e-6 (sl); at K = 100 (fb) 1.6e-4, in B
# (BENCH_bounds_gauss.json).
BOUND_QUAD_N = 128


def disk_quadrature(basis, n=BOUND_QUAD_N):
    """A product Gauss-Legendre rule of n^2 nodes fitted to the basis's domain, for filter_bound_report.

    Fourier-Bessel elements live on the unit disk: n/2 Gauss-Legendre radii
    r_i = (x_i + 1) / 2 with weights (w_i / 2) r_i times 2n uniform angles
    2 pi (j + 1/2) / (2n) with weights 2 pi / (2n).  Sine elements live on
    the square: n x n Gauss-Legendre nodes on (-1, 1)^2.  Every node lies
    strictly inside the domain and off the origin, so no edge cuts the rule
    and no node is dropped.  A basis that mixes both kinds has no one domain,
    and its SpatialRecipe raises ValueError.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if basis.spatial_kind == "fb":
        x, w = np.polynomial.legendre.leggauss(n // 2)
        r = (x + 1.0) / 2.0
        phi = 2.0 * math.pi * (np.arange(2 * n) + 0.5) / (2 * n)
        pts = np.stack([r[:, None] * np.cos(phi), r[:, None] * np.sin(phi)], axis=-1)
        weights = np.repeat(w / 2.0 * r * (2.0 * math.pi / (2 * n)), 2 * n)
        rule = "gauss-polar"
    else:
        x, w = np.polynomial.legendre.leggauss(n)
        pts = np.stack(np.meshgrid(x, x, indexing="xy"), axis=-1)
        weights = np.outer(w, w).ravel()
        rule = "gauss-square"
    pts = pts.reshape(-1, 2)
    recipe = SpatialRecipe(basis.spatial, pts, grad=True)
    radius = np.sqrt((pts**2).sum(axis=1))
    return _DiskQuadrature(basis.spatial, recipe, pts, radius, weights, rule)


def _block_sums(cs, vals, grads, weights, radius_weights):
    """[T, 3, R]: per c [R, K] of cs, the weighted sums of |W|, r |grad W| and |grad W| over one assembled block, W = c @ basis."""
    w, gx, gy = np.empty((3, len(cs[0]), vals.shape[1]))
    sums = np.empty((len(cs), 3, len(cs[0])))
    # Every theta sample's values go first, then every sample's gradients,
    # so each loop reads and writes less at a time: at K = 10 and 12 rows,
    # 0.7 MB and then 1.4 MB, where both at once (2.2 MB) outgrow a 2 MB L2
    # cache.
    for t, c in enumerate(cs):
        np.matmul(c, vals, out=w)
        np.matmul(np.abs(w, out=w), weights, out=sums[t, 0])
    for t, c in enumerate(cs):
        np.matmul(c, grads[0], out=gx)
        np.matmul(c, grads[1], out=gy)
        np.square(gx, out=gx)
        np.square(gy, out=gy)
        gmag = np.sqrt(np.add(gx, gy, out=gx), out=gx)
        np.matmul(gmag, radius_weights, out=sums[t, 1])
        np.matmul(gmag, weights, out=sums[t, 2])
    return sums


def filter_bound_report(coeffs, bases, specs, quad, n_theta=64):
    """Quadrature B, C, D aggregates of layers against their amplitude bounds: one report per layer.

    coeffs, bases and specs hold one entry per layer.  Spatial integrals are
    weighted sums over the nodes of quad, a disk_quadrature of the layers'
    common spatial elements; joint layers integrate over theta with the
    normalized S^1 measure on n_theta uniform samples.  Gradients come from
    the analytic basis derivatives.
    """
    if n_theta < 1:
        raise ValueError(f"n_theta must be >= 1, got {n_theta}")
    if not len(coeffs) == len(bases) == len(specs):
        raise ValueError(f"{len(coeffs)} coefficient tensors, {len(bases)} bases and {len(specs)} layer specs")
    if any(quad.spatial != basis.spatial for basis in bases):
        raise ValueError("quadrature was built for other spatial elements than this basis")
    layers = []  # per layer, its [R, K] filter matrix of each theta sample
    for c, basis in zip(coeffs, bases):
        K = c.a.shape[2]
        if c.is_lifting:
            layers.append([c.a.reshape(-1, K)])
        else:
            phi = angular_matrix(basis, theta_taps(n_theta))  # [n_ang, n_theta]
            layers.append([np.einsum("abkmn,m->abnk", c.a, phi[:, t]).reshape(-1, K) for t in range(n_theta)])
    # The nodes go in the recipe's chunks, the last one short, split over
    # the part pool.  Each chunk is assembled once and every layer's theta
    # samples run their small GEMMs on it while it is in cache, so no
    # rule-sized tensor forms.  The chunk is the block because its GEMMs
    # stay small: it holds 40,960 / K points, so a GEMM of 12 filter rows
    # takes 491,520 multiply-adds whatever K, below 2 * parts.BLAS_ONE_THREAD,
    # so OpenBLAS starts no threads of its own to compete with the part pool
    # (see rstcnn.parts).  Each block writes its own sums, which are then added
    # in block order, so the sums are bit-identical for every part count
    # and whichever layers share the pass.
    chunks = quad.recipe.chunks
    radius_weights = quad.radius * quad.weights
    per_block = [np.empty((len(chunks), len(cs), 3, len(cs[0]))) for cs in layers]

    def part(lo, hi):
        for i in range(lo, hi):
            a, b = chunks[i]
            vals, grads = quad.recipe.assemble(a, b)
            for cs, out in zip(layers, per_block):
                out[i] = _block_sums(cs, vals, grads, quad.weights[a:b], radius_weights[a:b])

    run_parts(part, len(chunks))
    reports = []
    for c, basis, spec, blocks in zip(coeffs, bases, specs, per_block):
        per_theta = np.zeros(blocks.shape[1:])
        for block in blocks:
            per_theta += block
        sums = per_theta[0] if c.is_lifting else per_theta.sum(axis=0) / n_theta
        m_in, m_out = c.a.shape[:2]
        B, C, Du = (aggregate_channels(p, joint=not c.is_lifting) for p in sums.reshape(3, m_in, m_out, -1))
        j = spec.layer_scale
        A = filter_amplitude(c, basis)
        reports.append(FilterBoundReport(B=float(B), C=float(C), D=float(Du) * 2.0**-j, A=A, layer_scale=j))
    return reports


def isometry_deviation(feat, g):
    """Relative deviation of ||D_g feat|| from 2^beta ||feat||."""
    base = feature_norm(feat)
    if base == 0.0:
        raise ValueError("zero feature has no isometry ratio")
    moved = feature_norm(act_on_feature(g, feat))
    target = 2.0**g.beta * base
    return abs(moved - target) / target
