"""Experiment orchestration: sweeps, stability trials, validation reports.

Every runner is deterministic in its configuration: per-cell RNG streams are
derived from (seed, salt) pairs, output rows are ordered by their sweep key
whatever order the axis values are listed in, and floats are serialized
with repr (shortest round-trip), so reruns with identical configs emit
identical bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .basis import build_basis, gram_matrix, laplacian_residuals
from .bessel import bessel_j, bessel_zero
from .data import read_idx_image, rs_image, synthetic_blobs
from .deform import make_tau_targeting_grad
from .group import GroupElement, ImageTensor, off_canvas
from .net import (
    ConfigError,
    CoeffTensor,
    LayerSpec,
    NetworkConfig,
    _coeff_shape,
    init_coeffs,
    layer_basis,
    normalize_coeffs_A2,
)

INPUT_SALT = 7777
TAU_SALT = 4242
# highest Fourier frequency of the stability trials' deformation fields
TAU_MAX_FREQ = 3

EXPERIMENT_KINDS = ("equivariance-sweep", "stability-trials", "basis-validate", "bounds-report", "bank-build")
# the tuple-valued fields a config file sets to one value
SWEEP_AXES = ("k_list", "l_alpha_list", "seeds")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: network shape, sweep axes, and data source."""

    kind: str
    layers: int = 5
    channels: int = 2
    k_list: tuple = (5, 10)
    l_alpha_list: tuple = (1, 3)
    seeds: tuple = (0, 1, 2, 3, 4)
    n_rotations: int = 8
    n_scales: int = 9
    scale_range: float = 1.0
    L_theta: int = 4
    stencil: int = 9
    eta: float = -math.pi / 2.0
    beta: float = -0.5
    v: tuple = (0.0, 0.0)
    margin: int = 4
    height: int = 56
    width: int = 56
    grad_levels: tuple = (0.02, 0.05, 0.1)
    idx_images: str | None = None
    idx_labels: str | None = None
    upsize: int = 56
    grid_n: int = 301
    spatial_kind: str = "fb"
    layer_scale: float | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        for name in SWEEP_AXES:
            vals = getattr(self, name)
            object.__setattr__(self, name, tuple(vals))
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if min(self.k_list) < 1:
            raise ConfigError(f"k_list entries must be >= 1, got {min(self.k_list)}")
        if not self.grad_levels or not all(level >= 0 for level in self.grad_levels):
            raise ConfigError(f"grad_levels must be non-empty and >= 0, got {self.grad_levels}")
        if (self.idx_images is None) != (self.idx_labels is None):
            raise ConfigError("idx images and labels must be given together")
        for name, value in (("eta", self.eta), ("beta", self.beta), ("v", self.v)):
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.grid_n < 2:
            raise ConfigError(f"grid_n must be >= 2, got {self.grid_n}")
        if self.kind == "equivariance-sweep":
            H, W = (self.upsize,) * 2 if self.idx_images is not None else (self.height, self.width)
            side = min(H, W)
            if not 0 <= 2 * self.margin < side:
                raise ConfigError(f"margin={self.margin} must be >= 0 and below half the {side}-pixel image side")
            if off_canvas(self.group_element, H, W):
                raise ConfigError(f"v={self.v} moves every source point of D_g off the {H}x{W} input")

    @property
    def group_element(self):
        return GroupElement(self.eta, self.beta, tuple(self.v))

    def echo_lines(self):
        g = self.group_element
        pairs = [
            ("kind", self.kind),
            ("layers", self.layers),
            ("channels", self.channels),
            ("K", ",".join(str(k) for k in self.k_list)),
            ("L_alpha", ",".join(str(v) for v in self.l_alpha_list)),
            ("seeds", ",".join(str(s) for s in self.seeds)),
            ("N_r", self.n_rotations),
            ("N_s", self.n_scales),
            ("T", repr(float(self.scale_range))),
            ("L_theta", self.L_theta),
            ("L", self.stencil),
            ("eta", repr(g.eta)),
            ("beta", repr(g.beta)),
            ("v", f"{g.v[0]!r},{g.v[1]!r}"),
            ("margin", self.margin),
            ("height", self.height),
            ("width", self.width),
            ("j", "default" if self.layer_scale is None else repr(float(self.layer_scale))),
            ("source", self.idx_images or "synthetic"),
        ]
        return [f"# {k} = {v}" for k, v in pairs]


def fig3_config(**overrides):
    """The 5-layer equivariance-sweep preset (every field overridable)."""
    return ExperimentConfig(kind="equivariance-sweep", **overrides)


def stability_config(**overrides):
    """The 3-layer stability-trials preset over 20 seeds."""
    base = dict(kind="stability-trials", layers=3, seeds=tuple(range(20)), k_list=(5,))
    base.update(overrides)
    return ExperimentConfig(**base)


def build_network(cfg, K, L_alpha, seed=0):
    """The lift+joint network for one (K, L_alpha) cell; every rstcnn network is built here."""
    lift = LayerSpec(1, cfg.channels, K, cfg.stencil, layer_scale=cfg.layer_scale)
    joint = LayerSpec(
        cfg.channels,
        cfg.channels,
        K,
        cfg.stencil,
        L_theta=cfg.L_theta,
        L_alpha=L_alpha,
        max_angular=4,
        n_scale=max(1, L_alpha),
        layer_scale=cfg.layer_scale,
    )
    return NetworkConfig(
        layers=(lift,) + (joint,) * (cfg.layers - 1),
        n_rotations=cfg.n_rotations,
        n_scales=cfg.n_scales,
        scale_range=cfg.scale_range,
        spatial_kind=cfg.spatial_kind,
        seed=seed,
    )


def sweep_input(cfg, seed):
    """The input image for one sweep seed: synthetic, or image seed % N of the IDX pair.

    An IDX cell reads the file pair, converts to float and transforms only its
    own image, with the stream make_rs_dataset(..., seed=INPUT_SALT) gives it.
    """
    if cfg.idx_images is None:
        return ImageTensor(synthetic_blobs(cfg.height, cfg.width, np.random.default_rng([seed, INPUT_SALT])))
    i, image = read_idx_image(cfg.idx_images, cfg.idx_labels, seed)
    return ImageTensor(rs_image(image, INPUT_SALT, i, cfg.upsize))


def _sweep_cell(cfg, K, L_alpha, seed):
    try:
        net = build_network(cfg, K, L_alpha, seed=seed)
        coeffs = init_coeffs(net, seed=seed)
        curve = analysis.equivariance_curve(
            net, coeffs, sweep_input(cfg, seed), cfg.group_element, margin=cfg.margin
        )
    except Exception as e:
        head = str(e.args[0]) if e.args else ""
        e.args = (f"sweep cell K={K} L_alpha={L_alpha} seed={seed}: {head}",) + e.args[1:]
        raise
    return [(K, L_alpha, seed, layer + 1, err) for layer, err in enumerate(curve.errors)]


def run_equivariance_sweep(cfg):
    """Layer-wise equivariance errors over the (K, L_alpha, seed) grid as CSV."""
    cells = [(K, La, s) for K in cfg.k_list for La in cfg.l_alpha_list for s in cfg.seeds]
    rows = sorted(row for cell in cells for row in _sweep_cell(cfg, *cell))
    lines = cfg.echo_lines()
    lines.append("K,L_alpha,seed,layer,error")
    for K, La, s, layer, err in rows:
        lines.append(f"{K},{La},{s},{layer},{err!r}")
    return "\n".join(lines) + "\n"


def parse_sweep_csv(text):
    """CSV text back into a list of (K, L_alpha, seed, layer, error) tuples."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("K,"):
            continue
        k, la, s, layer, err = line.split(",")
        rows.append((int(k), int(la), int(s), int(layer), float(err)))
    return rows


def _stability_trial(cfg, seed, level):
    net = build_network(cfg, cfg.k_list[0], 1, seed=seed)
    coeffs = init_coeffs(net, seed=seed)
    x = ImageTensor(synthetic_blobs(cfg.height, cfg.width, np.random.default_rng([seed, INPUT_SALT])))
    tau = make_tau_targeting_grad([seed, TAU_SALT], level, TAU_MAX_FREQ, cfg.height, cfg.width)
    return analysis.stability_certificate(net, coeffs, x, cfg.group_element, tau)


def run_stability_trials(cfg):
    """Stability certificates for every seed; returns (reports, any_violation)."""
    levels = cfg.grad_levels
    reports = [_stability_trial(cfg, seed, levels[i % len(levels)]) for i, seed in enumerate(cfg.seeds)]
    return reports, any(r.violation for r in reports)


def stability_json(cfg, reports):
    """Deterministic JSON text for a list of stability reports."""
    body = {
        "config": {
            "kind": cfg.kind,
            "layers": cfg.layers,
            "seeds": list(cfg.seeds),
            "grad_levels": list(cfg.grad_levels),
            "beta": cfg.beta,
            "eta": cfg.eta,
        },
        "trials": [r.to_dict() for r in reports],
        "violations": sum(1 for r in reports if r.violation),
    }
    return json.dumps(body, sort_keys=True, indent=1) + "\n"


def run_basis_validate(cfg):
    """Basis health report: Gram deviation, Laplacian residuals, zero residuals."""
    t0 = time.perf_counter()
    K = max(cfg.k_list)
    basis = build_basis(cfg.spatial_kind, K)
    gram = gram_matrix(basis, grid_n=201)
    gram_dev = float(np.abs(gram - np.eye(K)).max())
    residuals = laplacian_residuals(basis)
    zero_residuals = [np.abs(bessel_j(m, bessel_zero(m, np.arange(1, 9)))).max() for m in range(9)]
    j01_err = abs(bessel_zero(0, 1) - 2.4048255577)
    report = {
        "kind": cfg.kind,
        "K": K,
        "spatial_kind": cfg.spatial_kind,
        "max_gram_deviation": gram_dev,
        "max_laplacian_residual": float(max(residuals)),
        "max_zero_residual": float(max(zero_residuals)),
        "j01_error": float(j01_err),
        "elapsed_s": time.perf_counter() - t0,
    }
    report["ok"] = bool(
        gram_dev < 1e-2
        and report["max_laplacian_residual"] < 5e-2
        and report["max_zero_residual"] < 1e-9
        and j01_err < 1e-9
    )
    return report


def run_bounds_report(cfg):
    """Quadrature filter bounds vs. amplitude bounds over random draws."""
    K = max(cfg.k_list)
    # the sweep's network for the largest (K, L_alpha); its first two layers are the ones bounded
    netc = build_network(replace(cfg, layers=2), K, max(cfg.l_alpha_list))
    # both layers expand in the same K spatial elements: evaluate them on the grid once
    quad = analysis._unit_disk_quadrature(layer_basis(netc, 0), cfg.grid_n)
    draws = []
    worst = 0.0
    for seed in cfg.seeds:
        rng = np.random.default_rng([seed, 31])
        per_draw = {"seed": seed}
        for idx, name in enumerate(("lifting", "joint")):
            spec, bas = netc.layers[idx], layer_basis(netc, idx)
            raw = CoeffTensor(rng.uniform(-1.0, 1.0, size=_coeff_shape(netc, idx)), np.zeros(spec.out_channels))
            coeffs, _ = normalize_coeffs_A2(raw, bas, spec)
            rep = analysis.filter_bound_report(coeffs, bas, spec, grid_n=cfg.grid_n, quadrature=quad)
            ratio = max(rep.B, rep.C, rep.scaled_D) / rep.A if rep.A > 0 else 0.0
            worst = max(worst, ratio)
            d = rep.to_dict()
            d["ratio"] = ratio
            per_draw[name] = d
        draws.append(per_draw)
    return {
        "kind": cfg.kind,
        "K": K,
        "grid_n": cfg.grid_n,
        "draws": draws,
        "worst_ratio": worst,
        "ok": bool(worst <= 1.02),
    }
