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
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .basis import build_basis, gram_matrix, laplacian_residuals
from .bessel import bessel_j, bessel_zero
from .data import read_idx_image, rs_image, synthetic_blobs
from .deform import make_tau_targeting_grad
from .group import GroupElement, ImageTensor, act_on_image, channel_sources
from .net import ConfigError, LayerSpec, NetworkConfig, draw_coeffs, init_coeffs, layer_basis

INPUT_SALT = 7777
TAU_SALT = 4242

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
        if 2 in self.l_alpha_list:
            # alpha_taps(2) is (-1, 1), where every Dirichlet scale profile is 0
            raise ConfigError("L_alpha = 2 puts both scale taps on the edges alpha = -1, 1, where every joint filter is zero")
        if not self.grad_levels or not all(0 <= level < math.inf for level in self.grad_levels):
            raise ConfigError(f"grad_levels must be non-empty, finite and >= 0, got {self.grad_levels}")
        if (self.idx_images is None) != (self.idx_labels is None):
            raise ConfigError("idx images and labels must be given together")
        if self.idx_images is not None and self.height != self.width:
            raise ConfigError(f"IDX input is upsampled to a square: height={self.height} must equal width={self.width}")
        for name, value in (("eta", self.eta), ("beta", self.beta), ("v", self.v)):
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.kind in ("equivariance-sweep", "stability-trials"):
            # channel_sources names the scale channel each channel of D_g reads, and raises
            # OffLatticeError for an off-lattice eta or beta, before the sweep's reach check
            # computes 2^-beta.  The lattice comes from a one-layer network whose NetworkConfig
            # rejects N_r, N_s < 1 and a T <= 0 or beyond float range first (a bank-build view,
            # so it runs no lattice check of its own).
            lift = build_network(replace(self, kind="bank-build", layers=1), self.k_list[0], 1)
            n_s = lift.n_scales
            _, sc = channel_sources(GroupElement(self.eta, self.beta), lift.n_rotations, lift.scale_grid)
            stored = (sc >= 0) & (sc < n_s)
            # the sweep compares the middle scale channel, a trial every channel
            sweep = self.kind == "equivariance-sweep"
            if not (stored[n_s // 2] if sweep else stored.any()):
                which = "the middle scale channel" if sweep else "every scale channel"
                raise ConfigError(f"beta={self.beta} moves {which} to read beyond the {n_s} scale channels")
        if self.kind == "equivariance-sweep":
            H, W = self.height, self.width
            side = min(H, W)
            if not 0 <= 2 * self.margin < side:
                raise ConfigError(f"margin={self.margin} must be >= 0 and below half the {side}-pixel image side")
            m = self.margin
            # D_g of a ones image is nonzero exactly where it reads an input pixel
            reach = act_on_image(self.group_element, ImageTensor(np.ones((1, H, W)))).values[0]
            if not reach[m : H - m, m : W - m].any():
                raise ConfigError(f"v={self.v} moves every source point in the margin-{m} interior off the {H}x{W} input")

    @property
    def group_element(self):
        return GroupElement(self.eta, self.beta, tuple(self.v))

    def echo(self):
        """The run's settings by echo key, in echo order; a tuple holds one value per sweep entry or vector component."""
        g = self.group_element
        return {
            "kind": self.kind,
            "layers": self.layers,
            "channels": self.channels,
            "K": self.k_list,
            "L_alpha": self.l_alpha_list,
            "seeds": self.seeds,
            "N_r": self.n_rotations,
            "N_s": self.n_scales,
            "T": float(self.scale_range),
            "L_theta": self.L_theta,
            "L": self.stencil,
            "eta": g.eta,
            "beta": g.beta,
            "v": g.v,
            "margin": self.margin,
            "height": self.height,
            "width": self.width,
            "j": "default" if self.layer_scale is None else float(self.layer_scale),
            "source": self.idx_images or "synthetic",
        }

    def echo_lines(self):
        """The sweep CSV's "# key = value" lines; a tuple is written comma-separated."""
        return [f"# {k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}" for k, v in self.echo().items()]


def fig3_config(**overrides):
    """The 5-layer equivariance-sweep preset (every field overridable)."""
    return ExperimentConfig(kind="equivariance-sweep", **overrides)


def stability_config(**overrides):
    """The 3-layer stability-trials preset over 20 seeds."""
    base = dict(kind="stability-trials", layers=3, seeds=tuple(range(20)), k_list=(5,), l_alpha_list=(1,))
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
        n_scale=L_alpha,
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
    """The height x width input image of one sweep or stability-trial seed: synthetic, or image seed % N of the IDX pair.

    An IDX cell reads the file pair, converts to float and transforms only its
    own image, with the stream make_rs_dataset(..., seed=INPUT_SALT) gives it.
    """
    if cfg.idx_images is None:
        return ImageTensor(synthetic_blobs(cfg.height, cfg.width, np.random.default_rng([seed, INPUT_SALT])))
    i, image = read_idx_image(cfg.idx_images, cfg.idx_labels, seed)
    return ImageTensor(rs_image(image, INPUT_SALT, i, cfg.height))


def _sweep_cell(cfg, K, L_alpha, seed):
    try:
        net = build_network(cfg, K, L_alpha, seed=seed)
        coeffs = init_coeffs(net)
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
    net = build_network(cfg, cfg.k_list[0], cfg.l_alpha_list[0], seed=seed)
    coeffs = init_coeffs(net)
    x = sweep_input(cfg, seed)
    tau = make_tau_targeting_grad([seed, TAU_SALT], level, cfg.height, cfg.width)
    return analysis.stability_certificate(net, coeffs, x, cfg.group_element, tau)


def run_stability_trials(cfg):
    """Stability certificates for every seed; returns (reports, any_violation)."""
    levels = cfg.grad_levels
    reports = [_stability_trial(cfg, seed, levels[i % len(levels)]) for i, seed in enumerate(cfg.seeds)]
    return reports, any(r.violation for r in reports)


def stability_json(cfg, reports):
    """Deterministic JSON text for a list of stability reports."""
    # the echo but the sweep's margin, which the trials do not read
    config = {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.echo().items() if k != "margin"}
    body = {
        "config": config | {"grad_levels": list(cfg.grad_levels)},
        "trials": [r.to_dict() for r in reports],
        "violations": sum(1 for r in reports if r.violation),
    }
    return json.dumps(body, sort_keys=True, indent=1) + "\n"


def run_basis_validate(cfg):
    """Basis health report: Gram deviation, Laplacian residuals, zero residuals."""
    K = max(cfg.k_list)
    basis = build_basis(cfg.spatial_kind, K)
    gram = gram_matrix(basis)
    gram_dev = float(np.abs(gram - np.eye(K)).max())
    residuals = laplacian_residuals(basis)
    orders = np.arange(9)[:, None]
    zero_residual = np.abs(bessel_j(orders, bessel_zero(orders, np.arange(1, 9)))).max()
    j01_err = abs(bessel_zero(0, 1) - 2.4048255577)
    report = {
        "kind": cfg.kind,
        "K": K,
        "spatial_kind": cfg.spatial_kind,
        "max_gram_deviation": gram_dev,
        "max_laplacian_residual": float(max(residuals)),
        "max_zero_residual": float(zero_residual),
        "j01_error": float(j01_err),
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
    bases = [layer_basis(netc, idx) for idx in range(netc.depth)]
    # both layers expand in the same K spatial elements: evaluate them on the rule's nodes once
    quad = analysis.disk_quadrature(bases[0])
    draws = []
    worst = 0.0
    for seed in cfg.seeds:
        rng = np.random.default_rng([seed, 31])
        per_draw = {"seed": seed}
        # both layers' sums come from one pass over the nodes
        coeffs = [draw_coeffs(netc, idx, rng) for idx in range(netc.depth)]
        reports = analysis.filter_bound_report(coeffs, bases, netc.layers, quad)
        for name, rep in zip(("lifting", "joint"), reports):
            ratio = max(rep.B, rep.C, rep.scaled_D) / rep.A if rep.A > 0 else 0.0
            worst = max(worst, ratio)
            d = rep.to_dict()
            d["ratio"] = ratio
            per_draw[name] = d
        draws.append(per_draw)
    return {
        "kind": cfg.kind,
        "K": K,
        "quadrature": {"rule": quad.rule, "nodes": int(quad.radius.size)},
        "draws": draws,
        "worst_ratio": worst,
        "ok": bool(worst <= 1.02),
    }
