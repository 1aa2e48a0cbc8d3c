"""The benchmark's workloads: set-up, units per round, and output checks.

Every unit goes through the public functions the CLI and the tests call.
Units of round r use the seed ``1000 * workload_seed + r``, so the default
workload seed 0 replays the fig3 sweep seeds 0, 1, 2, ... whose errors are
stored in ``sweep_reference.csv``.  Functions are reached through their
modules (``net.layer_bank``, not a name imported here) so a traced run sees
every call.

A check returns (failure reasons, infinite errors seen); no reasons means
the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from rstcnn import analysis, basis, experiments, group, net

REFERENCE_CSV = Path(__file__).with_name("sweep_reference.csv")
SWEEP_CELLS = ((5, 1), (5, 3), (10, 1), (10, 3))
SWEEP_HEADER = "K,L_alpha,seed,layer,error"
REL_TOL = 1e-6  # criterion 3's relative tolerance
NONEXP_TRIALS = 20
NONEXP_RATIO_MAX = 1.0 + 1e-3  # criterion 5
CONSTANCY_MAX = 1e-10  # criterion 5
BOUND_RATIO_MAX = 1.02  # criterion 8


def unit_seed(workload_seed, round_index):
    # NumPy seeds must be >= 0; the modulo leaves every seed below 2**32 as it is
    return 1000 * (workload_seed % 2**32) + round_index


# -- sweep ------------------------------------------------------------------


def parse_sweep_rows(text):
    """(K, L_alpha, seed, layer) -> error from sweep CSV text; ValueError if malformed."""
    rows = {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"missing header {SWEEP_HEADER!r}")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"row {line!r} has {len(fields)} fields")
        key = tuple(int(f) for f in fields[:4])
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = float(fields[4])
    return rows


def load_reference():
    return parse_sweep_rows(REFERENCE_CSV.read_text())


def reference_slice_norms(cfg):
    """Per-layer norm of the slice that divides the equivariance error.

    Recomputed from the public API: the reference D_g x^(l)[x] at rotation
    index 0, the middle scale channel and an interior margin, as documented
    by `analysis.equivariance_error`.
    """
    K, L_alpha, seed = cfg.k_list[0], cfg.l_alpha_list[0], cfg.seeds[0]
    netc = experiments.build_network(cfg, K, L_alpha, seed=seed)
    coeffs = net.init_coeffs(netc, seed=seed)
    feats = net.forward(netc, coeffs, experiments.sweep_input(cfg, seed), return_all=True)
    m, mid = cfg.margin, netc.n_scales // 2
    sl = slice(m, -m) if m > 0 else slice(None)
    return [
        float(np.linalg.norm(group.act_on_feature(cfg.group_element, f).values[:, 0, mid, sl, sl]))
        for f in feats
    ]


def check_sweep(text, cfg, reference, slice_norms=reference_slice_norms):
    """Rows parse, one per layer, errors >= 0, inf only over a zero slice, match the reference.

    Returns (failures, number of inf errors).
    """
    K, L_alpha, seed = cfg.k_list[0], cfg.l_alpha_list[0], cfg.seeds[0]
    try:
        rows = parse_sweep_rows(text)
    except ValueError as e:
        return [f"sweep output does not parse: {e}"], 0
    want = {(K, L_alpha, seed, layer) for layer in range(1, cfg.layers + 1)}
    if set(rows) != want:
        return [f"sweep rows {sorted(rows)} != one per layer {sorted(want)}"], 0
    failures = []
    infs = [key[3] for key, err in rows.items() if math.isinf(err)]
    norms = slice_norms(cfg) if infs else None
    for key in sorted(rows):
        err = rows[key]
        if math.isnan(err) or err < 0.0:
            failures.append(f"{key}: error {err!r} is not >= 0")
        elif math.isinf(err) and norms[key[3] - 1] != 0.0:
            failures.append(f"{key}: error is inf but the reference slice norm is {norms[key[3] - 1]!r}")
        ref = reference.get(key)
        if ref is None:
            continue
        if math.isinf(ref) or math.isinf(err):
            if err != ref:
                failures.append(f"{key}: error {err!r} != stored {ref!r}")
        elif abs(err - ref) > REL_TOL * abs(ref):
            failures.append(f"{key}: error {err!r} differs from stored {ref!r} by more than {REL_TOL} relative")
    return failures, len(infs)


def sweep_setup():
    for K, L_alpha in SWEEP_CELLS:
        netc = experiments.build_network(experiments.fig3_config(), K, L_alpha)
        for idx in range(netc.depth):
            net.layer_bank(netc, idx)


def sweep_units(seed):
    reference = load_reference()
    for K, L_alpha in SWEEP_CELLS:
        cfg = experiments.fig3_config(k_list=(K,), l_alpha_list=(L_alpha,), seeds=(seed,))
        yield (
            f"sweep_K{K}_La{L_alpha}",
            lambda cfg=cfg: experiments.run_equivariance_sweep(cfg),
            lambda text, cfg=cfg: check_sweep(text, cfg, reference),
        )


# -- nonexp -----------------------------------------------------------------


def check_nonexp(report):
    """Criterion 5 on one report: worst ratio <= 1 + 1e-3, zero input constant to 1e-10."""
    failures = []
    if report.n_trials != NONEXP_TRIALS:
        failures.append(f"scored {report.n_trials} trials, not {NONEXP_TRIALS}")
    if not report.worst_ratio <= NONEXP_RATIO_MAX:
        failures.append(f"worst ratio {report.worst_ratio!r} > {NONEXP_RATIO_MAX}")
    if report.worst_ratio != max(report.per_layer_worst, default=math.nan):
        failures.append("worst ratio is not the max of the per-layer ratios")
    if not report.constancy_dev < CONSTANCY_MAX:
        failures.append(f"zero-input deviation {report.constancy_dev!r} >= {CONSTANCY_MAX}")
    return failures, 0


def _nonexp_unit(seed):
    netc = experiments.build_network(experiments.fig3_config(), 5, 1, seed=seed)
    coeffs = net.init_coeffs(netc, seed=seed)
    return analysis.nonexpansiveness_report(netc, coeffs, n_trials=NONEXP_TRIALS, seed=seed)


# -- bounds -----------------------------------------------------------------


def check_bounds(report):
    """Criterion 8 on one report: ok, and every B, C, 2^j D ratio to A <= 1.02."""
    failures = []
    if report.get("ok") is not True:
        failures.append("report is not ok")
    ratios = [report.get("worst_ratio")]
    for draw in report.get("draws", []):
        ratios += [draw["lifting"]["ratio"], draw["joint"]["ratio"]]
    if len(ratios) != 3:
        failures.append(f"expected one draw, got {len(report.get('draws', []))}")
    for r in ratios:
        if not (isinstance(r, float) and 0.0 < r <= BOUND_RATIO_MAX):
            failures.append(f"ratio {r!r} outside (0, {BOUND_RATIO_MAX}]")
    return failures, 0


def bounds_config(seed):
    return experiments.ExperimentConfig(kind="bounds-report", k_list=(10,), l_alpha_list=(3,), seeds=(seed,))


def bounds_setup():
    # the lifting and joint bases run_bounds_report builds for K=10, L_alpha=3
    kind = bounds_config(0).spatial_kind
    basis.build_basis(kind, 10)
    basis.build_basis(kind, 10, max_angular=4, n_scale=3)


def bounds_units(seed):
    cfg = bounds_config(seed)
    yield "K10_La3", lambda: experiments.run_bounds_report(cfg), check_bounds


# -- conv: the sweep cells and the non-expansiveness report in one round ----


def conv_units(seed):
    yield from sweep_units(seed)
    yield "nonexp_K5_La1", lambda: _nonexp_unit(seed), check_nonexp


# name -> (set-up, units of one round as (kind, run, check) triples)
# (the non-expansiveness network is the K=5, L_alpha=1 cell's, so sweep_setup builds its banks)
WORKLOADS = {
    "conv": (sweep_setup, conv_units),
    "bounds": (bounds_setup, bounds_units),
}
