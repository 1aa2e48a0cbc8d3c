"""Plain-text network configuration files.

Format: one "key = value" pair per line, '#' starts a comment, blank lines
ignored.  Keys: layers, channels, K, N_r, N_s, T, L, L_theta, L_alpha, j,
seed.  A file is an overlay of ExperimentConfig fields (experiment_fields),
and its network is the one experiments.build_network makes: the first
layer lifts the image (in_channels 1), the remaining layers are joint
convolutions with `channels` in/out channels each.
"""

from __future__ import annotations

from .experiments import SWEEP_AXES, ExperimentConfig, build_network
from .net import ConfigError

# config key -> (ExperimentConfig field, value type, file default); a None default sets nothing
_KEYS = {
    "layers": ("layers", int, 5),
    "channels": ("channels", int, 1),
    "K": ("k_list", int, 10),
    "N_r": ("n_rotations", int, 8),
    "N_s": ("n_scales", int, 9),
    "T": ("scale_range", float, 1.0),
    "L": ("stencil", int, 9),
    "L_theta": ("L_theta", int, 4),
    "L_alpha": ("l_alpha_list", int, 1),
    "j": ("layer_scale", float, None),
    "seed": ("seeds", int, 0),
}
KNOWN_KEYS = frozenset(_KEYS)
DEFAULTS = {key: default for key, (_, _, default) in _KEYS.items()}


def parse_config_text(text):
    """Parse config text into a {key: value} dict (defaults filled in)."""
    values = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key][1](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return values


def experiment_fields(values):
    """The ExperimentConfig fields that config values set (a None value sets nothing)."""
    fields = {}
    for key, value in values.items():
        if value is not None:
            name, convert, _ = _KEYS[key]
            fields[name] = (convert(value),) if name in SWEEP_AXES else convert(value)
    return fields


def network_from_values(values):
    """Build a NetworkConfig from a parsed (or hand-made) value dict."""
    merged = dict(DEFAULTS)
    merged.update(values)
    unknown = set(merged) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    cfg = ExperimentConfig(kind="bank-build", **experiment_fields(merged))
    return build_network(cfg, cfg.k_list[0], cfg.l_alpha_list[0], seed=cfg.seeds[0])


def load_network_config(path):
    """Read and parse a config file into a NetworkConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_values(parse_config_text(fh.read()))


def config_echo(net):
    """The key=value lines describing a NetworkConfig (round-trips the keys)."""
    first = net.layers[0]
    joint = net.layers[1] if net.depth > 1 else None
    lines = [
        f"layers = {net.depth}",
        f"channels = {first.out_channels}",
        f"K = {first.K}",
        f"N_r = {net.n_rotations}",
        f"N_s = {net.n_scales}",
        f"T = {net.scale_range!r}",
        f"L = {first.stencil}",
        f"L_theta = {joint.L_theta if joint else 1}",
        f"L_alpha = {joint.L_alpha if joint else 1}",
        f"seed = {net.seed}",
    ]
    if first.layer_scale is not None:
        lines.append(f"j = {first.layer_scale!r}")
    return "\n".join(lines)
