"""Plain-text network configuration files.

Format: one "key = value" pair per line, '#' starts a comment, blank lines
ignored.  Keys: layers, channels, K, N_r, N_s, T, L, L_theta, L_alpha, j,
seed.  A file is an overlay of ExperimentConfig fields (experiment_fields):
every subcommand merges its preset <- the file <- its flags, and
experiments.build_network makes the network from the result.
"""

from __future__ import annotations

from .experiments import SWEEP_AXES
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
        if key not in _KEYS:
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
