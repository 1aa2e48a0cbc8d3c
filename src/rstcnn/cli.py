"""Command-line harness.

Subcommands::

    rstcnn basis validate   basis health report (Gram, Laplacian, zeros)
    rstcnn bank build       sample a layer's filter bank into a container file
    rstcnn equi sweep       layer-wise equivariance errors over (K, L_alpha, seed)
    rstcnn stab trials      deformation-stability certificates over seeded trials
    rstcnn bounds report    quadrature filter bounds vs. amplitude bound
    rstcnn data rs-make     rotate/rescale/upsample an IDX dataset

Each flag is declared once, in _FLAGS (data rs-make's own in _RS_MAKE_FLAGS),
and each subcommand is one row of _COMMANDS naming its handler and flags.

Exit codes: 0 success, 2 bad input (configuration, off-lattice group
element, failed certificate precondition, exhausted basis pool, unsupported
Bessel order), 3 certificate violation, 4 parse error (IDX or container).
Relative dataset paths resolve against $RSTCNN_DATA_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace

from . import experiments
from .analysis import AssumptionError
from .basis import PoolExhaustionError
from .bessel import UnsupportedOrderError
from .config import experiment_fields, parse_config_text
from .container import ContainerFormatError, save_bank
from .data import IdxParseError, make_rs_dataset, read_idx, write_idx
from .group import OffLatticeError
from .net import ConfigError, init_coeffs, layer_bank

DATA_DIR_VAR = "RSTCNN_DATA_DIR"

# Bad input found past argument parsing: exit 2, prefixed with the cause.
_EXIT_2_CAUSES = {
    ConfigError: "config error",
    OffLatticeError: "off-lattice group element",
    AssumptionError: "certificate assumption violated",
    PoolExhaustionError: "basis pool exhausted",
    UnsupportedOrderError: "unsupported Bessel order",
}


def _data_path(path):
    """Resolve a dataset path against $RSTCNN_DATA_DIR when relative."""
    base = os.environ.get(DATA_DIR_VAR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(out, text):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _value_type(form, parse):
    """An argparse type that applies parse and, on a malformed value, names the expected form."""

    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None

    return convert


_int_list = _value_type("comma-separated integers", lambda text: tuple(int(tok) for tok in text.split(",") if tok.strip()))
_float_list = _value_type("comma-separated numbers", lambda text: tuple(float(tok) for tok in text.split(",") if tok.strip()))
_trials = _value_type("an integer number of trials", lambda text: tuple(range(int(text))))


# Every flag, declared once: option -> argparse keywords.
_FLAGS = {
    "--config": dict(help="network config file (key = value lines)"),
    "--out": dict(help="output path ('-' or omitted: stdout)"),
    "--k-list": dict(type=_int_list, help="comma-separated truncation sizes K"),
    "--l-alpha-list": dict(type=_int_list, help="comma-separated scale tap counts"),
    "--seeds": dict(type=_int_list, help="comma-separated seeds"),
    "--trials": dict(dest="seeds", type=_trials, default=tuple(range(20)), help="number of seeded trials"),
    "--grad-levels": dict(type=_float_list, help="cycled sup|grad tau| targets"),
    "--layer": dict(type=int, default=0, help="layer index within the config"),
    "--layers": dict(type=int, help="network depth (lifting + joint)"),
    "--channels": dict(type=int, help="channels per layer"),
    "--eta": dict(type=float, help="group rotation (radians)"),
    "--beta": dict(type=float, help="group log2 scale"),
    "--vx": dict(type=float, help="group translation x (pixels)"),
    "--vy": dict(type=float, help="group translation y (pixels)"),
    "--margin": dict(type=int, help="interior margin (pixels)"),
    "--height": dict(type=int, help="input height"),
    "--width": dict(type=int, help="input width"),
    "--idx-images": dict(type=_data_path, help="IDX image file for real inputs"),
    "--idx-labels": dict(type=_data_path, help="IDX label file for real inputs"),
    "--kind": dict(dest="spatial_kind", choices=("fb", "sl"), help="spatial basis family"),
}


def _flags(*options):
    """--config, --out and the given options, with their _FLAGS keywords."""
    return {option: _FLAGS[option] for option in ("--config", "--out") + options}


# Every parser dest that names an ExperimentConfig field sets that field.
_FIELDS = frozenset(f.name for f in fields(experiments.ExperimentConfig))


def _experiment_config(args, preset):
    """Merge the preset ExperimentConfig <- config file <- flags."""
    kwargs = {}
    if args.config:
        with open(args.config) as fh:
            kwargs.update(experiment_fields(parse_config_text(fh.read())))
    kwargs.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
    vx, vy = getattr(args, "vx", None), getattr(args, "vy", None)
    if vx is not None or vy is not None:
        kwargs["v"] = (vx or 0.0, vy or 0.0)
    return replace(preset, **kwargs)


def _json_report(kind, runner):
    """A handler writing runner(config) of the kind's preset as JSON; exit 3 unless the report is ok."""

    def run(args):
        cfg = _experiment_config(args, experiments.ExperimentConfig(kind=kind))
        report = runner(cfg)
        _write_text(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
        return 0 if report["ok"] else 3

    return run


def _cmd_bank_build(args):
    if not args.config:
        raise ConfigError("bank build requires --config")
    if not args.out or args.out == "-":
        raise ConfigError("bank build requires --out (binary container)")
    cfg = _experiment_config(args, experiments.ExperimentConfig(kind="bank-build"))
    net = experiments.build_network(cfg, cfg.k_list[0], cfg.l_alpha_list[0], seed=cfg.seeds[0])
    if not 0 <= args.layer < net.depth:
        raise ConfigError(f"layer index {args.layer} outside depth {net.depth}")
    bank = layer_bank(net, args.layer)
    coeffs = init_coeffs(net)
    meta = {"layer": args.layer, "seed": net.seed, "source": os.path.basename(args.config)}
    save_bank(args.out, bank, coeffs=[coeffs[args.layer]], meta=meta)
    sys.stdout.write(f"wrote {args.out}: K={bank.K} N_r={bank.n_rotations} N_s={bank.n_scales} L={bank.stencil}\n")
    return 0


def _cmd_equi_sweep(args):
    cfg = _experiment_config(args, experiments.fig3_config())
    text = experiments.run_equivariance_sweep(cfg)
    _write_text(args.out, text)
    errors = [row[-1] for row in experiments.parse_sweep_csv(text)]
    n_inf = sum(math.isinf(e) for e in errors)
    if n_inf:
        sys.stderr.write(f"{n_inf} of {len(errors)} rows are inf: their reference slice D_g x^(l)[x] is zero\n")
    return 0


def _cmd_stab_trials(args):
    cfg = _experiment_config(args, experiments.stability_config())
    reports, violated = experiments.run_stability_trials(cfg)
    _write_text(args.out, experiments.stability_json(cfg, reports))
    return 3 if violated else 0


def _cmd_data_rs_make(args):
    if not args.out:
        raise ConfigError("data rs-make requires --out prefix")
    if args.upsize < 1:
        raise ConfigError(f"--upsize must be >= 1, got {args.upsize}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    src = read_idx(args.idx_images, args.idx_labels)
    out = make_rs_dataset(src, seed=args.seed, upsize=args.upsize)
    images_path, labels_path = args.out + ".images.idx", args.out + ".labels.idx"
    write_idx(images_path, labels_path, out)
    sys.stdout.write(f"wrote {images_path} and {labels_path} ({len(out)} images at {args.upsize}x{args.upsize})\n")
    return 0


class OneLineParser(argparse.ArgumentParser):
    """An argument parser whose errors take one stderr line and exit 2, like every other bad input."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# data rs-make sets no ExperimentConfig field: its flags are its own
_RS_MAKE_FLAGS = {
    "--idx-images": dict(type=_data_path, required=True, help="IDX image file to rotate/rescale"),
    "--idx-labels": dict(type=_data_path, required=True, help="IDX label file, passed through"),
    "--out": dict(required=True, help="output prefix (.images.idx / .labels.idx)"),
    "--seed": dict(type=int, default=0, help="seed of the random rotations and rescalings"),
    "--upsize": dict(type=int, default=56, help="side of the square output images (pixels)"),
}

# One row per subcommand: group, its help, command, its help, handler, flags.  A handler
# reads each runner off experiments when it runs, so a replaced runner is the one called.
_COMMANDS = (
    ("basis", "basis diagnostics", "validate", "orthonormality / eigenfunction / zero checks at the largest K",
     _json_report("basis-validate", lambda cfg: experiments.run_basis_validate(cfg)), _flags("--k-list", "--kind")),
    ("bank", "filter-bank files", "build", "sample one layer's bank into a container", _cmd_bank_build, _flags("--layer")),
    ("equi", "equivariance measurements", "sweep", "CSV of per-layer errors over (K, L_alpha, seed)", _cmd_equi_sweep,
     _flags("--k-list", "--l-alpha-list", "--seeds", "--layers", "--channels", "--eta", "--beta", "--vx", "--vy",
            "--margin", "--height", "--width", "--idx-images", "--idx-labels", "--kind")),
    ("stab", "deformation stability", "trials", "JSON stability certificates over seeded trials", _cmd_stab_trials,
     _flags("--trials", "--grad-levels", "--beta", "--eta", "--channels")),
    ("bounds", "filter-norm bounds", "report", "JSON B/C/D vs. A over random draws, one report per seed",
     _json_report("bounds-report", lambda cfg: experiments.run_bounds_report(cfg)), _flags("--k-list", "--seeds", "--kind")),
    ("data", "dataset files", "rs-make", "random rotate/rescale + upsample an IDX pair", _cmd_data_rs_make, _RS_MAKE_FLAGS),
)


def build_parser():
    parser = OneLineParser(prog="rstcnn", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)
    for group, group_help, command, command_help, func, flags in _COMMANDS:
        commands = groups.add_parser(group, help=group_help).add_subparsers(dest="command", required=True)
        p = commands.add_parser(command, help=command_help)
        for option, kwargs in flags.items():
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except tuple(_EXIT_2_CAUSES) as e:
        sys.stderr.write(f"{_EXIT_2_CAUSES[type(e)]}: {e}\n")
        return 2
    except (IdxParseError, ContainerFormatError) as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 4
    except OSError as e:
        sys.stderr.write(f"io error: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
