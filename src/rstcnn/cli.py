"""Command-line harness.

Subcommands::

    rstcnn basis validate   basis health report (Gram, Laplacian, zeros)
    rstcnn bank build       sample a layer's filter bank into a container file
    rstcnn equi sweep       layer-wise equivariance errors over (K, L_alpha, seed)
    rstcnn stab trials      deformation-stability certificates over seeded trials
    rstcnn bounds report    quadrature filter bounds vs. amplitude bound
    rstcnn data rs-make     rotate/rescale/upsample an IDX dataset

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


def _add_common(p):
    p.add_argument("--config", help="network config file (key = value lines)")
    p.add_argument("--out", help="output path ('-' or omitted: stdout)")


def _add_sweep_axes(p):
    p.add_argument("--k-list", type=_int_list, help="comma-separated truncation sizes")
    p.add_argument("--l-alpha-list", type=_int_list, help="comma-separated scale tap counts")
    p.add_argument("--seeds", type=_int_list, help="comma-separated seeds")
    p.add_argument("--layers", type=int, help="network depth (lifting + joint)")
    p.add_argument("--channels", type=int, help="channels per layer")
    p.add_argument("--eta", type=float, help="group rotation (radians)")
    p.add_argument("--beta", type=float, help="group log2 scale")
    p.add_argument("--vx", type=float, help="group translation x (pixels)")
    p.add_argument("--vy", type=float, help="group translation y (pixels)")
    p.add_argument("--margin", type=int, help="interior margin (pixels)")
    p.add_argument("--height", type=int, help="input height")
    p.add_argument("--width", type=int, help="input width")
    p.add_argument("--idx-images", type=_data_path, help="IDX image file for real inputs")
    p.add_argument("--idx-labels", type=_data_path, help="IDX label file for real inputs")
    p.add_argument("--kind", dest="spatial_kind", choices=("fb", "sl"), help="spatial basis family")


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


def _cmd_basis_validate(args):
    cfg = _experiment_config(args, experiments.ExperimentConfig(kind="basis-validate"))
    report = experiments.run_basis_validate(cfg)
    _write_text(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0 if report["ok"] else 3


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


def _cmd_bounds_report(args):
    cfg = _experiment_config(args, experiments.ExperimentConfig(kind="bounds-report"))
    report = experiments.run_bounds_report(cfg)
    _write_text(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0 if report["ok"] else 3


def _cmd_data_rs_make(args):
    if not args.out:
        raise ConfigError("data rs-make requires --out prefix")
    if args.upsize < 1:
        raise ConfigError(f"--upsize must be >= 1, got {args.upsize}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    src = read_idx(args.idx_images, args.idx_labels)
    out = make_rs_dataset(src, seed=args.seed, upsize=args.upsize)
    images_path = args.out + ".images.idx"
    labels_path = args.out + ".labels.idx"
    write_idx(images_path, labels_path, out)
    sys.stdout.write(f"wrote {images_path} and {labels_path} ({len(out)} images at {args.upsize}x{args.upsize})\n")
    return 0


class OneLineParser(argparse.ArgumentParser):
    """An argument parser whose errors take one stderr line and exit 2, like every other bad input."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = OneLineParser(prog="rstcnn", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)

    basis = groups.add_parser("basis", help="basis diagnostics").add_subparsers(
        dest="command", required=True
    )
    p = basis.add_parser("validate", help="orthonormality / eigenfunction / zero checks")
    _add_common(p)
    p.add_argument("--k-list", type=_int_list, help="largest entry sets the checked truncation")
    p.add_argument("--kind", dest="spatial_kind", choices=("fb", "sl"))
    p.set_defaults(func=_cmd_basis_validate)

    bank = groups.add_parser("bank", help="filter-bank files").add_subparsers(
        dest="command", required=True
    )
    p = bank.add_parser("build", help="sample one layer's bank into a container")
    _add_common(p)
    p.add_argument("--layer", type=int, default=0, help="layer index within the config")
    p.set_defaults(func=_cmd_bank_build)

    equi = groups.add_parser("equi", help="equivariance measurements").add_subparsers(
        dest="command", required=True
    )
    p = equi.add_parser("sweep", help="CSV of per-layer errors over (K, L_alpha, seed)")
    _add_common(p)
    _add_sweep_axes(p)
    p.set_defaults(func=_cmd_equi_sweep)

    stab = groups.add_parser("stab", help="deformation stability").add_subparsers(
        dest="command", required=True
    )
    p = stab.add_parser("trials", help="JSON stability certificates over seeded trials")
    _add_common(p)
    p.add_argument("--trials", dest="seeds", type=_trials, default=tuple(range(20)), help="number of seeded trials")
    p.add_argument("--grad-levels", type=_float_list, help="cycled sup|grad tau| targets")
    p.add_argument("--beta", type=float, help="group log2 scale")
    p.add_argument("--eta", type=float, help="group rotation (radians)")
    p.add_argument("--channels", type=int)
    p.set_defaults(func=_cmd_stab_trials)

    bounds = groups.add_parser("bounds", help="filter-norm bounds").add_subparsers(
        dest="command", required=True
    )
    p = bounds.add_parser("report", help="JSON B/C/D vs. A over random draws")
    _add_common(p)
    p.add_argument("--k-list", type=_int_list)
    p.add_argument("--seeds", type=_int_list, help="one bound report per seed")
    p.add_argument("--kind", dest="spatial_kind", choices=("fb", "sl"))
    p.set_defaults(func=_cmd_bounds_report)

    data = groups.add_parser("data", help="dataset files").add_subparsers(
        dest="command", required=True
    )
    p = data.add_parser("rs-make", help="random rotate/rescale + upsample an IDX pair")
    p.add_argument("--idx-images", type=_data_path, required=True)
    p.add_argument("--idx-labels", type=_data_path, required=True)
    p.add_argument("--out", required=True, help="output prefix (.images.idx / .labels.idx)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--upsize", type=int, default=56)
    p.set_defaults(func=_cmd_data_rs_make)

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
