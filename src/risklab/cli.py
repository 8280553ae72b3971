"""Command-line front end: one subcommand per experiment family.

    risklab thm1 --seed 7 --trials 20000 --dims 2,8,32 --out runs/demo
    risklab thm2 --condition-positive-price
    risklab cru
    risklab prop3-thm4 --config my.cfg
    risklab checks
    risklab anchors

The experiment subcommands come from ``experiments.EXPERIMENTS``; each one
offers a flag for every key in ``_FLAGS`` that its family accepts.  Every
subcommand except ``anchors`` writes results.csv, manifest.txt, config.txt,
and plotdata/ under --out (default runs/<experiment>).  Flags override the
config file; without --config the built-in default config for the family
is used.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import experiments, geometry

# config key -> add_argument options of the flag that sets it
_FLAGS = {
    "seed": {"type": int, "help": "master seed (overrides config)"},
    "trials": {"type": int, "help": "Monte Carlo draws per cell"},
    "out": {"help": "output directory (default runs/<experiment>)"},
    "dims": {"help": "comma-separated dimension sweep"},
    "condition_positive_price": {
        "action": "store_true",
        "default": None,
        "help": "condition draws on a positive price move (doubles the bound)",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risklab",
        description="Numerical experiments on high-dimensional risk-sharing economies.",
    )
    parser.add_argument("--version", action="version",
                        version=f"risklab {experiments.__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for exp in experiments.EXPERIMENTS.values():
        sub = subs.add_parser(exp.subcommand, help=exp.help)
        sub.set_defaults(experiment=exp)
        sub.add_argument("--config", help="path to a key = value config file")
        for key, options in _FLAGS.items():
            if key in exp.keys:
                sub.add_argument("--" + key.replace("_", "-"), dest=key, **options)

    subs.add_parser("anchors", help="print the closed-form anchor values and exit")
    return parser


def _config_from_args(args: argparse.Namespace) -> experiments.ExperimentConfig:
    exp = args.experiment
    if args.config:
        config = experiments.load_config(args.config)
        if experiments.experiment_for(config.experiment) is not exp:
            raise ValueError(
                f"config is for experiment {config.experiment!r}, "
                f"but the {args.command} subcommand was invoked"
            )
    else:
        config = experiments.default_config(exp.id)
    flags = {key: getattr(args, key) for key in _FLAGS.keys() & exp.keys}
    overrides = {key: experiments.CONFIG_FIELDS[key].parse(v) if isinstance(v, str) else v
                 for key, v in flags.items() if v is not None}
    overrides.setdefault("out", config.out or f"runs/{config.experiment}")
    return replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "anchors":
        sys.stdout.write(experiments.format_anchor_table())
        return 0
    try:
        config = _config_from_args(args)
        result = experiments.run_experiment(config)
    except (OSError, ValueError, geometry.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_err, n_fail = result.error_rows, result.failed_checks
    print(f"{config.experiment}: {len(result.rows)} rows -> {config.out}"
          + (f" ({n_err} error rows)" if n_err else "")
          + (f" ({n_fail} failed checks)" if n_fail else ""))
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
